package store_test

import (
	"os"
	"strings"
	"testing"

	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

// TestUnreadableCheckpointFailsRegistration: a checkpoint that cannot be
// read through every retry may well be intact, so registration fails
// loudly rather than rebuilding over it — a rebuild would overwrite the
// acknowledged version with version 0 and delete its log. Once the medium
// recovers, the same registration reloads the acknowledged state.
func TestUnreadableCheckpointFailsRegistration(t *testing.T) {
	f := faultfs.New()
	med := &store.Medium{Dir: "/d", FS: f, CheckpointEvery: 1}
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	reg := store.NewRegistryMedium(med)
	if _, err := reg.Register("k", schemes.PointSelectionScheme(), data); err != nil {
		t.Fatal(err)
	}
	if v, err := reg.ApplyDelta("k", [][]byte{schemes.KeysDelta([]int64{9})}); err != nil || v != 1 {
		t.Fatalf("ApplyDelta = (%d, %v), want (1, nil)", v, err)
	}

	f.Restart()
	f.SetReadFaults(faultfs.ReadFaults{Seed: 1, ErrorRate: 1})
	outage := store.NewRegistryMedium(med)
	if st, err := outage.Register("k", schemes.PointSelectionScheme(), data); err == nil {
		t.Fatalf("registration during a read outage served version %d; want an error", st.Version())
	} else if !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("outage error %q does not say the checkpoint is unreadable", err)
	}
	if outage.Len() != 0 || outage.PreprocessCount() != 0 || outage.QuarantineCount() != 0 {
		t.Fatalf("outage left %d entries, %d preprocess calls, %d quarantines; want none",
			outage.Len(), outage.PreprocessCount(), outage.QuarantineCount())
	}

	f.SetReadFaults(faultfs.ReadFaults{})
	f.Restart()
	st, err := store.NewRegistryMedium(med).Register("k", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !st.WasLoaded() || st.Version() != 1 {
		t.Fatalf("after the outage: loaded=%v version=%d, want a load at 1", st.WasLoaded(), st.Version())
	}
	if got, err := st.Answer(schemes.PointQuery(9)); err != nil || !got {
		t.Fatalf("after the outage: key 9 = (%v, %v), want (true, nil)", got, err)
	}
}

// TestCorruptCheckpointPastZeroHeals: a checkpoint taken after version 0
// that turns out corrupt is rebuilt from source at version 0, so the
// surviving log — which starts at the lost checkpoint's version — can never
// replay. The quarantine path sets that log aside with the snapshot before
// the rebuild's checkpoint is written; otherwise every later restart would
// load the version-0 checkpoint and stop on the gap.
func TestCorruptCheckpointPastZeroHeals(t *testing.T) {
	dir := t.TempDir()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	reg := store.NewRegistry(dir)
	reg.SetCheckpointEvery(2)
	if _, err := reg.Register("k", schemes.PointSelectionScheme(), data); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at version 2, then one logged batch from 2 to 3.
	for i, key := range []int64{9, 11, 13} {
		if v, err := reg.ApplyDelta("k", [][]byte{schemes.KeysDelta([]int64{key})}); err != nil || v != uint64(i+1) {
			t.Fatalf("ApplyDelta %d = (%d, %v), want (%d, nil)", i, v, err, i+1)
		}
	}
	snap := store.SnapshotPath(dir, "k")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	for restart := 0; restart < 3; restart++ {
		r := store.NewRegistry(dir)
		r.SetCheckpointEvery(2)
		st, err := r.Register("k", schemes.PointSelectionScheme(), data)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		wantLoaded, wantQuarantines, wantState := restart > 0, int64(0), store.HealthHealthy
		if restart == 0 {
			wantQuarantines, wantState = 2, store.HealthQuarantined
		}
		if st.WasLoaded() != wantLoaded || st.Version() != 0 {
			t.Fatalf("restart %d: loaded=%v version=%d, want loaded=%v at 0", restart, st.WasLoaded(), st.Version(), wantLoaded)
		}
		if got := r.QuarantineCount(); got != wantQuarantines {
			t.Fatalf("restart %d: %d quarantines, want %d", restart, got, wantQuarantines)
		}
		if got := r.HealthStates()["k"]; got != wantState {
			t.Fatalf("restart %d: breaker %v, want %v", restart, got, wantState)
		}
		if got, err := st.Answer(schemes.PointQuery(4)); err != nil || !got {
			t.Fatalf("restart %d: key 4 = (%v, %v), want (true, nil)", restart, got, err)
		}
	}
	for _, p := range []string{snap, store.LogPath(dir, "k")} {
		if _, err := os.Stat(store.QuarantinePath(p)); err != nil {
			t.Errorf("%s was not set aside: %v", p, err)
		}
	}
}
