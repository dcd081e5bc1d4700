package store_test

import (
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
