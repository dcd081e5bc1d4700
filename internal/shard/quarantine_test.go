package shard

// Quarantine-and-heal on sharded datasets: the same protocol a plain store
// follows (internal/store's TestQuarantineRebuildReplaysSurvivingLog), run
// through the manifest and generation format. A corrupt shard snapshot is
// renamed aside and rebuilt with the surviving delta log replayed on top; a
// corrupt delta log is renamed aside and the checkpointed generation
// served.

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// assertReachOracle checks every node pair of ds against the raw closure
// Answer over a from-scratch preprocessing of raw.
func assertReachOracle(t *testing.T, ds store.Dataset, raw []byte, label string) {
	t.Helper()
	scheme := schemes.ReachabilityScheme()
	pd, err := scheme.Preprocess(raw)
	if err != nil {
		t.Fatalf("%s: oracle preprocess: %v", label, err)
	}
	g, err := graph.Decode(raw)
	if err != nil {
		t.Fatalf("%s: decode oracle graph: %v", label, err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			q := schemes.NodePairQuery(u, v)
			want, err := scheme.Answer(pd, q)
			if err != nil {
				t.Fatalf("%s: oracle reach(%d,%d): %v", label, u, v, err)
			}
			got, err := ds.Answer(q)
			if err != nil || got != want {
				t.Fatalf("%s: reach(%d,%d) = (%v, %v), oracle %v", label, u, v, got, err, want)
			}
		}
	}
}

// cuttingDelta returns an edge-delete delta whose removal changes at least
// one reachability verdict of g, so a lost delta cannot go unnoticed.
func cuttingDelta(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	for _, e := range g.Edges() {
		h := g.Clone()
		if err := h.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.Reachable(u, v) != h.Reachable(u, v) {
					return schemes.EdgeDeleteDelta(e[0], e[1])
				}
			}
		}
	}
	t.Fatal("no single edge deletion changes a verdict of the fixture graph")
	return nil
}

func TestQuarantineRebuildReplaysSurvivingLogSharded(t *testing.T) {
	dir := t.TempDir()
	g := graph.CommunityGraph(3, 8, 12, 5)
	data := g.Encode()
	scheme := schemes.ReachabilityScheme()

	reg := store.NewRegistry(dir)
	reg.SetCheckpointEvery(100) // keep the delta log alive across the corruption
	if _, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 3, data); err != nil {
		t.Fatal(err)
	}
	delta := cuttingDelta(t, g)
	if ver, err := reg.ApplyDelta("g", [][]byte{delta}); err != nil || ver != 1 {
		t.Fatalf("ApplyDelta = (%d, %v), want (1, nil)", ver, err)
	}
	patched, err := schemes.IncrementalReachability().ApplyUpdate(data, delta)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte of a shard snapshot the manifest names (generation 0:
	// the cadence never checkpointed) — its manifest SHA-256 must catch it.
	path := ShardSnapshotPath(dir, "g", 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the corrupt shard file is quarantined, every shard rebuilt
	// from source, and the log replayed — the acknowledged edge survives.
	reg2 := store.NewRegistry(dir)
	reg2.SetCheckpointEvery(100)
	ss2, err := RegisterSharded(reg2, "g", scheme, RangePartitioner{}, 3, data)
	if err != nil {
		t.Fatalf("re-register over a corrupt shard snapshot: %v", err)
	}
	if ss2.WasLoaded() {
		t.Fatal("dataset claims to be loaded over a corrupt shard snapshot")
	}
	if ver := ss2.Version(); ver != 1 {
		t.Fatalf("rebuilt dataset at version %d, want 1 (log replayed)", ver)
	}
	if n := reg2.ReplayCount(); n != 1 {
		t.Fatalf("ReplayCount %d after rebuild, want 1", n)
	}
	if n := reg2.QuarantineCount(); n != 1 {
		t.Fatalf("QuarantineCount %d after rebuild, want 1", n)
	}
	qraw, err := os.ReadFile(store.QuarantinePath(path))
	if err != nil {
		t.Fatalf("quarantined shard snapshot missing: %v", err)
	}
	if string(qraw) != string(raw) {
		t.Fatal("quarantined shard snapshot is not the corrupt bytes verbatim")
	}
	if st := reg2.Breaker("g").State(); st != store.HealthQuarantined {
		t.Fatalf("breaker state %v after quarantine, want quarantined", st)
	}
	assertReachOracle(t, ss2, patched, "healed")

	// The heal checkpointed a valid generation: the next restart loads it
	// cleanly at the replayed version.
	reg3 := store.NewRegistry(dir)
	ss3, err := RegisterSharded(reg3, "g", scheme, RangePartitioner{}, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if !ss3.WasLoaded() || ss3.Version() != 1 {
		t.Fatalf("post-heal restart: loaded=%v version=%d, want a clean load at 1", ss3.WasLoaded(), ss3.Version())
	}
	if reg3.QuarantineCount() != 0 || reg3.ReplayCount() != 0 {
		t.Fatalf("post-heal restart: %d quarantines, %d replays, want 0 and 0",
			reg3.QuarantineCount(), reg3.ReplayCount())
	}
	assertReachOracle(t, ss3, patched, "post-heal restart")
}

// TestQuarantineCorruptLogSharded: a sharded dataset's delta log that is
// structurally corrupt — a foreign magic, or a CRC-valid record whose body
// does not parse — is hostile, not a torn crash. Re-registration
// quarantines the log, counts it, and serves the checkpointed generation,
// exactly as a plain store does; it never wedges the dataset.
func TestQuarantineCorruptLogSharded(t *testing.T) {
	// A record body claiming five deltas in zero bytes, framed with its
	// correct CRC so the reader cannot mistake it for a torn tail.
	body := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 5)
	unparseable := append([]byte("PITRACTL\x01"), binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))...)
	unparseable = append(binary.AppendUvarint(unparseable, uint64(len(body))), body...)

	for _, tc := range []struct {
		name string
		log  []byte
	}{
		{"foreign-magic", []byte("NOTALOG!\x01 arbitrary trailing bytes")},
		{"unparseable-record", unparseable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := graph.CommunityGraph(3, 8, 12, 5)
			data := g.Encode()
			scheme := schemes.ReachabilityScheme()
			reg := store.NewRegistry(dir) // cadence 1: every PATCH checkpoints
			if _, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 3, data); err != nil {
				t.Fatal(err)
			}
			delta := cuttingDelta(t, g)
			if _, err := reg.ApplyDelta("g", [][]byte{delta}); err != nil {
				t.Fatal(err)
			}
			patched, err := schemes.IncrementalReachability().ApplyUpdate(data, delta)
			if err != nil {
				t.Fatal(err)
			}
			logPath := store.LogPath(dir, "g")
			if err := os.WriteFile(logPath, tc.log, 0o644); err != nil {
				t.Fatal(err)
			}

			reg2 := store.NewRegistry(dir)
			ss2, err := RegisterSharded(reg2, "g", scheme, RangePartitioner{}, 3, data)
			if err != nil {
				t.Fatalf("re-register over a corrupt delta log: %v", err)
			}
			if !ss2.WasLoaded() || ss2.Version() != 1 {
				t.Fatalf("loaded=%v version=%d, want the checkpointed generation at 1", ss2.WasLoaded(), ss2.Version())
			}
			if n := reg2.QuarantineCount(); n != 1 {
				t.Fatalf("QuarantineCount %d, want 1", n)
			}
			if n := reg2.ReplayCount(); n != 0 {
				t.Fatalf("ReplayCount %d, want 0", n)
			}
			qraw, err := os.ReadFile(store.QuarantinePath(logPath))
			if err != nil || string(qraw) != string(tc.log) {
				t.Fatalf("quarantined log = (%q, %v), want the corrupt bytes verbatim", qraw, err)
			}
			if _, err := os.Stat(logPath); !os.IsNotExist(err) {
				t.Fatalf("corrupt log still in place (stat err %v)", err)
			}
			assertReachOracle(t, ss2, patched, "after log quarantine")

			// The dataset is not wedged: the next restart is clean.
			reg3 := store.NewRegistry(dir)
			ss3, err := RegisterSharded(reg3, "g", scheme, RangePartitioner{}, 3, data)
			if err != nil {
				t.Fatal(err)
			}
			if ss3.Version() != 1 || reg3.QuarantineCount() != 0 {
				t.Fatalf("second restart: version %d, %d quarantines, want 1 and 0", ss3.Version(), reg3.QuarantineCount())
			}
		})
	}
}
