package store

// Unit pins for the cache-fronted dataset wrapper that need controllable
// version behavior — the cross-scheme differential lives in
// internal/server/cache_test.go.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// scriptedDataset is a Dataset stub with a controllable version and
// scripted verdicts, for racing the wrapper against "maintenance".
type scriptedDataset struct {
	version atomic.Uint64
	// onBatch runs inside AnswerBatch before answering — the hook a test
	// uses to commit a "delta" mid-batch. Every verdict is simply
	// "version > 0", so pre- and post-delta worlds are distinguishable.
	onBatch func()
}

func (d *scriptedDataset) DatasetID() string        { return "scripted" }
func (d *scriptedDataset) SchemeName() string       { return "scripted/scheme" }
func (d *scriptedDataset) DataDigest() DataChecksum { return DataChecksum{} }
func (d *scriptedDataset) PrepBytes() int           { return 0 }
func (d *scriptedDataset) ShardCount() int          { return 1 }
func (d *scriptedDataset) WasLoaded() bool          { return false }
func (d *scriptedDataset) Version() uint64          { return d.version.Load() }
func (d *scriptedDataset) Answer(q []byte) (bool, error) {
	return d.version.Load() > 0, nil
}
func (d *scriptedDataset) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	if d.onBatch != nil {
		d.onBatch()
	}
	out := make([]bool, len(queries))
	v := d.version.Load() > 0
	for i := range out {
		out[i] = v
	}
	return out, nil
}
func (d *scriptedDataset) AnswerContext(ctx context.Context, q []byte) (bool, error) {
	return d.Answer(q)
}
func (d *scriptedDataset) AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error) {
	return d.AnswerBatch(queries, parallelism)
}
func (d *scriptedDataset) RetryPrepare() error { return nil }

// TestCachedBatchConsistentAcrossMidBatchCommit pins the batch
// consistency contract: when a delta commits between cache admission and
// the miss sub-batch, the wrapper must not mix old-version hits with
// new-version miss answers — it falls back to one uncached batch, whose
// verdicts all come from a single Π.
func TestCachedBatchConsistentAcrossMidBatchCommit(t *testing.T) {
	ds := &scriptedDataset{}
	c := cache.New(1 << 20)
	cd := NewCachedDataset(ds, c)

	q1, q2 := []byte{1}, []byte{2}
	// Warm q1 at version 0 (verdict false).
	if got, err := cd.Answer(q1); err != nil || got {
		t.Fatalf("warm answer = (%v, %v), want (false, nil)", got, err)
	}
	// The "delta" commits while the miss sub-batch (q2) is in flight.
	ds.onBatch = func() { ds.version.Store(1) }
	got, err := cd.AnswerBatch([][]byte{q1, q2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[1] {
		t.Fatalf("mixed-version batch: %v — verdicts must come from one Π", got)
	}
	if !got[0] {
		t.Fatalf("batch = %v, want the post-commit verdicts", got)
	}
	// And the stale v0 entry must not have been refreshed under v1 keys:
	// a fresh lookup at v1 misses (the fallback skips cache fills).
	if _, ok := c.Lookup("scripted", 1, q2); ok {
		t.Fatal("fallback path filled the cache despite the version change")
	}
}

// TestCachedBatchFillsAndServes pins the happy path: misses answered once
// and cached, hits served without touching the dataset.
func TestCachedBatchFillsAndServes(t *testing.T) {
	ds := &scriptedDataset{}
	ds.version.Store(1)
	c := cache.New(1 << 20)
	cd := NewCachedDataset(ds, c)
	qs := [][]byte{{1}, {2}, {3}}
	for pass := 0; pass < 2; pass++ {
		got, err := cd.AnswerBatch(qs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if !v {
				t.Fatalf("pass %d query %d: got false", pass, i)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 misses then 3 hits", st)
	}
}

// TestCachedAnswerWithinRecordsCacheStages pins the served path's cache
// bookkeeping: a budgeted query goes AnswerWithin → AnswerContext, and a
// repeat of it must count as a cache_hit (the first as a cache_miss), just
// as through Answer.
func TestCachedAnswerWithinRecordsCacheStages(t *testing.T) {
	g := graph.RandomDirected(64, 256, 5)
	scheme := schemes.ReachabilityScheme()
	pd, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCachedDataset(&Store{ID: "g", Scheme: scheme, Prep: pd}, cache.New(1<<20))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	q := schemes.NodePairQuery(1, 2)
	hits, misses := obsCacheHit.Snapshot().Count, obsCacheMiss.Snapshot().Count
	for i := 0; i < 2; i++ {
		if _, err := AnswerWithin(ctx, cd, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := obsCacheMiss.Snapshot().Count - misses; got != 1 {
		t.Errorf("cache_miss count rose by %d, want 1", got)
	}
	if got := obsCacheHit.Snapshot().Count - hits; got != 1 {
		t.Errorf("cache_hit count rose by %d, want 1", got)
	}
}
