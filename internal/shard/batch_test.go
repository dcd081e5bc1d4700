package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// TestShardedBatchLowestFailingIndex: a failing batch reports the query
// the sequential loop stops at, whatever the parallelism — here the
// out-of-range pair at index 2, not the malformed query at index 4.
func TestShardedBatchLowestFailingIndex(t *testing.T) {
	g := graph.CommunityGraph(4, 16, 20, 3)
	ss, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ok := schemes.NodePairQuery(0, 1)
	batch := [][]byte{ok, ok, schemes.NodePairQuery(1, 10000), ok, {0xff, 0xff}}
	const want = "shard: batch query 2: shard: node pair (1,10000) out of range [0,64)"
	for _, par := range []int{1, 4} {
		for round := 0; round < 20; round++ {
			if _, err := ss.AnswerBatch(batch, par); err == nil || err.Error() != want {
				t.Fatalf("parallelism %d: err = %v, want %q", par, err, want)
			}
		}
	}

	// A merge failure below a fan failure is the lower index, so it wins.
	sh := *ForScheme("reachability/closure-matrix")
	merge := sh.Merge
	bad := schemes.NodePairQuery(2, 3)
	sh.Merge = func(q []byte, verdicts []bool, asn Assignment, summary interface{}, probe Probe) (bool, error) {
		if string(q) == string(bad) {
			return false, errors.New("merge failed")
		}
		return merge(q, verdicts, asn, summary, probe)
	}
	ss, err = Build("g", schemes.ReachabilityScheme(), &sh, RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	batch = [][]byte{ok, bad, ok, schemes.NodePairQuery(1, 10000)}
	for _, par := range []int{1, 4} {
		if _, err := ss.AnswerBatch(batch, par); err == nil || err.Error() != "shard: batch query 1: merge failed" {
			t.Fatalf("parallelism %d: err = %v, want the merge failure at query 1", par, err)
		}
	}
	// A merge failure above a fan failure never wins, even when a parallel
	// fan pass got past the failing query.
	batch = [][]byte{ok, schemes.NodePairQuery(1, 10000), ok, bad}
	for round := 0; round < 50; round++ {
		if _, err := ss.AnswerBatch(batch, 4); err == nil || err.Error() != "shard: batch query 1: shard: node pair (1,10000) out of range [0,64)" {
			t.Fatalf("err = %v, want the fan failure at query 1", err)
		}
	}
}

// TestShardedBatchDeadlineMidBatch: a budget that expires inside the merge
// pass stops the batch at its next query and comes back as a typed
// deadline error, not as a failed query.
func TestShardedBatchDeadlineMidBatch(t *testing.T) {
	g := graph.CommunityGraph(4, 16, 20, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sh := *ForScheme("reachability/closure-matrix")
	merge := sh.Merge
	var merges atomic.Int64
	sh.Merge = func(q []byte, verdicts []bool, asn Assignment, summary interface{}, probe Probe) (bool, error) {
		merges.Add(1)
		cancel()
		return merge(q, verdicts, asn, summary, probe)
	}
	ss, err := Build("g", schemes.ReachabilityScheme(), &sh, RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]byte, 16)
	for i := range queries {
		queries[i] = schemes.NodePairQuery(i, g.N()-1-i)
	}
	_, _, err = store.AnswerBatchWithin(ctx, ss, queries, 1)
	var de *store.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *store.DeadlineError", err)
	}
	if n := merges.Load(); n >= int64(len(queries)) {
		t.Fatalf("%d merges ran for %d queries after the budget expired", n, len(queries))
	}
}

// TestShardedBatchAllocs bounds a 64-pair sharded reachability batch: the
// batch allocates per call, not per shard sub-batch.
func TestShardedBatchAllocs(t *testing.T) {
	g := graph.CommunityGraph(16, 128, 256, 9)
	ss, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	if n := testing.AllocsPerRun(20, func() { ss.AnswerBatch(batch, 0) }); n > 100 {
		t.Fatalf("64-pair sharded batch: %v allocs, want ≤ 100", n)
	}
}

// TestShardedBatchStageObservations: one answer call, single or batch,
// records exactly one shard_fanout and one shard_merge observation.
func TestShardedBatchStageObservations(t *testing.T) {
	g := graph.CommunityGraph(4, 16, 20, 3)
	ss, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 32)
	for i := range batch {
		batch[i] = schemes.NodePairQuery(i, g.N()-1-i)
	}
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"answer", func() error { _, err := ss.Answer(batch[0]); return err }},
		{"batch", func() error { _, err := ss.AnswerBatch(batch, 4); return err }},
	} {
		fan, merge := obsShardFanout.Snapshot().Count, obsShardMerge.Snapshot().Count
		if err := call.run(); err != nil {
			t.Fatal(err)
		}
		if d := obsShardFanout.Snapshot().Count - fan; d != 1 {
			t.Errorf("%s: %d shard_fanout observations, want 1", call.name, d)
		}
		if d := obsShardMerge.Snapshot().Count - merge; d != 1 {
			t.Errorf("%s: %d shard_merge observations, want 1", call.name, d)
		}
	}
}
