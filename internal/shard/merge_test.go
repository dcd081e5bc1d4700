package shard

import (
	"math/rand"
	"testing"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// TestPreparedClosureProbeAllocs pins the probe every portal check pays:
// a prepared closure answer, bare or through its store, allocates nothing.
func TestPreparedClosureProbeAllocs(t *testing.T) {
	g := graph.CommunityGraph(4, 32, 40, 3)
	scheme := schemes.ReachabilityScheme()
	pd, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	a, err := scheme.Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	st := &store.Store{ID: "g", Scheme: scheme, Prep: pd}
	st.Warm()
	q := schemes.NodePairQuery(3, g.N()-1)
	if n := testing.AllocsPerRun(100, func() { a.Answer(q) }); n != 0 {
		t.Errorf("prepared closure Answer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { st.Answer(q) }); n != 0 {
		t.Errorf("store Answer over the prepared closure: %v allocs, want 0", n)
	}
}

// TestShardedAnswerAllocs bounds one sharded reachability answer — fan-out
// plus portal merge — to a constant number of allocations, whatever the
// pair: no allocation may scale with the portal count.
func TestShardedAnswerAllocs(t *testing.T) {
	g := graph.CommunityGraph(16, 128, 256, 9)
	ss, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		q := schemes.NodePairQuery(u, v)
		if n := testing.AllocsPerRun(10, func() { ss.Answer(q) }); n > 4 {
			t.Fatalf("ShardedStore.Answer(%d,%d): %v allocs, want ≤ 4", u, v, n)
		}
	}
}

// isolatedShardGraph is a sparse random digraph on vertices 0..319 plus a
// block 320..399 with internal edges only, so range partitioning over five
// shards leaves shard 4 with no portals while the other four own a few
// hundred between them (several overlay-row words, rows that differ).
func isolatedShardGraph() *graph.Graph {
	base := graph.RandomDirected(320, 480, 21)
	g := graph.New(400, true)
	for _, e := range base.Edges() {
		g.MustAddEdge(e[0], e[1])
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 120; i++ {
		if u, v := 320+rng.Intn(80), 320+rng.Intn(80); u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// TestShardedMergeMatchesUnsharded is the accumulator merge's differential:
// on thousands of random pairs with a true/false mix — including pairs in
// a shard that owns no portals — the sharded verdict equals the unsharded
// Scheme.Answer at registration, after a cross-edge upsert that gives that
// shard a portal, and after deleting that edge and an original cross edge.
func TestShardedMergeMatchesUnsharded(t *testing.T) {
	g := isolatedShardGraph()
	scheme := schemes.ReachabilityScheme()
	reg := store.NewRegistry(t.TempDir())
	ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 5, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	pairs := make([][]byte, 3000)
	for i := range pairs {
		pairs[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	portalsOf := func(s int) int {
		ss.mu.RLock()
		defer ss.mu.RUnlock()
		sv, err := ss.summaryView()
		if err != nil {
			t.Fatal(err)
		}
		return len(sv.(*reachSummary).shardPortals(s))
	}
	check := func(step string) {
		t.Helper()
		trues := 0
		pd, err := scheme.Preprocess(g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ss.AnswerBatch(pairs, 2)
		if err != nil {
			t.Fatalf("%s: batch: %v", step, err)
		}
		for i, q := range pairs {
			want, err := scheme.Answer(pd, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ss.Answer(q)
			if err != nil {
				t.Fatalf("%s: pair %d: %v", step, i, err)
			}
			if got != want || batch[i] != want {
				u, v, _ := schemes.DecodeNodePairQuery(q)
				t.Fatalf("%s: %d⇝%d: sharded %v, batch %v, unsharded %v", step, u, v, got, batch[i], want)
			}
			if want {
				trues++
			}
		}
		if trues < len(pairs)/10 || trues > len(pairs)*9/10 {
			t.Fatalf("%s: %d of %d pairs reach: the mix is too one-sided to test the merge", step, trues, len(pairs))
		}
	}

	if n := portalsOf(4); n != 0 {
		t.Fatalf("shard 4 owns %d portals at registration, want 0", n)
	}
	if total := portalsOf(0) + portalsOf(1) + portalsOf(2) + portalsOf(3); total <= 128 {
		t.Fatalf("only %d portals: the overlay rows span fewer than three words", total)
	}
	check("registration")

	// 330 → 5 makes 330 a portal of shard 4 and connects the isolated block
	// to the rest of the graph.
	if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeUpsertDelta(330, 5)}); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(330, 5)
	if n := portalsOf(4); n != 1 {
		t.Fatalf("shard 4 owns %d portals after the cross-edge upsert, want 1", n)
	}
	check("after cross-edge upsert")

	var cross [2]int
	for _, e := range g.Edges() {
		if e[0] < 320 && e[1] < 320 && e[0]/80 != e[1]/80 {
			cross = e
			break
		}
	}
	if _, err := reg.ApplyDelta("g", [][]byte{
		schemes.EdgeDeleteDelta(330, 5),
		schemes.EdgeDeleteDelta(cross[0], cross[1]),
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{330, 5}, cross} {
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := portalsOf(4); n != 0 {
		t.Fatalf("shard 4 owns %d portals after the deletes, want 0", n)
	}
	check("after cross-edge deletes")
}

// TestDecodeReachSummaryRejectsUnorderedPortals pins the invariants the
// answer and maintenance paths index by: portals strictly ascending, and
// every cross-edge endpoint among them.
func TestDecodeReachSummaryRejectsUnorderedPortals(t *testing.T) {
	valid := func() *reachSummary {
		return &reachSummary{
			n: 4, directed: true, local: []uint32{0, 1, 0, 1},
			cross: [][2]int{{1, 2}}, portals: []int{1, 2}, portalShard: []int{0, 1},
			closure: []byte{0b1011},
		}
	}
	if _, err := decodeReachSummary(encodeReachSummary(valid())); err != nil {
		t.Fatalf("valid summary: %v", err)
	}
	unordered := valid()
	unordered.portals = []int{2, 1}
	if _, err := decodeReachSummary(encodeReachSummary(unordered)); err == nil {
		t.Error("descending portals accepted")
	}
	stray := valid()
	stray.cross = [][2]int{{1, 3}}
	if _, err := decodeReachSummary(encodeReachSummary(stray)); err == nil {
		t.Error("cross edge to a non-portal accepted")
	}
}
