package main

import (
	"reflect"
	"testing"

	"pitract/internal/cache"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

func TestSelfTimesSubtractCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{name: "handler", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a: 10..50 is covered once
		{name: "c", start: 25, end: 35, parent: 2},  // inside b
		{name: "d", start: 90, end: 120, parent: 0}, // runs past its parent: clipped at 100
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerNestsAndSplitsByChildren(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("cache")
	inner := tr.begin("store")
	tr.end(inner)
	tr.end(outer)
	leaf := tr.begin("cache")
	tr.end(leaf)
	if tr.spans[inner].parent != outer || tr.spans[leaf].parent != -1 {
		t.Fatalf("parents %+v", tr.spans)
	}
	st := tr.stats()
	if st["cache"].count != 2 || st["cache+child"].count != 1 || st["cache-child"].count != 1 {
		t.Fatalf("stats %+v %+v %+v", st["cache"], st["cache+child"], st["cache-child"])
	}
}

// optionalInterfaces lists which optional dataset interfaces v implements.
func optionalInterfaces(v interface{}) [5]bool {
	_, ca := v.(store.ContextAnswerer)
	_, dg := v.(store.DegradedDataset)
	_, db := v.(store.DegradableBatcher)
	_, pr := v.(store.PrepareRetrier)
	_, dd := v.(store.DeltaDataset)
	return [5]bool{ca, dg, db, pr, dd}
}

func TestWrapDatasetForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	data := graph.CommunityGraph(2, 8, 3, 1).Encode()
	sc := schemes.ReachabilityScheme()
	st, err := store.NewRegistry("").Register("g", sc, data)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := shard.Build("s", sc, shard.ForScheme(sc.Name()), shard.RangePartitioner{}, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, ds := range []store.Dataset{st, ss, store.NewCachedDataset(st, cache.New(1<<20))} {
		w, err := wrapDataset(ds, tr, "x")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalInterfaces(w), optionalInterfaces(ds); got != want {
			t.Errorf("%T: wrapped implements %v, unwrapped %v", ds, got, want)
		}
		if _, err := w.Answer(schemes.NodePairQuery(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want one per Answer", len(tr.spans))
	}
}
