package main

import (
	"bytes"
	"testing"

	"pitract/internal/graph"
)

func TestSameSeedGivesByteIdenticalRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, err := makeWorkload(name, 7, 0.2, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeWorkload(name, 7, 0.2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.arena, b.arena) || !bytes.Equal(a.data, b.data) {
			t.Errorf("%s: seed 7 generated different bytes on two calls", name)
		}
		c, err := makeWorkload(name, 8, 0.2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.arena, c.arena) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", name)
		}
	}
}

func TestReadWriteStreamPatchesAlternateAndStayStationary(t *testing.T) {
	w, err := makeWorkload("search-zipf-rw", 3, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Decode(w.data)
	if err != nil {
		t.Fatal(err)
	}
	patches := 0
	for i, o := range w.ops {
		if (i%patchEvery == patchEvery-1) != (o.kind == opPatch) {
			t.Fatalf("op %d has kind %d", i, o.kind)
		}
		if o.kind != opPatch {
			continue
		}
		patches++
		if int(o.patch) != patches {
			t.Fatalf("op %d is PATCH %d, want %d", i, o.patch, patches)
		}
		want := []byte(`"deltas":["/`) // tagged upsert and delete deltas start 0xff
		if !bytes.Contains(w.body(&o), want) {
			t.Fatalf("PATCH %d body %s", o.patch, w.body(&o))
		}
	}
	for _, e := range w.edges {
		if e[0] == e[1] || g.HasEdge(e[0], e[1]) {
			t.Fatalf("PATCH edge %v is a self-loop or already in D", e)
		}
	}
	if len(w.writeLeg) != 0 {
		t.Fatal("read-write workload has a post-window write leg")
	}
}
