package main

import (
	"testing"

	"pitract/internal/graph"
)

// pathWorkload is 0→1→2→3 with PATCH 1 adding 3→0, queried on (3,0) and
// (0,3): at version 0 the answers are false, true; at version 1 true, true.
func pathWorkload(t *testing.T) (*workload, *oracle) {
	t.Helper()
	w := &workload{data: graph.Path(4, true).Encode(), edges: [][2]int{{3, 0}}, pairs: []int32{3, 0, 0, 3}}
	o, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, o
}

func TestOracleAcceptsAnyVersionInTheWindow(t *testing.T) {
	w, o := pathWorkload(t)
	for _, qv := range []queryVerdict{
		{ans: 0, version: 0, ackedAtSend: 0, sentAtEnd: 0},
		{ans: 1, version: 1, ackedAtSend: 1, sentAtEnd: 1},
		{ans: 1, version: 0, ackedAtSend: 0, sentAtEnd: 1}, // PATCH 1 in flight, already applied
		{ans: 0, version: 0, ackedAtSend: 0, sentAtEnd: 1}, // PATCH 1 in flight, not yet applied
		{ans: 1, version: 3, ackedAtSend: 3, sentAtEnd: 3}, // the stream's second pass re-adds edge 0
		{ans: 0, version: 4, ackedAtSend: 4, sentAtEnd: 4},
	} {
		if ok, why := o.check(w, 0, 1, qv); !ok {
			t.Errorf("%+v rejected: %s", qv, why)
		}
	}
	if ok, why := o.check(w, 0, 2, queryVerdict{ans: 0b11, version: 1, ackedAtSend: 1, sentAtEnd: 1}); !ok {
		t.Errorf("batch rejected: %s", why)
	}
}

func TestOracleCatchesFlippedAndStaleVerdicts(t *testing.T) {
	w, o := pathWorkload(t)
	for name, qv := range map[string]queryVerdict{
		"flipped":                {ans: 1, version: 0, ackedAtSend: 0, sentAtEnd: 0},
		"flipped after PATCH":    {ans: 0, version: 1, ackedAtSend: 1, sentAtEnd: 1},
		"stale version":          {ans: 0, version: 0, ackedAtSend: 1, sentAtEnd: 1},
		"old verdict, new label": {ans: 0, version: 1, ackedAtSend: 0, sentAtEnd: 1},
		"version never sent":     {ans: 1, version: 1, ackedAtSend: 0, sentAtEnd: 0},
	} {
		if ok, _ := o.check(w, 0, 1, qv); ok {
			t.Errorf("%s verdict %+v accepted", name, qv)
		}
	}
	// One flipped verdict in a batch fails the whole batch.
	if ok, _ := o.check(w, 0, 2, queryVerdict{ans: 0b01, version: 1, ackedAtSend: 1, sentAtEnd: 1}); ok {
		t.Error("batch with a flipped verdict accepted")
	}
}
