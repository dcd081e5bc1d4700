package main

import (
	"fmt"

	"pitract/internal/core"
	"pitract/internal/schemes"
)

// oracle decides reachability on D ⊕ ΔD at any version of a workload by
// raw Scheme.Answer of the dense closure scheme over the generated D. It
// is independent of the served path: no store, cache, shard or server.
// Reachability after adding edge x→y is R(u,v) ∨ (R(u,x) ∧ R(y,v)).
type oracle struct {
	scheme *core.Scheme
	pd     []byte
	edges  [][2]int
}

func newOracle(w *workload) (*oracle, error) {
	sc := schemes.ReachabilityScheme()
	pd, err := sc.Preprocess(w.data)
	if err != nil {
		return nil, fmt.Errorf("oracle: preprocess: %w", err)
	}
	return &oracle{scheme: sc, pd: pd, edges: w.edges}, nil
}

func (o *oracle) base(u, v int) bool {
	ok, err := o.scheme.Answer(o.pd, schemes.NodePairQuery(u, v))
	if err != nil {
		panic(fmt.Sprintf("oracle: answer (%d,%d): %v", u, v, err)) // pairs are generated in range
	}
	return ok
}

// reach reports whether u reaches v in the graph at version ver. A
// stream that starts over repeats its edges, so PATCH numbers past the
// last edge wrap around.
func (o *oracle) reach(u, v int, ver uint64) bool {
	r := o.base(u, v)
	if ver%2 == 1 && !r {
		e := o.edges[(ver-1)/2%uint64(len(o.edges))]
		r = o.base(u, e[0]) && o.base(e[1], v)
	}
	return r
}

// queryVerdict is what the generator recorded about one answered query or
// batch: the verdict bits (bit i answers pair i), the version the server
// reported, and the PATCH counters around the request.
type queryVerdict struct {
	ans     uint64
	version uint64
	// ackedAtSend is the last PATCH version acknowledged before the
	// request was sent; sentAtEnd is the last PATCH version sent before
	// the response arrived (acknowledged or still in flight).
	ackedAtSend, sentAtEnd uint64
}

// check accepts a verdict when every answer equals the oracle at one
// version in [reported version, sentAtEnd], and the reported version is
// no older than the last one acknowledged before the request was sent:
// the API's "this version or newer" contract. It returns a reason when it
// rejects.
func (o *oracle) check(w *workload, first, n int, qv queryVerdict) (bool, string) {
	if qv.version < qv.ackedAtSend {
		return false, fmt.Sprintf("stale version %d, %d acknowledged before sending", qv.version, qv.ackedAtSend)
	}
	if qv.version > qv.sentAtEnd {
		return false, fmt.Sprintf("version %d beyond the %d PATCHes sent", qv.version, qv.sentAtEnd)
	}
	for ver := qv.version; ver <= qv.sentAtEnd; ver++ {
		match := true
		for i := 0; i < n && match; i++ {
			u, v := w.pairAt(first + i)
			match = o.reach(u, v, ver) == (qv.ans>>uint(i)&1 == 1)
		}
		if match {
			return true, ""
		}
	}
	return false, fmt.Sprintf("verdict differs from the oracle at every version in [%d,%d]", qv.version, qv.sentAtEnd)
}
