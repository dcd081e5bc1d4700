package shard

// Sharded reachability. The vertex set is partitioned by the assignment;
// each shard preprocesses the induced subgraph on its vertices (relabelled
// 0..n_i-1), so per-shard closure matrices cost (n/k)² bits instead of n²
// — the artifact genuinely scales out. Correctness across shards comes
// from the portal overlay built at preprocessing time:
//
//   - portals are the endpoints of cross-shard edges;
//   - the overlay graph has one node per portal, an edge for every cross
//     edge, and an edge p→q for every same-shard portal pair with p
//     reaching q inside its shard;
//   - the overlay's transitive closure is stored in the summary.
//
// Any path u ⇝ v decomposes into within-shard segments joined at cross
// edges, so
//
//	reach(u, v)  ⇔  same-shard reach(u, v)
//	              ∨ ∃ portals p, q: reach_local(u, p) ∧ overlay(p, q) ∧ reach_local(q, v).
//
// Merge therefore ORs the same-shard verdict with the portal check. The
// check is an accumulator over the overlay closure's rows: for every portal
// p of u's shard that u reaches locally, row(p) — the portals p reaches
// through the overlay — is ORed into one bitset; v-side probes "q reaches
// v" then go only to portals q of v's shard whose accumulated bit is set.
// That is O(|portals of u's and v's shards|) local probes (each an O(1)
// closure read, encoded into one reused buffer) plus word-wide ORs —
// comfortably inside the NC answering budget as long as the cross-edge cut
// stays small, which is the same locality assumption every graph
// partitioner lives on.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// reachSummary is the decoded cross-shard state for sharded reachability.
// Besides the overlay closure the answer path needs, it carries the
// cross-shard edge list and the graph's orientation — the inputs delta
// maintenance needs to rebuild the overlay when an edge insert changes
// portal-to-portal connectivity.
type reachSummary struct {
	n           int      // global vertex count
	directed    bool     // orientation of the sharded graph
	local       []uint32 // local[v] = v's id inside its shard
	cross       [][2]int // cross-shard edges, global ids
	portals     []int    // ascending global ids of cross-edge endpoints
	portalShard []int    // portalShard[i] = shard owning portals[i]
	// byShard[s] lists the overlay indices (positions in portals) of shard
	// s's portals, ascending; shards past its end own none.
	byShard [][]int
	closure []byte // reflexive overlay closure bitset, row-major over portals
	// rows re-lays closure for the answer path, one word-aligned row per
	// portal: row i is rows[i*rowWords:(i+1)*rowWords], with bit j set iff
	// portal i reaches portal j through the overlay. Only Prepare builds it;
	// it is never persisted.
	rows     []uint64
	rowWords int
}

// groupByShard rebuilds byShard from portalShard.
func (rs *reachSummary) groupByShard() {
	rs.byShard = nil
	for i, s := range rs.portalShard {
		for len(rs.byShard) <= s {
			rs.byShard = append(rs.byShard, nil)
		}
		rs.byShard[s] = append(rs.byShard[s], i)
	}
}

// shardPortals returns the overlay indices of shard s's portals.
func (rs *reachSummary) shardPortals(s int) []int {
	if s < len(rs.byShard) {
		return rs.byShard[s]
	}
	return nil
}

// portalIndex returns global vertex p's overlay index; p must be a portal.
func (rs *reachSummary) portalIndex(p int) int { return sort.SearchInts(rs.portals, p) }

// layRows builds rows from the byte-packed closure.
func (rs *reachSummary) layRows() {
	np := len(rs.portals)
	rs.rowWords = (np + 63) / 64
	rs.rows = make([]uint64, np*rs.rowWords)
	for i := 0; i < np; i++ {
		row := rs.rows[i*rs.rowWords:]
		for j := 0; j < np; j++ {
			if bit := i*np + j; rs.closure[bit/8]&(1<<(bit%8)) != 0 {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
}

// portalReach decides the cross-shard half of reach(u, v), for u in shard su
// and v in shard sv: it ORs into one accumulator the overlay row of every
// portal of su that u reaches locally, then probes "q reaches v" only for
// portals q of sv whose accumulated bit is set. Every local probe goes
// through probe, encoded into one buffer reused across the merge.
func (rs *reachSummary) portalReach(u, v, su, sv int, probe Probe) (bool, error) {
	from, to := rs.shardPortals(su), rs.shardPortals(sv)
	if len(from) == 0 || len(to) == 0 {
		return false, nil
	}
	// Overlays of up to 512 portals accumulate on the stack.
	var small [8]uint64
	acc := small[:]
	if rs.rowWords > len(small) {
		acc = make([]uint64, rs.rowWords)
	}
	buf := make([]byte, 0, 2*binary.MaxVarintLen64)
	lu, lv := int(rs.local[u]), int(rs.local[v])
	for _, p := range from {
		ok, err := probe(su, schemes.AppendNodePairQuery(buf[:0], lu, int(rs.local[rs.portals[p]])))
		if err != nil {
			return false, err
		}
		if ok {
			for i, w := range rs.rows[p*rs.rowWords : (p+1)*rs.rowWords] {
				acc[i] |= w
			}
		}
	}
	for _, q := range to {
		if acc[q/64]&(1<<(q%64)) == 0 {
			continue
		}
		ok, err := probe(sv, schemes.AppendNodePairQuery(buf[:0], int(rs.local[rs.portals[q]]), lv))
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

func encodeReachSummary(rs *reachSummary) []byte {
	b := binary.AppendUvarint(nil, uint64(rs.n))
	for _, l := range rs.local {
		b = binary.AppendUvarint(b, uint64(l))
	}
	if rs.directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(rs.cross)))
	for _, e := range rs.cross {
		b = binary.AppendUvarint(b, uint64(e[0]))
		b = binary.AppendUvarint(b, uint64(e[1]))
	}
	b = binary.AppendUvarint(b, uint64(len(rs.portals)))
	for _, p := range rs.portals {
		b = binary.AppendUvarint(b, uint64(p))
	}
	for _, s := range rs.portalShard {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return append(b, rs.closure...)
}

func decodeReachSummary(b []byte) (*reachSummary, error) {
	off := 0
	next := func() (uint64, error) {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, fmt.Errorf("shard: corrupt reachability summary at offset %d", off)
		}
		off += k
		return v, nil
	}
	n64, err := next()
	if err != nil {
		return nil, err
	}
	if n64 > graph.MaxDecodeVertices {
		return nil, fmt.Errorf("shard: reachability summary claims %d vertices", n64)
	}
	rs := &reachSummary{n: int(n64), local: make([]uint32, n64)}
	for v := range rs.local {
		l, err := next()
		if err != nil {
			return nil, err
		}
		rs.local[v] = uint32(l)
	}
	if off >= len(b) {
		return nil, fmt.Errorf("shard: reachability summary truncated before orientation flag")
	}
	rs.directed = b[off] == 1
	off++
	c64, err := next()
	if err != nil {
		return nil, err
	}
	// Each cross edge takes at least two bytes; reject hostile counts
	// before allocating.
	if c64 > uint64(len(b)-off)/2 {
		return nil, fmt.Errorf("shard: reachability summary claims %d cross edges in %d bytes", c64, len(b)-off)
	}
	rs.cross = make([][2]int, c64)
	for i := range rs.cross {
		u, err := next()
		if err != nil {
			return nil, err
		}
		v, err := next()
		if err != nil {
			return nil, err
		}
		if u >= n64 || v >= n64 {
			return nil, fmt.Errorf("shard: cross edge (%d,%d) out of range [0,%d)", u, v, n64)
		}
		rs.cross[i] = [2]int{int(u), int(v)}
	}
	p64, err := next()
	if err != nil {
		return nil, err
	}
	if p64 > n64 {
		return nil, fmt.Errorf("shard: reachability summary claims %d portals over %d vertices", p64, n64)
	}
	rs.portals = make([]int, p64)
	for i := range rs.portals {
		p, err := next()
		if err != nil {
			return nil, err
		}
		if p >= n64 {
			return nil, fmt.Errorf("shard: portal %d out of range [0,%d)", p, n64)
		}
		if i > 0 && int(p) <= rs.portals[i-1] {
			return nil, fmt.Errorf("shard: portal %d out of order", p)
		}
		rs.portals[i] = int(p)
	}
	for _, e := range rs.cross {
		for _, p := range e {
			if i := rs.portalIndex(p); i == len(rs.portals) || rs.portals[i] != p {
				return nil, fmt.Errorf("shard: cross edge endpoint %d is not a portal", p)
			}
		}
	}
	rs.portalShard = make([]int, p64)
	for i := range rs.portalShard {
		s, err := next()
		if err != nil {
			return nil, err
		}
		// Shard ids are small in practice; the bound only has to stop a
		// hostile manifest from claiming astronomical values.
		if s > n64 {
			return nil, fmt.Errorf("shard: portal shard id %d out of range", s)
		}
		rs.portalShard[i] = int(s)
	}
	rs.groupByShard()
	rs.closure = b[off:]
	if want := (len(rs.portals)*len(rs.portals) + 7) / 8; len(rs.closure) != want {
		return nil, fmt.Errorf("shard: overlay closure is %d bytes, want %d", len(rs.closure), want)
	}
	return rs, nil
}

// vertexShards computes shard membership and local relabelling for every
// vertex: local ids are ranks within the shard in ascending global order.
func vertexShards(n int, asn Assignment) (shardOf []int, local []uint32, counts []int) {
	shardOf = make([]int, n)
	local = make([]uint32, n)
	counts = make([]int, asn.Shards())
	for v := 0; v < n; v++ {
		s := asn.Shard(int64(v))
		shardOf[v] = s
		local[v] = uint32(counts[s])
		counts[s]++
	}
	return shardOf, local, counts
}

// inducedSubgraphs builds each shard's induced subgraph under the local
// relabelling; edges crossing shards are dropped here and recovered by the
// portal overlay.
func inducedSubgraphs(g *graph.Graph, shardOf []int, local []uint32, counts []int) ([]*graph.Graph, error) {
	subs := make([]*graph.Graph, len(counts))
	for i, c := range counts {
		subs[i] = graph.New(c, g.Directed())
	}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if shardOf[u] != shardOf[v] {
			continue
		}
		if err := subs[shardOf[u]].AddEdge(int(local[u]), int(local[v])); err != nil {
			return nil, err
		}
	}
	for _, s := range subs {
		s.Normalize()
	}
	return subs, nil
}

// splitGraph cuts a graph dataset into per-shard induced subgraphs and
// builds the portal-overlay summary: one decode, one relabelling, one set
// of induced subgraphs feeding both.
func splitGraph(data []byte, asn Assignment) ([][]byte, []byte, error) {
	g, err := graph.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	shardOf, local, counts := vertexShards(g.N(), asn)
	subs, err := inducedSubgraphs(g, shardOf, local, counts)
	if err != nil {
		return nil, nil, err
	}
	parts := make([][]byte, len(subs))
	for i, s := range subs {
		parts[i] = s.Encode()
	}
	summary, err := buildReachSummary(g, shardOf, local, counts, subs)
	if err != nil {
		return nil, nil, err
	}
	return parts, summary, nil
}

// buildReachSummary computes the portal overlay closure from the decoded
// graph and its per-shard induced subgraphs.
func buildReachSummary(g *graph.Graph, shardOf []int, local []uint32, counts []int, subs []*graph.Graph) ([]byte, error) {
	n := g.N()

	// Portals: endpoints of cross-shard edges, ascending. The cross-edge
	// list itself is retained in the summary — delta maintenance rebuilds
	// the overlay from it when an insert changes portal connectivity.
	isPortal := make([]bool, n)
	var cross [][2]int
	for _, e := range g.Edges() {
		if shardOf[e[0]] != shardOf[e[1]] {
			isPortal[e[0]] = true
			isPortal[e[1]] = true
			cross = append(cross, e)
		}
	}
	var portals []int
	portalIdx := make(map[int]int)
	for v := 0; v < n; v++ {
		if isPortal[v] {
			portalIdx[v] = len(portals)
			portals = append(portals, v)
		}
	}

	// Overlay: cross edges, plus within-shard reachability between portals.
	overlay := graph.New(len(portals), true)
	for _, e := range cross {
		overlay.MustAddEdge(portalIdx[e[0]], portalIdx[e[1]])
		if !g.Directed() {
			overlay.MustAddEdge(portalIdx[e[1]], portalIdx[e[0]])
		}
	}
	portalsByShard := make([][]int, len(counts))
	for _, p := range portals {
		portalsByShard[shardOf[p]] = append(portalsByShard[shardOf[p]], p)
	}
	for s, ps := range portalsByShard {
		for _, p := range ps {
			_, dist := subs[s].BFS(int(local[p]))
			for _, q := range ps {
				if p != q && dist[local[q]] >= 0 {
					overlay.MustAddEdge(portalIdx[p], portalIdx[q])
				}
			}
		}
	}

	// The overlay closure (reflexive, like the per-shard closures).
	c := graph.NewClosure(overlay)
	bits := make([]byte, (len(portals)*len(portals)+7)/8)
	for i := range portals {
		for j := range portals {
			if c.Reach(i, j) {
				bit := i*len(portals) + j
				bits[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	portalShard := make([]int, len(portals))
	for i, p := range portals {
		portalShard[i] = shardOf[p]
	}
	return encodeReachSummary(&reachSummary{
		n: n, directed: g.Directed(), local: local, cross: cross,
		portals: portals, portalShard: portalShard, closure: bits,
	}), nil
}

// recomputePortals rederives the portal set (ascending global ids), the
// per-portal shard assignment, and the per-shard grouping from the
// cross-edge list — the canonical source after an insert may have created
// new portals.
func (rs *reachSummary) recomputePortals(asn Assignment) {
	isPortal := make(map[int]bool)
	for _, e := range rs.cross {
		isPortal[e[0]] = true
		isPortal[e[1]] = true
	}
	rs.portals = rs.portals[:0]
	for v := 0; v < rs.n; v++ {
		if isPortal[v] {
			rs.portals = append(rs.portals, v)
		}
	}
	rs.portalShard = make([]int, len(rs.portals))
	for i, p := range rs.portals {
		rs.portalShard[i] = asn.Shard(int64(p))
	}
	rs.groupByShard()
}

// rebuildClosure recomputes the overlay transitive closure from the
// cross-edge list plus within-shard portal reachability, probed against
// the (already maintained) per-shard stores: O(Σ_s |portals_s|²) probes,
// each an O(1) closure read, then one closure computation on the
// |portals|-node overlay — far below re-preprocessing the dataset.
func (rs *reachSummary) rebuildClosure(probe Probe) error {
	overlay := graph.New(len(rs.portals), true)
	for _, e := range rs.cross {
		pi, qi := rs.portalIndex(e[0]), rs.portalIndex(e[1])
		overlay.MustAddEdge(pi, qi)
		if !rs.directed {
			overlay.MustAddEdge(qi, pi)
		}
	}
	var buf []byte
	for s, ps := range rs.byShard {
		for _, pi := range ps {
			for _, qi := range ps {
				if pi == qi {
					continue
				}
				buf = schemes.AppendNodePairQuery(buf[:0], int(rs.local[rs.portals[pi]]), int(rs.local[rs.portals[qi]]))
				ok, err := probe(s, buf)
				if err != nil {
					return err
				}
				if ok {
					overlay.MustAddEdge(pi, qi)
				}
			}
		}
	}
	c := graph.NewClosure(overlay)
	bits := make([]byte, (len(rs.portals)*len(rs.portals)+7)/8)
	for i := range rs.portals {
		for j := range rs.portals {
			if c.Reach(i, j) {
				bit := i*len(rs.portals) + j
				bits[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	rs.closure = bits
	return nil
}

// hasCross reports whether the cross-edge list already holds (u,v) (either
// orientation for undirected graphs).
func (rs *reachSummary) hasCross(u, v int) bool {
	for _, e := range rs.cross {
		if (e[0] == u && e[1] == v) || (!rs.directed && e[0] == v && e[1] == u) {
			return true
		}
	}
	return false
}

// removeCross drops the first copy of (u,v) (either orientation for
// undirected graphs) from the cross-edge list, reporting whether it was
// present.
func (rs *reachSummary) removeCross(u, v int) bool {
	for i, e := range rs.cross {
		if (e[0] == u && e[1] == v) || (!rs.directed && e[0] == v && e[1] == u) {
			rs.cross = append(rs.cross[:i], rs.cross[i+1:]...)
			return true
		}
	}
	return false
}

// decodeEdgeDelta parses and validates one edge-insert delta against the
// summary's vertex universe.
func decodeEdgeDelta(delta []byte, rs *reachSummary) (u, v int, err error) {
	u, v, err = schemes.DecodeNodePairQuery(delta)
	if err != nil {
		return 0, 0, err
	}
	if u < 0 || u >= rs.n || v < 0 || v >= rs.n || u == v {
		return 0, 0, fmt.Errorf("shard: bad edge delta (%d,%d) over %d vertices", u, v, rs.n)
	}
	return u, v, nil
}

// splitReachDelta routes an edge delta: a same-shard edge becomes a local
// relabelled delta of the same kind on its owning shard; a cross-shard
// edge touches no shard — induced subgraphs exclude cross edges — and
// lands entirely on the summary. Inserts on undirected graphs keep the
// historical two-orientation encoding (the second is an idempotent no-op
// now that the scheme's AddEdge stores both arcs); deletes send exactly
// one local delta, because the scheme's RemoveEdge drops both arcs and a
// second delete would error as edge-not-present.
func splitReachDelta(delta []byte, asn Assignment, summary interface{}) (map[int][][]byte, error) {
	rs := summary.(*reachSummary)
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	u, v, err := decodeEdgeDelta(payload, rs)
	if err != nil {
		return nil, err
	}
	su, sv := asn.Shard(int64(u)), asn.Shard(int64(v))
	if su != sv {
		return nil, nil
	}
	local := schemes.NodePairQuery(int(rs.local[u]), int(rs.local[v]))
	lds := [][]byte{core.TagDelta(kind, local)}
	if !rs.directed && kind != core.DeltaDelete {
		lds = append(lds, core.TagDelta(kind, schemes.NodePairQuery(int(rs.local[v]), int(rs.local[u]))))
	}
	return map[int][][]byte{su: lds}, nil
}

// updateReachSummary maintains the portal overlay's structure after one
// edge delta: a cross-shard insert extends the cross-edge list (possibly
// promoting its endpoints to portals, with the closure bitset zero-padded
// to the new portal count); a cross-shard delete drops the edge from the
// list — erroring when it was never there, matching the unsharded scheme's
// strict edge-delete contract — and demotes portals that lost their last
// cross edge. The overlay closure itself is stale until finishReachSummary
// rebuilds it — once per batch, not per delta — which is safe because
// nothing inside the batch reads it: splitReachDelta only needs the vertex
// universe and local relabelling, and queries keep serving the committed
// (pre-batch) summary until the batch commits.
func updateReachSummary(delta []byte, asn Assignment, summary []byte, probe Probe) ([]byte, error) {
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	// A same-shard edge changes no summary structure (SplitDelta already
	// validated the endpoints), so it skips the summary decode/encode
	// round-trip entirely; only genuine cross edges pay it.
	u, v, err := schemes.DecodeNodePairQuery(payload)
	if err != nil {
		return nil, err
	}
	if asn.Shard(int64(u)) == asn.Shard(int64(v)) {
		return summary, nil
	}
	rs, err := decodeReachSummary(summary)
	if err != nil {
		return nil, err
	}
	if _, _, err := decodeEdgeDelta(payload, rs); err != nil {
		return nil, err
	}
	switch kind {
	case core.DeltaDelete:
		if !rs.removeCross(u, v) {
			return nil, fmt.Errorf("shard: cross edge (%d,%d) not present", u, v)
		}
		rs.recomputePortals(asn)
		rs.closure = make([]byte, (len(rs.portals)*len(rs.portals)+7)/8)
	default: // insert and upsert: idempotent when the edge is present
		if !rs.hasCross(u, v) {
			rs.cross = append(rs.cross, [2]int{u, v})
			rs.recomputePortals(asn)
			rs.closure = make([]byte, (len(rs.portals)*len(rs.portals)+7)/8)
		}
	}
	return encodeReachSummary(rs), nil
}

// finishReachSummary rebuilds the overlay closure from the (batch-final)
// cross-edge list and the maintained per-shard closures — a same-shard
// insert can connect two portals locally, which changes cross-shard
// answers too, so the rebuild runs even when no cross edge was added.
func finishReachSummary(asn Assignment, summary []byte, probe Probe) ([]byte, error) {
	rs, err := decodeReachSummary(summary)
	if err != nil {
		return nil, err
	}
	if err := rs.rebuildClosure(probe); err != nil {
		return nil, err
	}
	return encodeReachSummary(rs), nil
}

// reachabilitySharding wires the graph split, the portal overlay, the
// per-shard query rewrite, and the cross-shard merge. It serves both the
// closure-matrix scheme and the BFS-per-query baseline: the merge only
// needs local reach probes, which either scheme answers.
//
// withDeltas enables sharded edge-insert maintenance. It is on for the
// closure-matrix scheme, whose per-shard maintenance (§4(7) ancestor-row
// OR-ing) and overlay rebuild (O(1) closure probes) both stay far below a
// re-preprocess. The BFS baseline keeps it off: its "preprocessed" shard
// artifact is the raw subgraph, so every overlay rebuild probe is a full
// O(|V|+|E|) BFS and maintenance would cost more than re-registering —
// the bounded-incrementality contract the delta path exists for does not
// hold, and PATCH refuses with a clean conflict instead.
func reachabilitySharding(withDeltas bool) *Sharding {
	sh := &Sharding{
		Keys: func(data []byte) ([]int64, error) {
			g, err := graph.Decode(data)
			if err != nil {
				return nil, err
			}
			keys := make([]int64, g.N())
			for v := range keys {
				keys[v] = int64(v)
			}
			return keys, nil
		},
		Split: splitGraph,
		Prepare: func(summary []byte) (interface{}, error) {
			rs, err := decodeReachSummary(summary)
			if err != nil {
				return nil, err
			}
			rs.layRows()
			return rs, nil
		},
		Route: func(q []byte, asn Assignment) (int, error) {
			// Validate the query shape here (malformed queries must error
			// exactly as they do unsharded), then always fan out: even a
			// same-shard pair may be connected through other shards.
			if _, _, err := schemes.DecodeNodePairQuery(q); err != nil {
				return 0, err
			}
			return -1, nil
		},
		Fanout: func(q []byte, shardIdx int, asn Assignment, summary interface{}) ([]byte, bool, error) {
			u, v, err := schemes.DecodeNodePairQuery(q)
			if err != nil {
				return nil, false, err
			}
			rs := summary.(*reachSummary)
			if u < 0 || u >= rs.n || v < 0 || v >= rs.n {
				return nil, false, fmt.Errorf("shard: node pair (%d,%d) out of range [0,%d)", u, v, rs.n)
			}
			if asn.Shard(int64(u)) != shardIdx || asn.Shard(int64(v)) != shardIdx {
				return nil, false, nil // this shard holds at most one endpoint
			}
			return schemes.NodePairQuery(int(rs.local[u]), int(rs.local[v])), true, nil
		},
		Merge: func(q []byte, verdicts []bool, asn Assignment, summary interface{}, probe Probe) (bool, error) {
			u, v, err := schemes.DecodeNodePairQuery(q)
			if err != nil {
				return false, err
			}
			rs := summary.(*reachSummary)
			if u < 0 || u >= rs.n || v < 0 || v >= rs.n {
				return false, fmt.Errorf("shard: node pair (%d,%d) out of range [0,%d)", u, v, rs.n)
			}
			su, sv := asn.Shard(int64(u)), asn.Shard(int64(v))
			if su == sv && verdicts[su] {
				return true, nil
			}
			return rs.portalReach(u, v, su, sv, probe)
		},
	}
	if withDeltas {
		sh.SplitDelta = splitReachDelta
		sh.UpdateSummary = updateReachSummary
		sh.FinishSummary = finishReachSummary
	}
	return sh
}
