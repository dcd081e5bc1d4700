package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
)

const (
	datasetID = "g"
	// batchSize is the number of node pairs per /v1/query/batch request.
	batchSize = 64
	// patchEvery: on the read-write workload, one operation in patchEvery
	// is a PATCH.
	patchEvery = 200
	// writeLegPatches is the number of PATCHes sent after the timed window
	// on the read-only workloads: enough for a p90 with ten samples beyond.
	writeLegPatches = 110
)

type opKind uint8

const (
	opQuery opKind = iota // POST /v1/query, one node pair
	opBatch               // POST /v1/query/batch, batchSize node pairs
	opPatch               // PATCH /v1/datasets/g, one edge upsert or delete
)

// op is one request of a workload. Its bytes live in workload.arena.
type op struct {
	kind  opKind
	patch int32  // PATCH number, 1-based (the version it acknowledges)
	pair  int32  // index of the op's first node pair in workload.pairs
	off   uint32 // request start in the arena
	body  uint32 // body start in the arena
	end   uint32 // request end in the arena
}

// workload is a fixed, seeded sequence of operations against one dataset.
// Every request is encoded before any timing starts.
type workload struct {
	name   string
	scheme string
	shards int // 0: unsharded
	nodes  int
	data   []byte // the encoded graph D
	// pairs holds u0, v0, u1, v1, ...: the node pairs of every query.
	pairs []int32
	// edges[k] is upserted by PATCH 2k+1 and deleted by PATCH 2k+2, so
	// the graph at an even version is D and at odd version v it is
	// D + edges[(v-1)/2].
	edges    [][2]int
	ops      []op // the timed stream
	writeLeg []op // PATCHes sent after the window (read-only workloads)
	arena    []byte
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"probe-uniform", "search-zipf-rw", "sharded-batch"}

// maxRate sizes each stream at about twice the rate measured on a 2-vCPU
// host, so a run does not repeat its stream; the loop starts the stream over
// if a faster server gets through it anyway.
var maxRate = map[string]int{"probe-uniform": 40000, "search-zipf-rw": 8000, "sharded-batch": 2000}

// makeWorkload generates workload name from seed, sized for a run of
// seconds measured seconds after warmup seconds of warm-up.
func makeWorkload(name string, seed int64, seconds, warmup float64) (*workload, error) {
	rate, ok := maxRate[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	// D is the same for every seed, so set-up, memory and disk figures
	// compare across runs; the seed draws the operation stream.
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	var g *graph.Graph
	switch name {
	case "probe-uniform", "search-zipf-rw":
		g = graph.RandomDirected(4096, 16384, 1)
		w.scheme = "reachability/closure-matrix"
		if name == "search-zipf-rw" {
			w.scheme = "reachability/bfs-per-query"
		}
	case "sharded-batch":
		g = graph.CommunityGraph(16, 128, 256, 9)
		w.scheme = "reachability/closure-matrix"
		w.shards = 4
	}
	w.nodes = g.N()
	w.data = g.Encode()
	// Whole multiples of two PATCH periods, so each pass of the stream
	// upserts and deletes the same number of edges.
	nOps := (int((seconds+warmup+1)*float64(rate))/(2*patchEvery) + 1) * 2 * patchEvery

	next := func() (int32, int32) { return int32(rng.Intn(w.nodes)), int32(rng.Intn(w.nodes)) }
	if name == "search-zipf-rw" {
		// Zipf(s=1.3) over the ranks of all n² node pairs, each rank mapped
		// to a pair by the bijection r -> (a·r + b) mod n² (a odd; n² is a
		// power of two).
		n2 := uint64(w.nodes) * uint64(w.nodes)
		z := rand.NewZipf(rng, 1.3, 1, n2-1)
		a, b := uint64(rng.Int63())|1, uint64(rng.Int63())
		next = func() (int32, int32) {
			p := (a*z.Uint64() + b) % n2
			return int32(p / uint64(w.nodes)), int32(p % uint64(w.nodes))
		}
	}
	newEdge := func() [2]int {
		for {
			x, y := rng.Intn(w.nodes), rng.Intn(w.nodes)
			if x != y && !g.HasEdge(x, y) {
				return [2]int{x, y}
			}
		}
	}
	patches := 0
	patchOp := func() (op, error) {
		patches++
		var delta []byte
		if patches%2 == 1 {
			w.edges = append(w.edges, newEdge())
			e := w.edges[len(w.edges)-1]
			delta = schemes.EdgeUpsertDelta(e[0], e[1])
		} else {
			e := w.edges[len(w.edges)-1]
			delta = schemes.EdgeDeleteDelta(e[0], e[1])
		}
		o := op{kind: opPatch, patch: int32(patches)}
		return o, w.encode(&o, "PATCH", "/v1/datasets/"+datasetID, server.PatchRequest{Deltas: [][]byte{delta}})
	}

	w.ops = make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		if i == 1 {
			// Size the arena once from the first request, so it is not
			// copied as it grows.
			w.arena = append(make([]byte, 0, (len(w.arena)+16)*nOps), w.arena...)
		}
		var o op
		var err error
		switch {
		case name == "search-zipf-rw" && i%patchEvery == patchEvery-1:
			o, err = patchOp()
		case name == "sharded-batch":
			o = op{kind: opBatch, pair: int32(len(w.pairs) / 2)}
			qs := make([][]byte, batchSize)
			for k := range qs {
				u, v := next()
				w.pairs = append(w.pairs, u, v)
				qs[k] = schemes.NodePairQuery(int(u), int(v))
			}
			err = w.encode(&o, "POST", "/v1/query/batch", server.BatchRequest{Dataset: datasetID, Queries: qs})
		default:
			u, v := next()
			o = op{kind: opQuery, pair: int32(len(w.pairs) / 2)}
			w.pairs = append(w.pairs, u, v)
			err = w.encode(&o, "POST", "/v1/query", server.QueryRequest{Dataset: datasetID, Query: schemes.NodePairQuery(int(u), int(v))})
		}
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, o)
	}
	if name != "search-zipf-rw" {
		for i := 0; i < writeLegPatches; i++ {
			o, err := patchOp()
			if err != nil {
				return nil, err
			}
			w.writeLeg = append(w.writeLeg, o)
		}
	}
	return w, nil
}

// encode appends o's HTTP/1.1 request, with v as its JSON body, to the
// arena and records where it lies.
func (w *workload) encode(o *op, method, path string, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	o.off = uint32(len(w.arena))
	w.arena = appendRequest(w.arena, method, path, body)
	o.end = uint32(len(w.arena))
	o.body = o.end - uint32(len(body))
	return nil
}

// appendRequest appends one HTTP/1.1 request with a JSON body to dst.
func appendRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

func (w *workload) request(o *op) []byte { return w.arena[o.off:o.end] }

func (w *workload) body(o *op) []byte { return w.arena[o.body:o.end] }

// pairCount is the number of node pairs op o asks about.
func (o *op) pairCount() int {
	switch o.kind {
	case opQuery:
		return 1
	case opBatch:
		return batchSize
	}
	return 0
}

// pairAt returns the i-th node pair of the workload.
func (w *workload) pairAt(i int) (int, int) { return int(w.pairs[2*i]), int(w.pairs[2*i+1]) }

// registerPath is the registration URL path, with the sharding query.
func (w *workload) registerPath() string {
	if w.shards > 1 {
		return fmt.Sprintf("/v1/datasets?shards=%d&partitioner=range", w.shards)
	}
	return "/v1/datasets"
}

// registerBody is the JSON registration of D under the workload's scheme.
func (w *workload) registerBody() ([]byte, error) {
	return json.Marshal(server.RegisterRequest{ID: datasetID, Scheme: w.scheme, Data: w.data})
}
