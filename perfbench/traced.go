package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// Served-path settings mirrored by the in-process rungs (see serveFlags).
const (
	cacheBytes      = 16 << 20
	queryBudget     = time.Second
	checkpointEvery = 64
)

// replayOps is how many leading ops of the stream the traced run replays:
// enough for steady means, few enough that a BFS workload stays quick.
var replayOps = map[string]int{"probe-uniform": 20000, "search-zipf-rw": 3000, "sharded-batch": 300}

// layerNames fixes the per-layer metrics and their order; every traced
// run reports each of them (0 for a layer its workload does not reach).
var layerNames = []metricName{
	{"schemes.preprocess_s", "s"}, {"schemes.answer_ns", "ns"},
	{"store.snapshot_save_s", "s"}, {"store.snapshot_bytes", "B"},
	{"store.answer_ns", "ns"}, {"store.answer_allocs", "count"},
	{"store.guard_ns", "ns"}, {"store.guard_allocs", "count"},
	{"store.breaker_ns", "ns"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"},
	{"cache.cache_hit_ns", "ns"}, {"cache.cache_miss_ns", "ns"}, {"cache.allocs", "count"},
	{"shard.shard_fanout_ns", "ns"}, {"shard.shard_merge_ns", "ns"},
	{"shard.probes_per_query", "count"}, {"shard.answer_allocs", "count"},
	{"store.patch_apply_us", "us"}, {"store.log_append_us", "us"},
	{"store.bytes_written_per_patch", "B"}, {"store.syncs_per_patch", "count"},
	{"server.decode_ns", "ns"}, {"server.encode_ns", "ns"},
	{"server.handler_ns", "ns"}, {"server.handler_self_ns", "ns"}, {"server.handler_allocs", "count"},
	{"obs.overhead_ns", "ns"},
	{"nethttp.roundtrip_ns", "ns"}, {"nethttp.floor_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"host.steal_pct", "%"}, {"loadgen.cpu_us_per_op", "us"},
	{"served.cache_hit_ratio", "ratio"}, {"served.cache_evictions", "count"},
}

func init() {
	for _, s := range scrapedStages {
		layerNames = append(layerNames,
			metricName{"metrics." + s + "_sum_s", "s"},
			metricName{"metrics." + s + "_count", "count"})
	}
}

// runTraced produces the per-layer metrics: a short served run for the
// /metrics and /v1/stats numbers and the run-validity diagnostics, then
// the in-process ladder.
func runTraced(w *workload, cfg e2eConfig) (*e2eResult, error) {
	short := cfg
	short.minSetups, short.setupBudget, short.seconds, short.slices = 1, 0, max(cfg.seconds/2, 1), 1
	e, err := runEndToEnd(w, short)
	if err != nil {
		return nil, err
	}
	got := map[string]float64{}
	for _, m := range e.diag {
		got[m.name] = m.value
	}
	ly, err := newLayers(w, cfg.work, got)
	if err != nil {
		return nil, err
	}
	if err := ly.measure(); err != nil {
		return nil, err
	}
	res := &e2eResult{attempted: e.attempted, failed: e.failed, failures: e.failures}
	for _, n := range layerNames {
		res.metrics = append(res.metrics, metric{n.name, got[n.name], n.unit})
	}
	if p := got["trace.overhead_pct"]; w.name == "probe-uniform" && (p > selfSumTolerancePct || p < -selfSumTolerancePct) {
		res.diag = append(res.diag, metric{"WARN.selfsum_outside_tolerance_pct", p, "%"})
	}
	return res, nil
}

// selfSumTolerancePct is how far the traced handler's span self times may
// sum away from the untraced server.handler_ns before a run is flagged.
const selfSumTolerancePct = 15

// layers holds one workload's in-process replay state.
type layers struct {
	w       *workload
	work    string
	sc      *core.Scheme
	pd      []byte     // Π(D) for an unsharded dataset, set by persistence
	qs      [][][]byte // per replayed op: its encoded queries
	patches []op       // PATCHes for the maintenance rungs
	m       map[string]float64
}

func newLayers(w *workload, work string, m map[string]float64) (*layers, error) {
	sc := server.Catalog()[w.scheme]
	l := &layers{w: w, work: work, sc: sc, m: m}
	n := min(replayOps[w.name], len(w.ops))
	for i := 0; i < n; i++ {
		o := &w.ops[i]
		var q [][]byte
		for k := 0; k < o.pairCount(); k++ {
			u, v := w.pairAt(int(o.pair) + k)
			q = append(q, schemes.NodePairQuery(u, v))
		}
		l.qs = append(l.qs, q)
	}
	l.patches = w.writeLeg
	if len(l.patches) == 0 {
		for _, o := range w.ops {
			if o.kind == opPatch && len(l.patches) < writeLegPatches {
				l.patches = append(l.patches, o)
			}
		}
	}
	return l, nil
}

// dataset builds a fresh served dataset — a warmed store.Store, or a
// ShardedStore over sh — inside an in-memory registry that applies the
// stream's PATCHes.
func (l *layers) dataset(sh *shard.Sharding, wrap func(store.Dataset) (store.Dataset, error)) (store.Dataset, *store.Registry, error) {
	var ds store.Dataset
	if l.w.shards > 1 {
		ss, err := shard.Build(datasetID, l.sc, sh, shard.RangePartitioner{}, l.w.shards, l.w.data)
		if err != nil {
			return nil, nil, err
		}
		ds = ss
	} else {
		st := &store.Store{ID: datasetID, Scheme: l.sc, Prep: append([]byte(nil), l.pd...), DataSum: store.SumData(l.w.data)}
		st.Warm()
		ds = st
	}
	if wrap != nil {
		var err error
		if ds, err = wrap(ds); err != nil {
			return nil, nil, err
		}
	}
	reg := store.NewRegistry("")
	if _, err := reg.RegisterDataset(datasetID, nil, func() (store.Dataset, error) { return ds, nil }); err != nil {
		return nil, nil, err
	}
	return ds, reg, nil
}

// patchDeltas decodes the deltas of a PATCH op's body.
func (l *layers) patchDeltas(o *op) ([][]byte, error) {
	var req server.PatchRequest
	err := json.Unmarshal(l.w.body(o), &req)
	return req.Deltas, err
}

// replay runs fn over the replayed ops in stream order, applying PATCHes
// through reg (untimed), and returns the mean time and allocations per
// request.
func (l *layers) replay(reg *store.Registry, fn func(i int) error) (ns, allocs float64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var total time.Duration
	reqs := 0
	t := time.Now()
	for i := range l.qs {
		o := &l.w.ops[i]
		if o.kind == opPatch {
			total += time.Since(t)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			deltas, err := l.patchDeltas(o)
			if err == nil {
				_, err = reg.ApplyDeltaContext(context.Background(), datasetID, deltas)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("replay PATCH %d: %w", o.patch, err)
			}
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			t = time.Now()
			continue
		}
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		reqs++
	}
	total += time.Since(t)
	runtime.ReadMemStats(&ms)
	return float64(total.Nanoseconds()) / float64(reqs), float64(ms.Mallocs-mallocs) / float64(reqs), nil
}

// answer sends op i's queries to ds as the server would: one Answer, or
// one AnswerBatch with the default parallelism.
func (l *layers) answer(ds store.Dataset, i int) error {
	if l.w.ops[i].kind == opBatch {
		_, err := ds.AnswerBatch(l.qs[i], 0)
		return err
	}
	_, err := ds.Answer(l.qs[i][0])
	return err
}

func (l *layers) measure() error {
	steps := []func() error{l.persistence, l.rawAnswer, l.storeCacheGuard, l.breaker, l.codec, l.handler, l.loopback, l.shards}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// rawAnswer times raw Scheme.Answer over Π(D), the base of the ladder.
func (l *layers) rawAnswer() error {
	sc, pd := l.sc, l.pd
	if pd == nil { // sharded: the same scheme over the whole of D
		var err error
		if pd, err = sc.Preprocess(l.w.data); err != nil {
			return err
		}
	}
	reqs := 0
	deadline := time.Now().Add(time.Second)
	t := time.Now()
	for i := range l.qs {
		if l.w.ops[i].kind == opPatch {
			continue
		}
		for _, q := range l.qs[i] {
			if _, err := sc.Answer(pd, q); err != nil {
				return err
			}
		}
		reqs++
		// BFS per query is slow; a second of it suffices.
		if reqs%64 == 0 && time.Now().After(deadline) {
			break
		}
	}
	l.m["schemes.answer_ns"] = float64(time.Since(t).Nanoseconds()) / float64(reqs)
	return nil
}

// storeCacheGuard measures the answer path below the handler: the store,
// the cache in front of it, and the deadline guard in front of that —
// untraced for time and allocations, then nested-traced for self times.
func (l *layers) storeCacheGuard() error {
	sh := shard.ForScheme(l.w.scheme)
	ds, reg, err := l.dataset(sh, nil)
	if err != nil {
		return err
	}
	ns, storeAllocs, err := l.replay(reg, func(i int) error { return l.answer(ds, i) })
	if err != nil {
		return err
	}
	l.m["store.answer_ns"], l.m["store.answer_allocs"] = ns, storeAllocs

	ds, reg, err = l.dataset(sh, nil)
	if err != nil {
		return err
	}
	c := cache.New(cacheBytes)
	cached := store.NewCachedDataset(ds, c)
	_, cacheAllocs, err := l.replay(reg, func(i int) error { return l.answer(cached, i) })
	if err != nil {
		return err
	}
	// The cache's own allocations: the store is reached only on misses.
	cs := c.Stats()
	missRatio := float64(cs.Misses) / float64(max(cs.Hits+cs.Coalesced+cs.Misses, 1))
	l.m["cache.allocs"] = cacheAllocs - missRatio*storeAllocs

	ds, reg, err = l.dataset(sh, nil)
	if err != nil {
		return err
	}
	cached = store.NewCachedDataset(ds, cache.New(cacheBytes))
	_, guardAllocs, err := l.replay(reg, func(i int) error { return l.within(cached, i, nil) })
	if err != nil {
		return err
	}
	l.m["store.guard_allocs"] = guardAllocs - cacheAllocs

	// Nested spans: guard ⊃ cache ⊃ store.
	tr := newTracer()
	c = cache.New(cacheBytes)
	ds, reg, err = l.dataset(sh, func(d store.Dataset) (store.Dataset, error) { return wrapDataset(d, tr, "store") })
	if err != nil {
		return err
	}
	tc, err := wrapDataset(store.NewCachedDataset(ds, c), tr, "cache")
	if err != nil {
		return err
	}
	if _, _, err := l.replay(reg, func(i int) error { return l.within(tc, i, tr) }); err != nil {
		return err
	}
	st := tr.stats()
	l.m["store.guard_ns"] = perCall(st["guard"], true)
	l.m["cache.cache_miss_ns"] = perCall(st["cache+child"], true)
	l.m["cache.cache_hit_ns"] = perCall(st["cache-child"], true)
	cs = c.Stats()
	l.m["cache.hit_ratio"] = float64(cs.Hits+cs.Coalesced) / float64(max(cs.Hits+cs.Coalesced+cs.Misses, 1))
	l.m["cache.evictions"] = float64(cs.Evictions)
	return nil
}

func perCall(s *spanStats, self bool) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	if self {
		return float64(s.selfSum) / float64(s.count)
	}
	return float64(s.total) / float64(s.count)
}

// within answers op i through the deadline guard with the served budget,
// under a "guard" span when tr is set.
func (l *layers) within(ds store.Dataset, i int, tr *tracer) error {
	if tr != nil {
		s := tr.begin("guard")
		defer tr.end(s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), queryBudget)
	defer cancel()
	if l.w.ops[i].kind == opBatch {
		_, _, err := store.AnswerBatchWithin(ctx, ds, l.qs[i], 0)
		return err
	}
	_, err := store.AnswerWithin(ctx, ds, l.qs[i][0])
	return err
}

// breaker times one Allow + OnSuccess pair on a healthy breaker.
func (l *layers) breaker() error {
	br := store.NewBreaker(store.BreakerConfig{})
	const n = 200000
	t := time.Now()
	for i := 0; i < n; i++ {
		br.OnSuccess(br.Allow().Probe)
	}
	l.m["store.breaker_ns"] = float64(time.Since(t).Nanoseconds()) / n
	return nil
}

// codec times encoding/json on the workload's request and response bodies.
func (l *layers) codec() error {
	var dec, enc time.Duration
	var buf bytes.Buffer
	reqs := 0
	for i := range l.qs {
		o := &l.w.ops[i]
		if o.kind == opPatch {
			continue
		}
		body := l.w.body(o)
		t := time.Now()
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		var err error
		if o.kind == opBatch {
			var req server.BatchRequest
			err = d.Decode(&req)
		} else {
			var req server.QueryRequest
			err = d.Decode(&req)
		}
		dec += time.Since(t)
		if err != nil {
			return err
		}
		buf.Reset()
		t = time.Now()
		if o.kind == opBatch {
			ans := make([]bool, batchSize)
			for k := range ans {
				ans[k] = k%2 == 0
			}
			err = json.NewEncoder(&buf).Encode(server.BatchResponse{Answers: ans})
		} else {
			err = json.NewEncoder(&buf).Encode(server.QueryResponse{Answer: i%2 == 0})
		}
		enc += time.Since(t)
		if err != nil {
			return err
		}
		reqs++
	}
	l.m["server.decode_ns"] = float64(dec.Nanoseconds()) / float64(reqs)
	l.m["server.encode_ns"] = float64(enc.Nanoseconds()) / float64(reqs)
	return nil
}

// newServer builds an in-process server configured like `pitract serve`
// with serveFlags, answering from ds.
func newServer(reg *store.Registry) *server.Server {
	srv := server.New(reg, nil)
	srv.SetAnswerCache(cache.New(cacheBytes))
	srv.SetLimits(server.Limits{QueryBudget: queryBudget})
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})))
	return srv
}

// handlerRun replays the stream through Server.ServeHTTP on a recorder
// and returns the mean handler time and allocations per request. With a
// tracer, each request gets a "handler" span and the dataset is traced.
func (l *layers) handlerRun(tr *tracer) (ns, allocs float64, err error) {
	var wrap func(store.Dataset) (store.Dataset, error)
	if tr != nil {
		wrap = func(d store.Dataset) (store.Dataset, error) { return wrapDataset(d, tr, "store") }
	}
	_, reg, err := l.dataset(shard.ForScheme(l.w.scheme), wrap)
	if err != nil {
		return 0, 0, err
	}
	srv := newServer(reg)
	path := "/v1/query"
	if l.w.ops[0].kind == opBatch {
		path = "/v1/query/batch"
	}
	var total time.Duration
	var mallocs uint64
	reqs := 0
	var ms runtime.MemStats
	const chunk = 1000
	for lo := 0; lo < len(l.qs); lo += chunk {
		hi := min(lo+chunk, len(l.qs))
		type call struct {
			req *http.Request
			rec *httptest.ResponseRecorder
		}
		calls := make([]call, hi-lo)
		for i := lo; i < hi; i++ {
			if o := &l.w.ops[i]; o.kind != opPatch {
				calls[i-lo] = call{httptest.NewRequest("POST", path, bytes.NewReader(l.w.body(o))), httptest.NewRecorder()}
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := lo; i < hi; i++ {
			o := &l.w.ops[i]
			if o.kind == opPatch {
				continue // applied below, outside the allocation count
			}
			c := calls[i-lo]
			var s int
			if tr != nil {
				s = tr.begin("handler")
			}
			t := time.Now()
			srv.ServeHTTP(c.rec, c.req)
			total += time.Since(t)
			if tr != nil {
				tr.end(s)
			}
			if c.rec.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("in-process %s: HTTP %d: %s", path, c.rec.Code, c.rec.Body.Bytes())
			}
			reqs++
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		for i := lo; i < hi; i++ {
			if o := &l.w.ops[i]; o.kind == opPatch {
				deltas, err := l.patchDeltas(o)
				if err == nil {
					_, err = reg.ApplyDeltaContext(context.Background(), datasetID, deltas)
				}
				if err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return float64(total.Nanoseconds()) / float64(reqs), float64(mallocs) / float64(reqs), nil
}

// handler measures the in-process handler untraced with metrics on and
// off, then traced for its self time and the tracing overhead.
func (l *layers) handler() error {
	// A discarded first replay warms the heap and caches. Untraced,
	// traced and metrics-off replays then alternate twice, so slow drift
	// of the host does not bias their differences.
	if _, _, err := l.handlerRun(nil); err != nil {
		return err
	}
	var ns, allocs, off, traced, self float64
	for k := 0; k < 2; k++ {
		n, a, err := l.handlerRun(nil)
		if err != nil {
			return err
		}
		ns, allocs = ns+n/2, allocs+a/2
		tr := newTracer()
		if _, _, err := l.handlerRun(tr); err != nil {
			return err
		}
		st := tr.stats()
		// The span self times of a traced request sum to its traced total.
		traced += perCall(st["handler"], false) / 2
		self += perCall(st["handler"], true) / 2
		obs.SetEnabled(false)
		n, _, err = l.handlerRun(nil)
		obs.SetEnabled(true)
		if err != nil {
			return err
		}
		off += n / 2
	}
	l.m["server.handler_ns"], l.m["server.handler_allocs"] = ns, allocs
	l.m["server.handler_self_ns"] = self
	l.m["obs.overhead_ns"] = ns - off
	l.m["trace.overhead_pct"] = 100 * (traced - ns) / ns
	return nil
}

// loopback times one request at a time over a loopback connection to an
// in-process server, and the same requests to an empty handler.
func (l *layers) loopback() error {
	_, reg, err := l.dataset(shard.ForScheme(l.w.scheme), nil)
	if err != nil {
		return err
	}
	full, err := l.roundTrips(newServer(reg))
	if err != nil {
		return err
	}
	floor, err := l.roundTrips(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	if err != nil {
		return err
	}
	l.m["nethttp.roundtrip_ns"], l.m["nethttp.floor_ns"] = full, floor
	return nil
}

func (l *layers) roundTrips(h http.Handler) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var total time.Duration
	reqs := 0
	for i := range l.qs {
		o := &l.w.ops[i]
		t := time.Now()
		status, body, err := c.roundTrip(l.w.request(o))
		d := time.Since(t)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("loopback op %d: HTTP %d %v %s", i, status, err, body)
		}
		if o.kind != opPatch {
			total += d
			reqs++
		}
	}
	return float64(total.Nanoseconds()) / float64(reqs), nil
}

// persistence registers D through a counting file system into a fresh
// directory (preprocessing and snapshot save), keeping Π(D) for the other
// rungs, then applies the PATCH stream twice: in memory (maintenance
// alone) and on disk with the served checkpoint cadence (delta-log
// appends, bytes and fsyncs).
func (l *layers) persistence() error {
	dir, err := os.MkdirTemp(l.work, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfs := &countingFS{FS: store.OSFS}
	reg := store.NewRegistryMedium(&store.Medium{Dir: dir, FS: cfs, CheckpointEvery: checkpointEvery})
	var pre atomic.Int64
	sc := timedScheme(l.sc, &pre)
	if l.w.shards > 1 {
		_, err = shard.RegisterSharded(reg, datasetID, sc, shard.RangePartitioner{}, l.w.shards, l.w.data)
	} else {
		var st *store.Store
		if st, err = reg.Register(datasetID, sc, l.w.data); err == nil {
			pd, _ := st.View()
			l.pd = append([]byte(nil), pd...)
		}
	}
	if err != nil {
		return err
	}
	l.m["schemes.preprocess_s"] = float64(pre.Load()) / 1e9
	l.m["store.snapshot_save_s"] = float64(cfs.otherNs.Load()+cfs.logNs.Load()) / 1e9
	l.m["store.snapshot_bytes"] = float64(cfs.bytes.Load())
	cfs.bytes.Store(0)
	cfs.syncs.Store(0)
	cfs.logNs.Store(0)

	_, mem, err := l.dataset(shard.ForScheme(l.w.scheme), nil)
	if err != nil {
		return err
	}
	var applyNs int64
	for i := range l.patches {
		deltas, err := l.patchDeltas(&l.patches[i])
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := mem.ApplyDeltaContext(context.Background(), datasetID, deltas); err != nil {
			return err
		}
		applyNs += time.Since(t).Nanoseconds()
		if _, err := reg.ApplyDeltaContext(context.Background(), datasetID, deltas); err != nil {
			return err
		}
	}
	n := float64(len(l.patches))
	l.m["store.patch_apply_us"] = float64(applyNs) / 1e3 / n
	l.m["store.log_append_us"] = float64(cfs.logNs.Load()) / 1e3 / n
	l.m["store.bytes_written_per_patch"] = float64(cfs.bytes.Load()) / n
	l.m["store.syncs_per_patch"] = float64(cfs.syncs.Load()) / n
	return nil
}

// shards measures the sharded answer path through wrapped Merge and probe
// hooks: fan-out and merge sections per answer call, probes per query.
func (l *layers) shards() error {
	if l.w.shards <= 1 {
		return nil
	}
	p := &shardProbe{}
	ds, reg, err := l.dataset(wrapSharding(shard.ForScheme(l.w.scheme), p), nil)
	if err != nil {
		return err
	}
	var fan, merge time.Duration
	calls, queries := 0, 0
	_, allocs, err := l.replay(reg, func(i int) error {
		t := time.Now()
		err := l.answer(ds, i)
		end := time.Now()
		if fm := p.take(); !fm.IsZero() {
			fan += fm.Sub(t)
			merge += end.Sub(fm)
			calls++
		}
		queries += len(l.qs[i])
		return err
	})
	if err != nil {
		return err
	}
	if calls > 0 {
		l.m["shard.shard_fanout_ns"] = float64(fan.Nanoseconds()) / float64(calls)
		l.m["shard.shard_merge_ns"] = float64(merge.Nanoseconds()) / float64(calls)
	}
	l.m["shard.probes_per_query"] = float64(p.probes.Load()) / float64(max(queries, 1))
	l.m["shard.answer_allocs"] = allocs
	return nil
}
