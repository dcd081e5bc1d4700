package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// e2eConfig sets one end-to-end run.
type e2eConfig struct {
	bin  string // the pitract binary
	work string // scratch directory for -data dirs
	// Set-ups repeat until both bounds are met; setup_s is their median.
	minSetups   int
	setupBudget time.Duration
	warmup      float64 // seconds of unmeasured load before the window
	seconds     float64 // the measured window
	slices      int     // the window is cut into this many equal slices
}

// connections is the closed loop's concurrency: one request in flight per
// vCPU of the 2-vCPU host the benchmark was defined on.
const connections = 2

// e2eResult holds what an end-to-end run measured.
type e2eResult struct {
	metrics   []metric // the end-to-end metrics, in BENCHMARK.json order
	diag      []metric // run-validity diagnostics and /metrics sums
	attempted int
	failed    int
	failures  []string // the first few failure reasons
}

// metricName is a metric's name and unit as BENCHMARK.json lists them.
type metricName struct{ name, unit string }

// endToEndMetrics fixes the gated end-to-end metrics and their order.
var endToEndMetrics = []metricName{
	{"setup_s", "s"}, {"qps", "1/s"}, {"req_p50_us", "us"},
	{"cpu_us_per_query", "us"}, {"rss_peak_mb", "MB"}, {"disk_bytes_per_input_byte", "ratio"},
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *e2eResult) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// maxSetups caps the set-ups of a workload whose set-up is cheap.
const maxSetups = 21

// scrapedStages are the /metrics stage histograms recorded per run.
var scrapedStages = []string{"admission", "cache_hit", "cache_miss", "shard_fanout", "shard_merge", "log_append", "patch_apply", "preprocess"}

func runEndToEnd(w *workload, cfg e2eConfig) (*e2eResult, error) {
	res := &e2eResult{}
	orc, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	regBody, err := w.registerBody()
	if err != nil {
		return nil, err
	}

	// Set-up: spawn a fresh server on an empty -data dir and register D,
	// several times; the last server carries the load.
	var srv *serverProc
	var setups []float64
	setupStart := time.Now()
	for k := 0; k < cfg.minSetups || (time.Since(setupStart) < cfg.setupBudget && k < maxSetups); k++ {
		if srv != nil {
			srv.stop()
			os.RemoveAll(srv.dir)
		}
		dir, err := os.MkdirTemp(cfg.work, "data-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err = startServer(cfg.bin, dir)
		if err != nil {
			return nil, err
		}
		info, err := srv.register(w, regBody)
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted++
		if err != nil {
			res.fail("set-up %d: %v", k, err)
			srv.kill()
			os.RemoveAll(dir)
			return res, nil
		}
		if info.Loaded || info.Version != 0 || info.Shards != max(w.shards, 1) {
			res.fail("set-up %d: fresh registration reported loaded=%v version=%d shards=%d", k, info.Loaded, info.Version, info.Shards)
		}
	}
	defer func() {
		srv.kill()
		os.RemoveAll(srv.dir)
	}()

	// The timed window: a closed loop, sampled at slice boundaries.
	l, err := startClosedLoop(w, srv.addr, connections)
	if err != nil {
		return nil, err
	}
	time.Sleep(time.Duration(cfg.warmup * float64(time.Second)))
	sliceDur := time.Duration(cfg.seconds / float64(cfg.slices) * float64(time.Second))
	ticks := make([]int64, cfg.slices+1)
	bounds := make([]int64, cfg.slices+1) // ns since the loop started
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	for k := 0; k <= cfg.slices; k++ {
		if k > 0 {
			time.Sleep(time.Until(l.start.Add(time.Duration(bounds[0]) + time.Duration(k)*sliceDur)))
		}
		if ticks[k], err = processCPUTicks(srv.pid()); err != nil {
			return nil, err
		}
		bounds[k] = time.Since(l.start).Nanoseconds()
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	l.halt()

	// Per-slice throughput, latency and server CPU; medians across slices.
	type slice struct {
		verdicts int
		lat      []float64
	}
	sl := make([]slice, cfg.slices)
	var patchLat []float64
	windowOps := 0
	for _, rs := range l.res {
		for i := range rs {
			r := &rs[i]
			o := &w.ops[r.op]
			res.attempted++
			if ok, why := checkResult(w, orc, o, r); !ok {
				res.fail("op %d: %s", r.op, why)
				continue
			}
			if r.end < bounds[0] || r.end >= bounds[cfg.slices] {
				continue
			}
			windowOps++
			if o.kind == opPatch {
				patchLat = append(patchLat, float64(r.lat)/1e3)
				continue
			}
			k := 0
			for k+1 < cfg.slices && r.end >= bounds[k+1] {
				k++
			}
			sl[k].verdicts += o.pairCount()
			sl[k].lat = append(sl[k].lat, float64(r.lat)/1e3)
		}
	}
	var qps, p50, p99, cpu []float64
	for k := range sl {
		secs := float64(bounds[k+1]-bounds[k]) / 1e9
		s := sortedCopy(sl[k].lat)
		qps = append(qps, float64(sl[k].verdicts)/secs)
		p50 = append(p50, percentile(s, 50))
		p99 = append(p99, percentile(s, 99))
		if sl[k].verdicts > 0 {
			cpu = append(cpu, float64(ticks[k+1]-ticks[k])*1e6/clockTicksPerSecond/float64(sl[k].verdicts))
		}
	}
	minReqs := len(sl[0].lat)
	for _, s := range sl {
		minReqs = min(minReqs, len(s.lat))
	}

	// End-of-window state: peak memory, disk, cache and stage counters.
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(srv.dir)
	if err != nil {
		return nil, err
	}
	res.diag = append(res.diag,
		metric{"host.steal_pct", stealPct(host0, host1), "%"},
		metric{"loadgen.cpu_us_per_op", cpuMicros(ru0, ru1) / float64(max(windowOps, 1)), "us"},
		metric{"loadgen.requests_per_slice_min", float64(minReqs), "count"},
		metric{"loadgen.window_ops", float64(windowOps), "count"},
		metric{"loadgen.stream_passes", float64(l.passes()), "count"},
	)
	stats, err := scrapeStats(srv)
	if err != nil {
		return nil, err
	}
	res.diag = append(res.diag, stats...)
	stages, err := scrapeStages(srv)
	if err != nil {
		return nil, err
	}
	res.diag = append(res.diag, stages...)

	// The read-write workload has no write leg; its PATCHes ran in the
	// window, and it gets the durability leg instead.
	if len(w.writeLeg) == 0 {
		durabilityLeg(w, orc, srv, regBody, uint64(l.acked.Load()), res)
	} else {
		patchLat = writeLeg(w, srv, res)
	}
	// Tail latency and PATCH latency are printed beside the metrics but not
	// gated: on a shared host they move with CPU steal and fsync latency by
	// more than any bound the metrics can carry (see README.md).
	sp := sortedCopy(patchLat)
	res.diag = append(res.diag,
		metric{"req_p99_us", median(p99), "us"},
		metric{"patch_p50_us", percentile(sp, 50), "us"},
		metric{"patch_p90_us", percentile(sp, 90), "us"},
		metric{"patch.samples", float64(len(sp)), "count"},
		metric{"patch.highest_percentile", highestPercentile(len(sp)), "pct"},
		metric{"failed_frac", float64(res.failed) / float64(max(res.attempted, 1)), "ratio"},
	)
	vals := map[string]float64{
		"setup_s":                   median(setups),
		"qps":                       median(qps),
		"req_p50_us":                median(p50),
		"cpu_us_per_query":          median(cpu),
		"rss_peak_mb":               rss,
		"disk_bytes_per_input_byte": float64(disk) / float64(len(w.data)),
	}
	for _, m := range endToEndMetrics {
		res.metrics = append(res.metrics, metric{m.name, vals[m.name], m.unit})
	}
	return res, nil
}

// checkResult validates one completed op: HTTP 200 and, for queries,
// verdicts equal to the oracle at an admissible version.
func checkResult(w *workload, orc *oracle, o *op, r *result) (bool, string) {
	switch {
	case r.transErr:
		return false, "transport error"
	case r.status == 0:
		return false, "unparseable response"
	case r.status != 200:
		return false, fmt.Sprintf("HTTP %d", r.status)
	}
	if o.kind == opPatch {
		if r.version != uint64(r.patch) {
			return false, fmt.Sprintf("PATCH %d acknowledged version %d", r.patch, r.version)
		}
		return true, ""
	}
	return orc.check(w, int(o.pair), o.pairCount(), queryVerdict{
		ans: r.ans, version: r.version, ackedAtSend: uint64(r.acked), sentAtEnd: uint64(r.sent),
	})
}

// writeLeg sends the read-only workload's PATCHes one at a time after the
// window and returns their latencies in microseconds.
func writeLeg(w *workload, srv *serverProc, res *e2eResult) []float64 {
	c, err := dial(srv.addr)
	if err != nil {
		res.attempted++
		res.fail("write leg: %v", err)
		return nil
	}
	defer c.Close()
	var lat []float64
	for i := range w.writeLeg {
		o := &w.writeLeg[i]
		res.attempted++
		t0 := time.Now()
		status, body, err := c.roundTrip(w.request(o))
		d := time.Since(t0)
		if err != nil {
			res.fail("write leg PATCH %d: %v", o.patch, err)
			return lat
		}
		if v, _ := jsonUint(body, "version"); status != 200 || v != uint64(o.patch) {
			res.fail("write leg PATCH %d: HTTP %d version %d", o.patch, status, v)
			continue
		}
		lat = append(lat, float64(d.Nanoseconds())/1e3)
	}
	return lat
}

// durabilitySample is how many pairs the durability leg re-checks.
const durabilitySample = 256

// durabilityLeg kills the server with SIGKILL, restarts it on the same
// -data dir, re-registers the same bytes and checks that the dataset was
// loaded at the last acknowledged version with oracle-equal verdicts.
func durabilityLeg(w *workload, orc *oracle, srv *serverProc, regBody []byte, acked uint64, res *e2eResult) {
	srv.kill()
	res.attempted++
	re, err := startServer(srv.bin(), srv.dir)
	if err != nil {
		res.fail("durability: restart: %v", err)
		return
	}
	defer re.kill()
	info, err := re.register(w, regBody)
	if err != nil {
		res.fail("durability: re-register: %v", err)
		return
	}
	if !info.Loaded || info.Version != acked {
		res.fail("durability: re-register reported loaded=%v version=%d, want loaded=true version=%d", info.Loaded, info.Version, acked)
		return
	}
	c, err := dial(re.addr)
	if err != nil {
		res.fail("durability: %v", err)
		return
	}
	defer c.Close()
	for i := 0; i < durabilitySample && i < len(w.ops); i++ {
		o := &w.ops[i]
		if o.kind != opQuery {
			continue
		}
		res.attempted++
		status, body, err := c.roundTrip(w.request(o))
		if err != nil || status != 200 {
			res.fail("durability: query %d: HTTP %d %v", i, status, err)
			continue
		}
		bits, ver, ok := parseAnswers(body, 1)
		u, v := w.pairAt(int(o.pair))
		if !ok || ver != acked || (bits == 1) != orc.reach(u, v, acked) {
			res.fail("durability: query %d: answer %q, oracle at version %d says %v", i, body, acked, orc.reach(u, v, acked))
		}
	}
}

func (p *serverProc) bin() string { return p.cmd.Path }

// cpuMicros is the user+system CPU between two rusage samples, in µs.
func cpuMicros(a, b syscall.Rusage) float64 {
	us := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return us(b.Utime) - us(a.Utime) + us(b.Stime) - us(a.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// scrapeStats reads the cache block of /v1/stats.
func scrapeStats(srv *serverProc) ([]metric, error) {
	status, b, err := srv.do("GET", "/v1/stats", nil)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /v1/stats: HTTP %d %v", status, err)
	}
	var st struct {
		Cache struct {
			Hits, Misses, Coalesced, Evictions int64
		} `json:"cache"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	c := st.Cache
	return []metric{
		{"served.cache_hit_ratio", float64(c.Hits+c.Coalesced) / float64(max(c.Hits+c.Coalesced+c.Misses, 1)), "ratio"},
		{"served.cache_evictions", float64(c.Evictions), "count"},
	}, nil
}

// scrapeStages reads the sum and count of each scraped stage histogram
// from /metrics.
func scrapeStages(srv *serverProc) ([]metric, error) {
	status, b, err := srv.do("GET", "/metrics", nil)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /metrics: HTTP %d %v", status, err)
	}
	sums, counts := parseStageMetrics(b)
	var out []metric
	for _, s := range scrapedStages {
		out = append(out,
			metric{"metrics." + s + "_sum_s", sums[s], "s"},
			metric{"metrics." + s + "_count", counts[s], "count"})
	}
	return out, nil
}

// parseStageMetrics extracts pitract_stage_duration_seconds_{sum,count}
// per stage label from a Prometheus text exposition.
func parseStageMetrics(b []byte) (sums, counts map[string]float64) {
	sums, counts = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		var into map[string]float64
		var rest string
		if r, ok := strings.CutPrefix(line, `pitract_stage_duration_seconds_sum{stage="`); ok {
			into, rest = sums, r
		} else if r, ok := strings.CutPrefix(line, `pitract_stage_duration_seconds_count{stage="`); ok {
			into, rest = counts, r
		} else {
			continue
		}
		stage, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			into[stage] = v
		}
	}
	return sums, counts
}
