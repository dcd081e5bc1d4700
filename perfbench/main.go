// Command perfbench is pitract's serving benchmark. With -trace 0 it
// starts the `pitract serve` binary, registers one dataset, drives
// it over loopback with a closed-loop generator, checks every verdict
// against an oracle, and prints the end-to-end metrics. With -trace 1 it
// replays the same workload in-process up a ladder of public calls and
// prints per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload probe-uniform --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	bin := flag.String("server", "", "path to the pitract binary")
	work := flag.String("work", os.TempDir(), "scratch directory for server data")
	flag.Parse()
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	// No server may outlive the benchmark, whatever ends it.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	const warmup = 1.0
	w, err := makeWorkload(*name, *seed, *seconds, warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := e2eConfig{
		bin: *bin, work: *work, minSetups: 5, setupBudget: 3 * time.Second, warmup: warmup, seconds: *seconds,
		slices: 5,
	}
	// The stream's garbage from encoding goes back to the OS before load.
	debug.FreeOSMemory()
	var out *e2eResult
	if *trace == 0 {
		out, err = runEndToEnd(w, cfg)
	} else {
		out, err = runTraced(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if mb, err := peakRSSMB(os.Getpid()); err == nil {
		out.diag = append(out.diag, metric{"loadgen.rss_peak_mb", mb, "MB"})
	}
	for _, f := range out.failures {
		fmt.Println("FAIL", f)
	}
	for _, m := range append(append([]metric(nil), out.diag...), out.metrics...) {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
