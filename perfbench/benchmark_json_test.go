package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONListsWhatTheBenchmarkPrints keeps BENCHMARK.json at the
// repository root in step with the metrics and workloads defined here.
func TestBenchmarkJSONListsWhatTheBenchmarkPrints(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	list := func(ms []metricName) []entry {
		var out []entry
		for _, m := range ms {
			out = append(out, entry{m.name, m.unit})
		}
		return out
	}
	if got, want := doc.EndToEnd, list(endToEndMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, benchmark prints %v", got, want)
	}
	if got, want := doc.PerLayer, list(layerNames); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, benchmark prints %v", got, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, benchmark has %v", names, workloadNames)
	}
}
