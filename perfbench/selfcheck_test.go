package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestSelfCheck runs every workload at a tiny scale, untraced and
// traced, and checks that each run passes its correctness checks and
// reports exactly the metrics its mode promises, each with its unit.
func TestSelfCheck(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			cfg := config{seed: 3, seconds: 200 * time.Millisecond, trace: traced, scale: tinyScale}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d checks failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", name, traced, metric, got, unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// metrics and units the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(set.listed) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.units))
		}
		for _, m := range set.listed {
			if set.units[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, set.units[m.Name])
			}
		}
	}
}
