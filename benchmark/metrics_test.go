package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json is the contract with whoever runs the benchmark; the
// tables in metrics.go are what the program prints. They must agree.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []contractMetric `json:"end_to_end"`
		PerLayer   []contractMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, program has %d", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %s %s %s, program has %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, program has %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd, true)
	same("per_layer", contract.PerLayer, perLayer, false)
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("run_seconds %d", contract.RunSeconds)
	}
}

func TestMetricNamesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q outside the contract's alphabet", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better=%q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := endToEnd[0]
	if setup.name != "setup_s" || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 || d.bound > setup.bound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and at most setup_s's", d.name, d.bound)
		}
	}
	m := metrics{"setup_s": 1, "not.a.metric": 2}.complete(endToEnd)
	if len(m) != len(endToEnd) || m["setup_s"] != 1 || m["stream_ms"] != 0 {
		t.Errorf("complete: %v", m)
	}
	if _, leaked := m["not.a.metric"]; leaked {
		t.Error("complete kept a metric the contract does not name")
	}
}
