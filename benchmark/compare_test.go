package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "stream_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_qps", better: "higher", bound: 0.10}
	steady := func(center float64) []float64 { // spread 2 % of the median
		return []float64{center * 0.99, center, center * 1.01, center * 0.99, center * 1.01}
	}
	noisy := []float64{80, 100, 120, 90, 115} // spread well over 10 %
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"within bound", lower, steady(100), steady(108), "ok"},
		{"slower beyond bound", lower, steady(100), steady(115), "regressed"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"less throughput", higher, steady(100), steady(85), "regressed"},
		{"more throughput", higher, steady(100), steady(130), "ok"},
		{"noisy base", lower, noisy, steady(100), "unresolved"},
		{"noisy change hides a regression", lower, steady(100), []float64{100, 130, 160, 110, 150}, "unresolved"},
		{"single runs", lower, []float64{100}, []float64{120}, "regressed"},
		{"zero base", lower, []float64{0}, []float64{1}, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := verdict(higher, steady(100), steady(80)); !near(worse, 0.2) {
		t.Errorf("worse = %v, want 0.2 of the base", worse)
	}
}

func record(workload string, trace int, comparable bool, streamMs float64) *runRecord {
	r := &runRecord{Workload: workload, Trace: trace, Comparable: comparable}
	r.Correct, r.Attempted = true, 1
	r.Metrics = map[string]metricValue{"stream_ms": {streamMs, "ms"}}
	return r
}

func TestCompareFilesExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for _, ms := range []float64{100, 101, 99} {
		for path, factor := range map[string]float64{a: 1, b: 1.02, c: 1.5} {
			if err := appendRun(path, record("power", 0, true, ms*factor)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Runs that must not take part: traced, and -quick.
	if err := appendRun(c, record("power", 1, true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := appendRun(c, record("power", 0, false, 1)); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := compareFiles(a, b, &out, &errOut); code != 0 {
		t.Errorf("a vs b: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok") || strings.Contains(out.String(), "regressed") {
		t.Errorf("a vs b output:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(a, c, &out, &errOut); code != 1 {
		t.Errorf("a vs c: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "+50.00%") {
		t.Errorf("a vs c output:\n%s", out.String())
	}
	if code := compareFiles(a, filepath.Join(dir, "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
