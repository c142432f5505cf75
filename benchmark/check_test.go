package main

import (
	"strings"
	"testing"
	"time"
)

// A result that differs from the expected table is a failed operation,
// and one failed operation makes the command exit non-zero.
func TestCorruptedExpectedTableFailsTheRun(t *testing.T) {
	ds := generate(0.001, 1)
	db := newDB(ds, dbConfig{workers: 1})
	queries := []int{6, 14}
	texts, err := statements(queries)
	if err != nil {
		t.Fatal(err)
	}
	run := func(corrupt bool) *runRecord {
		tl := &tally{}
		s := newStream(queries, 1, tl)
		r := sqlRunner(db, texts, 0, false)
		if err := s.learn(r); err != nil {
			t.Fatal(err)
		}
		if corrupt {
			s.want[6] = s.want[14]
		}
		p := s.run(budget{min: 2, max: 2}, r, nil)
		if p.ops != 4 {
			t.Fatalf("%d operations, want 4", p.ops)
		}
		cfg := runConfig{workload: "power"}
		return newRunRecord(cfg, environment{}, tl, endToEndMetrics(p, []float64{1}), endToEnd)
	}
	good := run(false)
	if !good.Correct || good.Failed != 0 || good.Attempted != 4 || good.exitCode() != 0 {
		t.Errorf("clean run: %+v, exit %d", good.result, good.exitCode())
	}
	bad := run(true)
	if bad.Correct || bad.Failed != 2 || bad.Attempted != 4 || bad.exitCode() == 0 {
		t.Errorf("corrupted run: correct=%t failed=%d attempted=%d exit=%d; want false, 2, 4, non-zero",
			bad.Correct, bad.Failed, bad.Attempted, bad.exitCode())
	}
	// Failed operations contribute no latency samples.
	if v := bad.Metrics["throughput_qps"].Value; v <= 0 {
		t.Errorf("throughput %v", v)
	}
}

func TestRunWithNoOperationsIsNotCorrect(t *testing.T) {
	r := newRunRecord(runConfig{}, environment{}, &tally{}, metrics{}, endToEnd)
	if r.Correct || r.exitCode() == 0 {
		t.Error("a run that checked nothing was reported correct")
	}
}

func TestCompareRowsTolerance(t *testing.T) {
	want := [][]any{{"A", int64(3), 1000.0, int32(9)}}
	for _, c := range []struct {
		name string
		got  [][]any
		err  string
	}{
		{"equal", [][]any{{"A", int64(3), 1000.0, int32(9)}}, ""},
		{"sum in another order", [][]any{{"A", int64(3), 1000.0000000001, int32(9)}}, ""},
		{"count as float", [][]any{{"A", 3.0, 1000.0, int32(9)}}, ""},
		{"wrong float", [][]any{{"A", int64(3), 1000.01, int32(9)}}, "column 2"},
		{"wrong int", [][]any{{"A", int64(4), 1000.0, int32(9)}}, "column 1"},
		{"wrong string", [][]any{{"B", int64(3), 1000.0, int32(9)}}, "column 0"},
		{"wrong date", [][]any{{"A", int64(3), 1000.0, int32(8)}}, "column 3"},
		{"missing row", nil, "0 rows"},
		{"missing column", [][]any{{"A", int64(3), 1000.0}}, "3 columns"},
	} {
		err := compareRows(c.got, want)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.err)
		}
	}
}

func TestBudget(t *testing.T) {
	b := budget{d: 10, min: 3}
	if b.done(2, 100) {
		t.Error("stopped below the minimum pass count")
	}
	if !b.done(3, 100) || b.done(3, 5) {
		t.Error("time bound not honoured once the minimum is met")
	}
	if q := (budget{min: 3, max: 3}); !q.done(3, 0) || q.done(2, 1<<40) {
		t.Error("fixed pass count not honoured")
	}
}

func TestPeakRSSIsTheMedianOfWindowPeaks(t *testing.T) {
	p := newPhase()
	// Ten windows over 0..90: window w peaks at 100+w, except one spike.
	for w := 0; w < 10; w++ {
		at := time.Duration(w * 10)
		p.rss = append(p.rss, rssSample{at, 50}, rssSample{at, float64(100 + w)})
	}
	p.rss = append(p.rss, rssSample{35, 900}) // where a GC cycle happened to fall
	// Peaks: 100 101 102 900 104 105 106 107 108 109 -> median 105.5.
	if got := p.peakRSSMB(); got != 105.5 {
		t.Errorf("peak = %v, want 105.5: one spike must not set the number", got)
	}
	if got := newPhase().peakRSSMB(); got != 0 {
		t.Errorf("no samples: %v", got)
	}
	one := newPhase()
	one.rss = []rssSample{{0, 42}}
	if got := one.peakRSSMB(); got != 42 {
		t.Errorf("single sample: %v", got)
	}
}
