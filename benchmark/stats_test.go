package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	// p95 of 200 samples is rank 190: exactly 10 lie beyond.
	if v, ok := percentile(seq(200), 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	// One sample fewer leaves 9 beyond: not reported.
	if v, ok := percentile(seq(199), 95); ok || v != 0 {
		t.Errorf("p95 of 1..199 = %v, %v; want 0, false", v, ok)
	}
	if _, ok := percentile(seq(20), 50); !ok {
		t.Error("p50 of 20 samples has 10 beyond and must be reported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{4, 0, 9}); !near(got, 6) {
		t.Errorf("geomean skipping 0 = %v, want 6", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := spearman(a, []float64{10, 20, 30, 40, 50}); !near(got, 1) {
		t.Errorf("monotone increasing: %v", got)
	}
	if got := spearman(a, []float64{5, 4, 3, 2, 1}); !near(got, -1) {
		t.Errorf("monotone decreasing: %v", got)
	}
	// Only ranks matter, not distances.
	if got := spearman(a, []float64{1, 2, 3, 4, 1e9}); !near(got, 1) {
		t.Errorf("outlier changed the rank correlation: %v", got)
	}
	// Ties share their average rank: ranks of b are 1.5, 1.5, 3.
	if got := spearman([]float64{1, 2, 3}, []float64{7, 7, 9}); !near(got, math.Sqrt(3)/2) {
		t.Errorf("ties: %v, want %v", got, math.Sqrt(3)/2)
	}
	if got := spearman(a, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant side: %v, want 0", got)
	}
}

// The acceptance check uses Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3, _ = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if s, ok := spread(xs); !ok || !near(s, 1) {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5", s)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
}
