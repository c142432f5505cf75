package main

import "testing"

func draw(seed uint64, client, n int) []request {
	next := requestSource(seed, client)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestRequestSequencesFollowTheSeed(t *testing.T) {
	const n = 500
	a, b := draw(7, 0, n), draw(7, 0, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverge at request %d: %v vs %v", i, a[i], b[i])
		}
	}
	differs := func(x, y []request) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, draw(8, 0, n)) {
		t.Error("seeds 7 and 8 give the same sequence")
	}
	if !differs(a, draw(7, 1, n)) {
		t.Error("clients 0 and 1 give the same sequence")
	}
	inMix := map[int]bool{}
	for _, q := range serveQueries {
		inMix[q] = true
	}
	hot := 0
	for _, r := range a {
		if !inMix[r.query] || r.variant < 0 || r.variant >= serveVariants {
			t.Fatalf("request %v outside the mix", r)
		}
		if r.variant == 0 {
			hot++
		}
	}
	// Zipf(1.1) over 16 variants puts about 37 % of draws on the hottest.
	if hot < n/4 || hot > n/2 {
		t.Errorf("hottest variant drawn %d of %d times; the skew is gone", hot, n)
	}
}
