package exec_test

import (
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/tpch"
)

// likeReference is the backtracking LIKE matcher: two pointers, falling
// back to the last '%' on a mismatch. It is the oracle the compiled
// matcher is checked against. A '%' in the pattern is a wildcard even
// where the value holds a '%' too.
func likeReference(s, p string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// likeCases are fixed (value, pattern) pairs: the degenerate patterns,
// a prefix and a suffix that would overlap in a short value, repeated
// segments, and '_' inside and at the edges of segments.
var likeCases = [][2]string{
	{"a", ""}, {"", ""}, {"", "%"}, {"a", "%"}, {"a", "%%"}, {"", "%%"},
	{"a", "a%"}, {"a", "%a"}, {"a", "a%a"}, {"aa", "a%a"}, {"aba", "a%a"},
	{"abab", "%ab%ab%"}, {"ab", "%ab%ab%"}, {"aab", "%a%ab"}, {"abcabc", "%abc%abc"},
	{"abc", "_b_"}, {"abc", "%_c"}, {"abc", "a_%"}, {"abc", "%b_%"}, {"ab", "%b_%"},
	{"xaxbx", "%a_b%"}, {"xaxxb", "%a_b%"}, {"special requests", "%special%requests%"},
	{"requests special", "%special%requests%"}, {"ab", "_%_"}, {"a", "_%_"},
	{"%0a", "%"}, {"a%b", "a%"}, {"%", "%%"}, {"_", "_"},
}

func FuzzLike(f *testing.F) {
	for _, c := range likeCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		if got, want := exec.CompileLike(p).Match(s), likeReference(s, p); got != want {
			t.Fatalf("CompileLike(%q).Match(%q) = %v, want %v", p, s, got, want)
		}
	})
}

// TestLikeTPCHPatterns runs the TPC-H LIKE patterns — the defaults and
// other substitution values — over the SF 0.01 dictionaries they read.
func TestLikeTPCHPatterns(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	for _, c := range []struct {
		table, col string
		patterns   []string
	}{
		{"part", "p_type", []string{"%BRASS", "%TIN", "PROMO%", "MEDIUM POLISHED%", "%_ANODIZED_%"}},
		{"part", "p_name", []string{"%green%", "%forest%", "forest%", "%_ed%re_%"}},
		{"orders", "o_comment", []string{"%special%requests%", "%express%deposits%", "%unusual%packages%", "%pending%accounts%"}},
		{"supplier", "s_comment", []string{"%Customer%Complaints%", "%Customer%Recommends%", "%ly%the%"}},
		{"customer", "c_phone", []string{"13%", "31%", "2_-%", "%-___-%"}},
	} {
		d := data.Tables[c.table].MustCol(c.col).(*colstore.Strings).Dict
		for _, p := range c.patterns {
			m := exec.CompileLike(p)
			for code := 0; code < d.Len(); code++ {
				s := d.Value(int32(code))
				if got, want := m.Match(s), likeReference(s, p); got != want {
					t.Fatalf("%s LIKE %q on %q = %v, want %v", c.col, p, s, got, want)
				}
			}
		}
	}
}
