package exec

import (
	"strings"

	"wimpi/internal/colstore"
)

// LikeMatcher is a SQL LIKE pattern compiled once: the pattern split on
// its '%' wildcards (any run, including empty) into segments, in which
// '_' matches any single byte. That covers every pattern in TPC-H (e.g.
// '%special%requests%', 'PROMO%', 'MED%').
type LikeMatcher struct {
	segs []string
	wild bool // some segment holds a '_'
}

// CompileLike compiles a LIKE pattern.
func CompileLike(pattern string) LikeMatcher {
	return LikeMatcher{segs: strings.Split(pattern, "%"), wild: strings.IndexByte(pattern, '_') >= 0}
}

// Match reports whether s matches: the first and last segments anchored
// at the ends of s, each middle one at its leftmost fit in between (which
// leaves the most room for the rest, so no other fit needs trying).
//
//lint:allow pathcost -- per-value helper; LikeMask charges per dictionary entry
func (m LikeMatcher) Match(s string) bool {
	first, last := m.segs[0], m.segs[len(m.segs)-1]
	if len(m.segs) == 1 {
		return len(s) == len(first) && m.at(s, first)
	}
	if len(s) < len(first)+len(last) || !m.at(s, first) || !m.at(s[len(s)-len(last):], last) {
		return false
	}
	s = s[len(first) : len(s)-len(last)]
	for _, seg := range m.segs[1 : len(m.segs)-1] {
		i := m.index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return true
}

// at reports whether seg matches the start of s, which holds at least
// len(seg) bytes.
func (m LikeMatcher) at(s, seg string) bool {
	if !m.wild {
		return s[:len(seg)] == seg
	}
	for i := 0; i < len(seg); i++ {
		if seg[i] != '_' && seg[i] != s[i] {
			return false
		}
	}
	return true
}

// index returns the leftmost offset of s where seg matches, or -1.
func (m LikeMatcher) index(s, seg string) int {
	if !m.wild {
		return strings.Index(s, seg)
	}
	for i := 0; i+len(seg) <= len(s); i++ {
		if m.at(s[i:], seg) {
			return i
		}
	}
	return -1
}

// EqMask returns a code mask matching exactly s. If s is not in the
// dictionary the mask is all-false.
func EqMask(d *colstore.Dict, s string) []bool {
	mask := make([]bool, d.Len())
	if c, ok := d.Lookup(s); ok {
		mask[c] = true
	}
	return mask
}

// NeMask returns a code mask matching every value except s. The kernel
// charges one flag write per dictionary entry.
func NeMask(d *colstore.Dict, s string, ctr *Counters) []bool {
	ctr.IntOps += int64(d.Len())
	mask := make([]bool, d.Len())
	for i := range mask {
		mask[i] = true
	}
	if c, ok := d.Lookup(s); ok {
		mask[c] = false
	}
	return mask
}

// InMask returns a code mask matching any of vals, charging one probe
// per candidate value.
func InMask(d *colstore.Dict, ctr *Counters, vals ...string) []bool {
	ctr.RandomAccesses += int64(len(vals))
	mask := make([]bool, d.Len())
	for _, v := range vals {
		if c, ok := d.Lookup(v); ok {
			mask[c] = true
		}
	}
	return mask
}

// LikeMask returns a code mask matching the LIKE pattern. The predicate
// is evaluated once per distinct value; the kernel charges one string
// operation per dictionary entry.
func LikeMask(d *colstore.Dict, pattern string, ctr *Counters) []bool {
	ctr.IntOps += int64(d.Len()) * 8 // rough per-string matching cost
	return d.MatchMask(CompileLike(pattern).Match)
}

// NotLikeMask returns the complement of LikeMask.
func NotLikeMask(d *colstore.Dict, pattern string, ctr *Counters) []bool {
	mask := LikeMask(d, pattern, ctr)
	for i := range mask {
		mask[i] = !mask[i]
	}
	return mask
}
