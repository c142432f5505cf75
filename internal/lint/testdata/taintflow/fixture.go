// Package fixture holds flows from nondeterminism sources to
// result-producing sinks, plus sanitized and allowlisted negatives, for
// the taintflow analyzer.
package fixture

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// MapOrderLeak returns keys in map iteration order.
func MapOrderLeak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want "tainted by map iteration order"
}

// SortedKeys is the sanitizing idiom: the sort re-establishes a
// deterministic sequence, so no directive is needed.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LoadedStmtIDs reproduces the LoadSQLContext bug this analyzer exists
// to catch: statement IDs collected in map order and handed to the
// caller unsorted, so every node registers them in a different order.
func LoadedStmtIDs(stmts map[string]string) []string {
	ids := make([]string, 0, len(stmts))
	for id := range stmts {
		ids = append(ids, id)
	}
	return ids // want "tainted by map iteration order"
}

// SumValues folds map values with a commutative integer sum: iteration
// order cannot change the result.
func SumValues(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}

// Invert writes into another map: the same entries land on every run,
// so insertion order is invisible.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// ScatterFromMap writes map-ordered values into a caller-owned buffer:
// a result-buffer sink, same as returning them.
func ScatterFromMap(m map[int]int64, out []int64) {
	i := 0
	for _, v := range m {
		out[i] = v // want "tainted by map iteration order"
		i++
	}
}

// WallClockResult returns elapsed wall time as a result.
func WallClockResult() int64 {
	t := time.Now().UnixNano()
	return t // want "tainted by the wall clock"
}

// MeasuredWallClock is timing telemetry, allowed at the source.
func MeasuredWallClock() int64 {
	//lint:allow taintflow -- fixture: measured timing, reported not computed with
	t := time.Now().UnixNano()
	return t
}

// RandResult launders a global-source draw through a local.
func RandResult() int {
	v := rand.Intn(100)
	return v // want "tainted by the global math/rand source"
}

// SeededRand uses a locally seeded generator: reproducible by
// construction.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}

// WallClock returns a wall-clock read directly.
func WallClock() int64 {
	return time.Now().UnixNano() // want "tainted by the wall clock"
}

// MeasuredSection is allowed as a whole by its doc comment.
//
//lint:allow taintflow -- fixture: measured wall-clock section
func MeasuredSection() time.Time {
	return time.Now()
}

// GlobalRand returns a global-source draw directly.
func GlobalRand() int {
	return rand.Intn(10) // want "tainted by the global math/rand source"
}

// GlobalShuffle returns nothing, yet v's order differs on every run.
func GlobalShuffle(v []int) {
	rand.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] }) // want "shared unseeded source"
}

// MissingReason exercises the mandatory-reason rule.
func MissingReason() int {
	//lint:allow taintflow // want "missing its mandatory"
	return 0
}

// CmpFloatNaive calls NaN "equal" to everything: not a total order.
func CmpFloatNaive(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0 // want "float comparator returns 0 without a math.IsNaN check"
	}
}

// CmpFloatLitNaive triggers inside a function literal too.
var CmpFloatLitNaive = func(a, b float32) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0 // want "float comparator returns 0 without a math.IsNaN check"
}

// CmpFloatTotal orders NaN explicitly, after everything else.
func CmpFloatTotal(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CmpIntTies is an integer comparator: ties are exact, no finding.
func CmpIntTies(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// FloatBuckets takes a float but returns a count, not an ordering.
func FloatBuckets(x float64) (n int, ok bool) {
	if x > 0 {
		return 1, true
	}
	return 0, false
}
