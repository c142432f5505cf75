// Package fixture holds kernels that never charge their Counters (or
// have none to charge), kernels whose early-exit paths skip their
// charge, plus fully charged, forwarded, and allowlisted negatives, for
// the pathcost analyzer.
package fixture

import (
	"errors"

	"wimpi/internal/exec"
)

var errNegative = errors.New("negative value")

// EarlyExitUncharged bails out mid-scan without charging the rows it
// already compared.
func EarlyExitUncharged(v []int64, ctr *exec.Counters) (int64, error) {
	var sum int64
	for i := range v {
		x := v[i]
		if x < 0 {
			return 0, errNegative // want "returns here after touching column data without charging"
		}
		sum += x
	}
	ctr.IntOps += int64(len(v))
	return sum, nil
}

// EarlyExitCharged charges the partial scan before bailing: every path
// settles.
func EarlyExitCharged(v []int64, ctr *exec.Counters) (int64, error) {
	var sum int64
	for i := range v {
		x := v[i]
		if x < 0 {
			ctr.IntOps += int64(i + 1)
			return 0, errNegative
		}
		sum += x
	}
	ctr.IntOps += int64(len(v))
	return sum, nil
}

// PrevalidateUncharged returns before any data work: the length check
// is free, so the early return is clean.
func PrevalidateUncharged(a, b []int64, ctr *exec.Counters) (int64, error) {
	if len(a) != len(b) {
		return 0, errNegative
	}
	var sum int64
	for i := range a {
		sum += a[i] * b[i]
	}
	ctr.IntOps += int64(len(a))
	return sum, nil
}

// ScanAndMaybeCharge does work on every path but charges on only one:
// the uncharged path falls off the end of the body.
func ScanAndMaybeCharge(v []int64, ctr *exec.Counters, charge bool) {
	var sum int64
	for i := range v {
		sum += v[i]
	}
	if charge {
		ctr.IntOps += sum
	}
} // want "falls off the end after touching column data without charging"

// FreeProbe intentionally reports no cost; the directive documents why.
//
//lint:allow pathcost -- fixture: speculative probe whose cost is charged by the caller
func FreeProbe(v []int64, ctr *exec.Counters) int64 {
	var s int64
	for i := range v {
		s += v[i]
	}
	if s > 0 {
		return s
	}
	ctr.IntOps += int64(len(v))
	return s
}

// unexportedScan is internal plumbing, outside the analyzer's scope.
func unexportedScan(v []int64, ctr *exec.Counters) int64 {
	var s int64
	for i := range v {
		s += v[i]
	}
	_ = ctr
	return s
}

// Uncharged loops over data with no counters anywhere in scope.
func Uncharged(vals []int64) int64 { // want "loops over data but has no *exec.Counters"
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// Ignored accepts counters and silently drops them.
func Ignored(vals []int64, ctr *exec.Counters) int64 { // want "never charges or forwards it"
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// Charged is the happy path: the loop's work is recorded.
func Charged(vals []int64, ctr *exec.Counters) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	ctr.SeqBytes += int64(len(vals)) * 8
	ctr.IntOps += int64(len(vals))
	return s
}

// Forwarded passes its counters to a charging callee.
func Forwarded(blocks [][]int64, ctr *exec.Counters) int64 {
	var s int64
	for _, b := range blocks {
		s += Charged(b, ctr)
	}
	return s
}

// MorselLoop charges through the per-morsel callback counters.
func MorselLoop(vals []int64, workers int, ctr *exec.Counters) error {
	return exec.RunMorsels(workers, len(vals), 0, ctr, func(m, lo, hi int, c *exec.Counters) error {
		for i := lo; i < hi; i++ {
			c.IntOps++
		}
		return nil
	})
}

// PerElement is a per-element helper whose callers charge in bulk.
//
//lint:allow pathcost -- fixture: per-element helper, callers charge per batch
func PerElement(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// Metadata has no loop: summing two fields is not kernel work.
func Metadata(ctr *exec.Counters) int64 {
	return ctr.SeqBytes + ctr.BytesMaterialized
}

// Scratch is a loop-bearing stringer stand-in.
type Scratch struct{ V []int64 }

// String is exempt as fmt.Stringer, without any directive.
func (s Scratch) String() string {
	out := ""
	for range s.V {
		out += "."
	}
	return out
}

// Radix partition passes, table builds and probe loops, uncharged and
// charged.

// PartitionUncharged never records its histogram+scatter traffic.
func PartitionUncharged(keys []int64, bits uint) []int64 { // want "loops over data but has no *exec.Counters"
	np := 1 << bits
	hist := make([]int64, np)
	for _, k := range keys {
		hist[int(uint64(k)>>(64-bits))]++
	}
	out := make([]int64, len(keys))
	off := make([]int64, np)
	for i := 1; i < np; i++ {
		off[i] = off[i-1] + hist[i-1]
	}
	for _, k := range keys {
		p := int(uint64(k) >> (64 - bits))
		out[off[p]] = k
		off[p]++
	}
	return out
}

// PartitionCharged records the scatter and the partition footprint.
func PartitionCharged(keys []int64, bits uint, ctr *exec.Counters) []int64 {
	np := 1 << bits
	hist := make([]int64, np)
	for _, k := range keys {
		hist[int(uint64(k)>>(64-bits))]++
	}
	out := make([]int64, len(keys))
	off := make([]int64, np)
	var maxPart int64
	for i := 1; i < np; i++ {
		off[i] = off[i-1] + hist[i-1]
		if hist[i] > maxPart {
			maxPart = hist[i]
		}
	}
	for _, k := range keys {
		p := int(uint64(k) >> (64 - bits))
		out[off[p]] = k
		off[p]++
	}
	ctr.PartitionBytes += int64(len(keys)) * 8
	ctr.ObservePartitionBytes(maxPart * 8)
	return out
}

// BuildIgnored is a table build that accepts counters but drops them.
func BuildIgnored(keys []int64, ctr *exec.Counters) map[int64]int32 { // want "never charges or forwards it"
	m := make(map[int64]int32, len(keys))
	for i, k := range keys {
		m[k] = int32(i)
	}
	return m
}

// ProbeCharged charges each lookup at LLC latency.
func ProbeCharged(table map[int64]int32, probe []int64, ctr *exec.Counters) []int32 {
	out := make([]int32, 0, len(probe))
	for _, k := range probe {
		if v, ok := table[k]; ok {
			out = append(out, v)
		}
	}
	ctr.HashProbeTuples += int64(len(probe))
	ctr.CacheRandomAccesses += int64(len(probe))
	return out
}

// unexportedHelper is out of the invariant's scope.
func unexportedHelper(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// Closure-composed row kernels and selection-vector remaps, uncharged
// and charged.

// FusedKernelUncharged composes stage closures without counters.
func FusedKernelUncharged(stages []func(int) bool, rows int) int { // want "loops over data but has no *exec.Counters"
	kernel := func(int) bool { return true }
	for i := len(stages) - 1; i >= 0; i-- {
		st, next := stages[i], kernel
		kernel = func(r int) bool { return st(r) && next(r) }
	}
	n := 0
	for r := 0; r < rows; r++ {
		if kernel(r) {
			n++
		}
	}
	return n
}

// FusedKernelCharged charges inside each stage closure. With no stages
// the kernel is the identity closure and the row loop runs for free:
// a real uncharged path.
func FusedKernelCharged(stages []func(int) bool, rows int, ctr *exec.Counters) int {
	kernel := func(int) bool { return true }
	for i := len(stages) - 1; i >= 0; i-- {
		st, next := stages[i], kernel
		kernel = func(r int) bool {
			ctr.IntOps++
			return st(r) && next(r)
		}
	}
	n := 0
	for r := 0; r < rows; r++ {
		if kernel(r) {
			n++
		}
	}
	return n // want "returns here after touching column data without charging"
}

// SelectionRemapIgnored narrows a selection vector but drops counters.
func SelectionRemapIgnored(sel, keep []int32, ctr *exec.Counters) []int32 { // want "never charges or forwards it"
	out := make([]int32, len(keep))
	for i, p := range keep {
		out[i] = sel[p]
	}
	return out
}

// SelectionRemapCharged records the remap's sequential traffic.
func SelectionRemapCharged(sel, keep []int32, ctr *exec.Counters) []int32 {
	out := make([]int32, len(keep))
	for i, p := range keep {
		out[i] = sel[p]
	}
	ctr.SeqBytes += int64(len(keep)) * 4
	ctr.IntOps += int64(len(keep))
	return out
}

// EstimateSelectivityUncharged samples a column for the cost-based
// optimizer without charging: a free optimizer would make planning on
// the wimpy nodes look costless.
func EstimateSelectivityUncharged(col []int64, pred func(int64) bool) float64 { // want "loops over data but has no *exec.Counters"
	rows := len(col)
	if rows == 0 {
		return 1
	}
	k := rows
	if k > 1024 {
		k = 1024
	}
	hits := 0
	for i := 0; i < k; i++ {
		if pred(col[i*rows/k]) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// EstimateSelectivityCharged charges the stride arithmetic, the sampled
// rows' random accesses and their bytes.
func EstimateSelectivityCharged(col []int64, pred func(int64) bool, ctr *exec.Counters) float64 {
	rows := len(col)
	if rows == 0 {
		return 1
	}
	k := rows
	if k > 1024 {
		k = 1024
	}
	hits := 0
	for i := 0; i < k; i++ {
		if pred(col[i*rows/k]) {
			hits++
		}
		ctr.IntOps++
	}
	ctr.RandomAccesses += int64(k)
	ctr.SeqBytes += int64(k) * 8
	return float64(hits) / float64(k)
}
