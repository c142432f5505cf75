package sql

import (
	"fmt"
	"strings"
	"time"

	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
)

// Report collects the cost-based optimizer's decisions for EXPLAIN: those
// made by Plan. A block with scalar subqueries is lowered by each run, once
// their values are known, and reports nothing.
type Report struct {
	Choices []obs.PlanChoice
}

// maxWindow bounds exhaustive permutation of a reorder window. 6! = 720
// orders, each costed with a handful of float ops; TPC-H never exceeds
// four steps per window.
const maxWindow = 6

// movable reports whether a step can be reordered without changing
// result bytes. Unique-key inner joins preserve spine-row multiplicity
// and order (each probe row matches at most once), so they commute with
// filters and with each other. A non-unique inner join can duplicate
// probe rows, which makes the interleaving order observable: it is a
// barrier.
func movable(s *step) bool {
	if s.kind == stepInner {
		return s.unique
	}
	return true
}

// orderSteps chooses the order in which the spine's pipeline steps run.
// Steps arrive in canonical (statement text) order. The optimizer
// partitions them into windows of byte-order-safe steps delimited by
// barriers, exhaustively enumerates each window's legal permutations,
// and keeps the canonical order unless a permutation is strictly
// cheaper under the hardware cost model. Because every step's
// selectivity is independent of its position, the rows leaving a window
// are the same for every permutation — so optimizing each window in
// isolation minimizes total modeled cost exactly.
//
// Everything here derives from catalog statistics; the worker count
// never enters, so the same statement plans identically at any degree
// of parallelism (and on every cluster node).
func (pl *planner) orderSteps(spine string, steps []step, spineCols []string, spineRows float64) ([]step, float64) {
	// Final cardinality commutes with order: the product of
	// selectivities is the same for any permutation.
	finalRows := spineRows
	for i := range steps {
		finalRows *= steps[i].sel
	}

	if !pl.opt || len(steps) < 2 {
		return steps, finalRows
	}

	avail := make(map[string]bool, len(spineCols))
	for _, c := range spineCols {
		avail[c] = true
	}
	apply := func(s *step, rows float64, cols int) (float64, int) {
		for _, p := range s.provides {
			avail[p] = true
		}
		switch s.kind {
		case stepInner:
			cols += s.buildCols
		case stepProjCmp:
			cols += 2
		}
		return rows * s.sel, cols
	}

	out := make([]step, 0, len(steps))
	rows := spineRows
	cols := len(spineCols)
	for i := 0; i < len(steps); {
		if !movable(&steps[i]) {
			rows, cols = apply(&steps[i], rows, cols)
			out = append(out, steps[i])
			i++
			continue
		}
		j := i
		for j < len(steps) && movable(&steps[j]) {
			j++
		}
		win := steps[i:j]
		chosen := pl.chooseWindowOrder(spine, win, avail, rows, cols)
		for k := range chosen {
			rows, cols = apply(&chosen[k], rows, cols)
		}
		out = append(out, chosen...)
		i = j
	}
	return out, finalRows
}

// chooseWindowOrder picks the cheapest legal permutation of one reorder
// window, keeping the canonical order on ties. avail is read-only here.
func (pl *planner) chooseWindowOrder(spine string, win []step, avail map[string]bool, rows float64, cols int) []step {
	n := len(win)
	if n < 2 || n > maxWindow {
		return win
	}

	legal := func(perm []int) bool {
		added := make([]string, 0, 8)
		defer func() {
			for _, p := range added {
				delete(avail, p)
			}
		}()
		for _, k := range perm {
			for _, need := range win[k].needs {
				if !avail[need] {
					return false
				}
			}
			for _, p := range win[k].provides {
				if !avail[p] {
					avail[p] = true
					added = append(added, p)
				}
			}
		}
		return true
	}

	perms := permutations(n)
	bestPerm := perms[0] // identity: canonical order is legal by construction
	bestCost := pl.windowCost(win, bestPerm, rows, cols)
	canonicalCost := bestCost
	evaluated := 1
	for _, perm := range perms[1:] {
		if !legal(perm) {
			continue
		}
		evaluated++
		if c := pl.windowCost(win, perm, rows, cols); c < bestCost {
			bestCost = c
			bestPerm = perm
		}
	}

	chosen := make([]step, n)
	for i, k := range bestPerm {
		chosen[i] = win[k]
	}
	reordered := false
	for i, k := range bestPerm {
		if i != k {
			reordered = true
			break
		}
	}
	if pl.rep != nil && evaluated >= 2 {
		pl.rep.Choices = append(pl.rep.Choices, obs.PlanChoice{
			Pipeline:      "pipeline over " + spine,
			Canonical:     stepLabels(win, nil),
			Chosen:        stepLabels(win, bestPerm),
			CanonicalCost: canonicalCost,
			ChosenCost:    bestCost,
			Reordered:     reordered,
			Notes:         pl.strategyNotes(chosen, rows),
		})
	}
	return chosen
}

// windowCost prices one permutation of a window with the hardware model,
// simulating the counter profile each step's kernels would charge given
// the planner's cardinality estimates.
func (pl *planner) windowCost(win []step, perm []int, rows float64, cols int) time.Duration {
	var c exec.Counters
	for _, k := range perm {
		s := &win[k]
		switch s.kind {
		case stepInner:
			out := rows * s.sel
			c.HashBuildTuples += int64(s.buildRows)
			c.HashProbeTuples += int64(rows)
			c.RandomAccesses += int64(rows + out*float64(s.buildCols))
			c.SeqBytes += int64(s.buildRows*float64(s.buildCols)*8 + out*float64(cols+s.buildCols)*8)
			rows = out
			cols += s.buildCols
		case stepSemi, stepAnti:
			out := rows * s.sel
			c.HashBuildTuples += int64(s.buildRows)
			c.HashProbeTuples += int64(rows)
			c.RandomAccesses += int64(out)
			c.SeqBytes += int64(out * float64(cols) * 8)
			rows = out
		case stepResidual:
			c.TuplesScanned += int64(rows)
			c.SeqBytes += int64(rows * 16)
			c.IntOps += int64(rows)
			rows *= s.sel
		case stepProjCmp:
			c.SeqBytes += int64(rows * 24)
			c.FloatOps += int64(2 * rows)
			rows *= s.sel
			cols += 2
		}
	}
	return pl.model.OperatorTime(&pl.pi, c, 1)
}

// strategyNotes predicts, per join step of the chosen order, the build
// layout the executor will pick at run time — positional up to a key
// span, else chained — by asking the executor's own bound
// (plan.PositionalMaxSpan) on the planner's estimates, so EXPLAIN can
// show it before running anything. The key span itself is known only
// once the build side has run.
func (pl *planner) strategyNotes(chosen []step, rows float64) []string {
	var notes []string
	for i := range chosen {
		s := &chosen[i]
		switch s.kind {
		case stepInner, stepSemi, stepAnti:
			// The bound follows the estimates, so it sits in parentheses
			// with them, apart from the decisions.
			notes = append(notes, fmt.Sprintf("%s: positional (if keys span ≤ %d), else chained build (build ~%d rows, probe ~%d rows)",
				s.label, plan.PositionalMaxSpan(int(s.buildRows), int(rows)), int64(s.buildRows), int64(rows)))
		}
		rows *= s.sel
	}
	return notes
}

// stepLabels renders a window's step labels in the given order (nil
// means canonical).
func stepLabels(win []step, perm []int) string {
	parts := make([]string, 0, len(win))
	if perm == nil {
		for i := range win {
			parts = append(parts, win[i].label)
		}
	} else {
		for _, k := range perm {
			parts = append(parts, win[k].label)
		}
	}
	return strings.Join(parts, " -> ")
}

// permutations enumerates all orders of [0..n) deterministically, with
// the identity permutation first.
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}
