package obs

import (
	"fmt"
	"strings"
	"time"

	"wimpi/internal/exec"
)

// ExplainOptions parameterize the EXPLAIN ANALYZE rendering of a span
// tree.
type ExplainOptions struct {
	// Sim computes the simulated columns (hardware.Sim does, for one
	// profile); nil omits them entirely.
	Sim Simulator
	// MaskWall replaces measured wall-clock fields with a fixed
	// placeholder so renderings are byte-stable for golden tests.
	MaskWall bool
}

// Simulator prices recorded work on one hardware profile.
type Simulator interface {
	// Name names the profile.
	Name() string
	// OperatorTime is the simulated time of the work in c, without the
	// per-query overhead, and the resource that bounds it.
	OperatorTime(c exec.Counters) (time.Duration, string)
	// OverheadSeconds is the fixed time the profile adds to every query.
	OverheadSeconds() float64
}

const wallMask = "   <wall>  <pct>"

// ExplainAnalyze renders a span tree as an EXPLAIN ANALYZE table: one
// row per operator with output rows, self wall time and share, and —
// when a profile is given — self simulated time on that hardware, its
// share, and the resource that bounds the operator. Wall times are
// measured; every other column is deterministic.
func ExplainAnalyze(root *Span, opt ExplainOptions) string {
	if root == nil {
		return "(no spans recorded)\n"
	}
	var totalWall time.Duration
	var totalSim time.Duration
	root.Walk(func(sp *Span, _ int) {
		totalWall += sp.SelfWall()
		if opt.Sim != nil {
			t, _ := opt.Sim.OperatorTime(sp.SelfCounters())
			totalSim += t
		}
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %10s %10s %6s", "operator", "rows", "wall", "wall%")
	if opt.Sim != nil {
		fmt.Fprintf(&b, " %12s %6s %9s", "sim("+opt.Sim.Name()+")", "sim%", "bound")
	}
	b.WriteString("\n")
	root.Walk(func(sp *Span, depth int) {
		label := strings.Repeat("  ", depth) + sp.Label
		if len(label) > 44 {
			label = label[:41] + "..."
		}
		if sp.Err {
			label += " !"
		}
		fmt.Fprintf(&b, "%-44s %10d", label, sp.Rows)
		if opt.MaskWall {
			b.WriteString(wallMask)
		} else {
			fmt.Fprintf(&b, " %10s %5.1f%%",
				sp.SelfWall().Round(time.Microsecond), pct(float64(sp.SelfWall()), float64(totalWall)))
		}
		if opt.Sim != nil {
			simSelf, bound := opt.Sim.OperatorTime(sp.SelfCounters())
			fmt.Fprintf(&b, " %11.4fs %5.1f%% %9s",
				simSelf.Seconds(), pct(float64(simSelf), float64(totalSim)), bound)
		}
		b.WriteString("\n")
	})
	if opt.MaskWall {
		fmt.Fprintf(&b, "total: %d operators", root.NumSpans())
	} else {
		fmt.Fprintf(&b, "total: %d operators, %s wall", root.NumSpans(), totalWall.Round(time.Microsecond))
	}
	if opt.Sim != nil {
		fmt.Fprintf(&b, ", %.4fs simulated on %s (+%.3fs per-query overhead)",
			totalSim.Seconds(), opt.Sim.Name(), opt.Sim.OverheadSeconds())
	}
	b.WriteString("\n")
	return b.String()
}

func pct(part, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * part / total
}
