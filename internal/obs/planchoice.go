package obs

import (
	"fmt"
	"strings"
	"time"
)

// PlanChoice records one cost-based optimizer decision: the pipeline it
// applies to, the canonical (statement-text-order) alternative, the
// chosen one, and the modeled cost of each. Costs come from the hardware
// model's single-core simulation of the planner's cardinality estimates,
// so they depend only on catalog statistics — never on the worker count.
type PlanChoice struct {
	// Pipeline labels the decision site, e.g. "spine partsupp".
	Pipeline string
	// Canonical is the text-order step sequence.
	Canonical string
	// Chosen is the selected step sequence.
	Chosen string
	// CanonicalCost and ChosenCost are modeled single-core runtimes.
	CanonicalCost time.Duration
	ChosenCost    time.Duration
	// Reordered is true when Chosen differs from Canonical.
	Reordered bool
	// Notes carries per-step build-layout predictions (positional up to
	// a key span, else chained) for the chosen order.
	Notes []string
}

// RenderPlanChoices renders optimizer decisions for EXPLAIN output,
// ASCII-only so goldens are stable across terminals.
func RenderPlanChoices(choices []PlanChoice) string {
	if len(choices) == 0 {
		return "optimizer: no join-order choices\n"
	}
	var sb strings.Builder
	for _, c := range choices {
		fmt.Fprintf(&sb, "optimizer: %s\n", c.Pipeline)
		fmt.Fprintf(&sb, "  canonical: %-60s (est %s)\n", c.Canonical, fmtCost(c.CanonicalCost))
		if c.Reordered {
			fmt.Fprintf(&sb, "  chosen:    %-60s (est %s)\n", c.Chosen, fmtCost(c.ChosenCost))
		} else {
			fmt.Fprintf(&sb, "  chosen:    canonical order kept\n")
		}
		for _, n := range c.Notes {
			fmt.Fprintf(&sb, "    %s\n", n)
		}
	}
	return sb.String()
}

// fmtCost renders a modeled cost with microsecond granularity so small
// float jitter in estimates does not churn golden output.
func fmtCost(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
