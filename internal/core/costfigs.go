package core

import (
	"fmt"
	"strings"
	"time"

	"wimpi/internal/hardware"
)

// NormalizedResult holds one of the cost/energy figures (5, 6, 7): the
// Pi configuration's normalized improvement over each applicable server,
// per query — and per cluster size for the distributed half.
type NormalizedResult struct {
	// Name identifies the figure ("MSRP", "Hourly", "Energy").
	Name string
	// SF1 maps query -> server -> improvement of a single Pi.
	SF1 map[int]map[string]float64
	// Dist maps query -> cluster size -> server -> improvement of WimPi.
	Dist map[int]map[int]map[string]float64
}

// normalized divides each runtime by what the machine costs in price's
// unit ((*hardware.Profile).MSRP, Hourly or Watts).
func (h *Harness) normalized(name string, t2 *TableIIResult, t3 *TableIIIResult, servers []hardware.Profile, price func(*hardware.Profile) float64) (*NormalizedResult, error) {
	res := &NormalizedResult{
		Name: name,
		SF1:  map[int]map[string]float64{},
		Dist: map[int]map[int]map[string]float64{},
	}
	for q, row := range t2.Seconds {
		pi := secs(row["Pi 3B+"])
		res.SF1[q] = map[string]float64{}
		for i := range servers {
			s := &servers[i]
			v, err := hardware.Improvement(price, pi, 1, secs(row[s.Name]), s)
			if err != nil {
				return nil, fmt.Errorf("core: %s figure Q%d %s: %w", name, q, s.Name, err)
			}
			res.SF1[q][s.Name] = v
		}
	}
	for _, q := range t3.Queries {
		res.Dist[q] = map[int]map[string]float64{}
		for n, wim := range t3.WimPi[q] {
			res.Dist[q][n] = map[string]float64{}
			for i := range servers {
				s := &servers[i]
				v, err := hardware.Improvement(price, secs(wim), n, secs(t3.Servers[q][s.Name]), s)
				if err != nil {
					return nil, fmt.Errorf("core: %s figure Q%d %s: %w", name, q, s.Name, err)
				}
				res.Dist[q][n][s.Name] = v
			}
		}
	}
	return res, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Figure5 regenerates the MSRP-normalized comparison (On-Premises
// servers only — the Cloud SKUs have no public MSRP).
func (h *Harness) Figure5(t2 *TableIIResult, t3 *TableIIIResult) (*NormalizedResult, error) {
	return h.normalized("MSRP", t2, t3, hardware.OnPrem(), (*hardware.Profile).MSRP)
}

// Figure6 regenerates the hourly-cost-normalized comparison (Cloud
// servers).
func (h *Harness) Figure6(t2 *TableIIResult, t3 *TableIIIResult) (*NormalizedResult, error) {
	return h.normalized("Hourly", t2, t3, hardware.CloudProfiles(), (*hardware.Profile).Hourly)
}

// Figure7 regenerates the TDP-energy-normalized comparison (On-Premises
// servers).
func (h *Harness) Figure7(t2 *TableIIResult, t3 *TableIIIResult) (*NormalizedResult, error) {
	return h.normalized("Energy", t2, t3, hardware.OnPrem(), (*hardware.Profile).Watts)
}

// Render formats a normalized figure. Values above 1.0 favor the
// Pi/WimPi configuration (the paper's dotted break-even line).
func (r *NormalizedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure (%s-normalized): improvement of the Pi configuration (>1 favors Pi)\n", r.Name)
	b.WriteString("\n  SF1 (single Pi 3B+):\n")
	queries := sortedKeys(r.SF1)
	servers := serverNames(r.SF1[queries[0]])
	fmt.Fprintf(&b, "    %-12s", "")
	for _, q := range queries {
		fmt.Fprintf(&b, "%9s", fmt.Sprintf("Q%d", q))
	}
	b.WriteString("\n")
	for _, s := range servers {
		fmt.Fprintf(&b, "    %-12s", s)
		for _, q := range queries {
			fmt.Fprintf(&b, "%9.1f", r.SF1[q][s])
		}
		b.WriteString("\n")
	}
	b.WriteString("\n  Distributed (WimPi, by cluster size):\n")
	dqueries := sortedKeys(r.Dist)
	for _, q := range dqueries {
		fmt.Fprintf(&b, "    Q%-3d", q)
		sizes := sortedKeys(r.Dist[q])
		for _, n := range sizes {
			// Summarize across servers with the geometric feel of the
			// figure: show the range.
			lo, hi := rangeOf(r.Dist[q][n])
			fmt.Fprintf(&b, "  x%-2d %6.1f-%-6.1f", n, lo, hi)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func serverNames(m map[string]float64) []string {
	var out []string
	for _, name := range PaperProfiles {
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

func rangeOf(m map[string]float64) (lo, hi float64) {
	first := true
	for _, v := range m {
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi
}
