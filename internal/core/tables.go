package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"wimpi/internal/cluster"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/tpch"
)

// TableIText renders Table I: the hardware specifications of every
// comparison point.
func (h *Harness) TableIText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-26s %6s %6s %9s %9s %9s %7s\n",
		"Category", "Name", "CPU", "GHz", "Cores", "LLC", "MSRP", "Hourly", "TDP")
	for i := range h.profiles {
		p := &h.profiles[i]
		msrp, hourly, tdp := "-", "-", "-"
		if p.MSRPUSD > 0 {
			msrp = fmt.Sprintf("$%.0f", p.MSRPUSD)
		}
		if p.HourlyUSD > 0 {
			hourly = fmt.Sprintf("$%.4f", p.HourlyUSD)
		}
		if p.TDPWatts > 0 {
			tdp = fmt.Sprintf("%.1f W", p.TDPWatts)
		}
		llc := fmt.Sprintf("%.1f MB", float64(p.LLCBytes)/(1<<20))
		if p.LLCBytes < 1<<20 {
			llc = fmt.Sprintf("%d KB", p.LLCBytes/1024)
		}
		fmt.Fprintf(&b, "%-12s %-12s %-26s %6.1f %6d %9s %9s %9s %7s\n",
			p.Category, p.Name, p.CPU, p.FreqGHz, p.TotalCores(), llc, msrp, hourly, tdp)
	}
	return b.String()
}

// TableIIResult holds the regenerated Table II.
type TableIIResult struct {
	// SF is the scale factor the experiment ran at.
	SF float64
	// Seconds maps query -> profile name -> simulated runtime.
	Seconds map[int]map[string]float64
	// Counters maps query -> the measured work profile.
	Counters map[int]exec.Counters
	// MemoryBound maps query -> whether the Pi run was bandwidth-bound.
	MemoryBound map[int]bool
	// MemSeqShare maps query -> the fraction of the Pi's simulated time
	// spent on sequential bandwidth (the paper's scan-bound axis).
	MemSeqShare map[int]float64
}

// TableII runs all 22 TPC-H queries once on the host engine and
// simulates each comparison point's runtime from the recorded work.
func (h *Harness) TableII() (*TableIIResult, error) {
	_, db := h.sfDatabase()
	res := &TableIIResult{
		SF:          h.Opt.SF,
		Seconds:     make(map[int]map[string]float64),
		Counters:    make(map[int]exec.Counters),
		MemoryBound: make(map[int]bool),
		MemSeqShare: make(map[int]float64),
	}
	for _, q := range tpch.QueryNumbers() {
		r, err := db.RunQuery(context.Background(), tpch.MustQuery(q), engine.QueryOpts{})
		if err != nil {
			return nil, fmt.Errorf("core: table II Q%d: %w", q, err)
		}
		res.Counters[q] = r.Counters
		res.Seconds[q] = make(map[string]float64)
		for i := range h.profiles {
			p := &h.profiles[i]
			ex := h.Model.Explain(p, r.Counters, p.TotalCores())
			res.Seconds[q][p.Name] = ex.Total
			if p.Name == "Pi 3B+" {
				res.MemoryBound[q] = ex.MemoryBound
				if ex.Total > 0 {
					res.MemSeqShare[q] = ex.MemSeqSeconds / ex.Total
				}
			}
		}
	}
	return res, nil
}

// Render formats the result like the paper's Table II, one row per
// comparison point.
func (r *TableIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: simulated TPC-H runtimes (s) at SF %g\n", r.SF)
	queries := sortedKeys(r.Seconds)
	fmt.Fprintf(&b, "%-12s", "")
	for _, q := range queries {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("Q%d", q))
	}
	b.WriteString("\n")
	for _, name := range PaperProfiles {
		fmt.Fprintf(&b, "%-12s", name)
		for _, q := range queries {
			fmt.Fprintf(&b, "%8.3f", r.Seconds[q][name])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PiSlowdowns returns, per query, the Pi's slowdown relative to the
// named server (t_pi / t_server) — the paper's central Table II metric.
func (r *TableIIResult) PiSlowdowns(server string) map[int]float64 {
	out := make(map[int]float64, len(r.Seconds))
	for q, row := range r.Seconds {
		if row[server] > 0 {
			out[q] = row["Pi 3B+"] / row[server]
		}
	}
	return out
}

// TableIIIResult holds the regenerated Table III.
type TableIIIResult struct {
	// SF is the distributed scale factor.
	SF float64
	// NodeRAMBytes is the simulated per-node memory.
	NodeRAMBytes int64
	// Queries lists the representative queries.
	Queries []int
	// Servers maps query -> server profile -> simulated seconds
	// (single-node execution of the full dataset).
	Servers map[int]map[string]float64
	// WimPi maps query -> cluster size -> simulated seconds.
	WimPi map[int]map[int]float64
	// Thrashed maps query -> cluster size -> whether a node exceeded
	// its RAM (the paper's 4-node cliff).
	Thrashed map[int]map[int]bool
}

// TableIII runs the eight representative queries on real in-process
// TCP clusters of every configured size, plus single-node runs for the
// server comparison points.
func (h *Harness) TableIII() (*TableIIIResult, error) {
	data, db := h.distDatabase()
	res := &TableIIIResult{
		SF:           h.Opt.DistSF,
		NodeRAMBytes: h.nodeRAMBytes(),
		Queries:      append([]int(nil), tpch.RepresentativeQueries...),
		Servers:      make(map[int]map[string]float64),
		WimPi:        make(map[int]map[int]float64),
		Thrashed:     make(map[int]map[int]bool),
	}
	// Server rows: single-node execution.
	for _, q := range res.Queries {
		r, err := db.RunQuery(context.Background(), tpch.MustQuery(q), engine.QueryOpts{})
		if err != nil {
			return nil, fmt.Errorf("core: table III Q%d servers: %w", q, err)
		}
		res.Servers[q] = make(map[string]float64)
		for i := range h.profiles {
			p := &h.profiles[i]
			if p.Name == "Pi 3B+" {
				continue
			}
			res.Servers[q][p.Name] = h.Model.Explain(p, r.Counters, p.TotalCores()).Total
		}
		res.WimPi[q] = make(map[int]float64)
		res.Thrashed[q] = make(map[int]bool)
	}
	// WimPi rows: one real cluster per size.
	for _, n := range h.Opt.ClusterSizes {
		lc, err := cluster.StartLocal(n, cluster.WorkerConfig{Source: cluster.SharedSource(data)}, 4)
		if err != nil {
			return nil, fmt.Errorf("core: start %d-node cluster: %w", n, err)
		}
		if _, err := lc.Coordinator.Load(h.Opt.DistSF, h.Opt.Seed); err != nil {
			lc.Close()
			return nil, fmt.Errorf("core: load %d-node cluster: %w", n, err)
		}
		opt := cluster.DefaultSimOptions()
		opt.NodeProfile.RAMBytes = res.NodeRAMBytes
		for _, q := range res.Queries {
			dr, err := lc.Coordinator.Run(q)
			if err != nil {
				lc.Close()
				return nil, fmt.Errorf("core: %d-node Q%d: %w", n, q, err)
			}
			sim := cluster.Simulate(dr, opt)
			res.WimPi[q][n] = sim.Total
			res.Thrashed[q][n] = sim.Thrashed
		}
		lc.Close()
	}
	return res, nil
}

// Render formats the result like the paper's Table III.
func (r *TableIIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: simulated TPC-H runtimes (s) at SF %g (node RAM %.0f MB)\n",
		r.SF, float64(r.NodeRAMBytes)/(1<<20))
	fmt.Fprintf(&b, "%-14s", "")
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "%9s", fmt.Sprintf("Q%d", q))
	}
	b.WriteString("\n")
	for _, name := range PaperProfiles {
		if name == "Pi 3B+" {
			continue
		}
		fmt.Fprintf(&b, "%-14s", name)
		for _, q := range r.Queries {
			fmt.Fprintf(&b, "%9.3f", r.Servers[q][name])
		}
		b.WriteString("\n")
	}
	sizes := sortedKeys(r.WimPi[r.Queries[0]])
	for _, n := range sizes {
		fmt.Fprintf(&b, "%-14s", fmt.Sprintf("Pi 3B+ x%d", n))
		for _, q := range r.Queries {
			mark := ""
			if r.Thrashed[q][n] {
				mark = "*"
			}
			fmt.Fprintf(&b, "%9s", fmt.Sprintf("%.3f%s", r.WimPi[q][n], mark))
		}
		b.WriteString("\n")
	}
	b.WriteString("(* node working set exceeded RAM: microSD thrashing)\n")
	return b.String()
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
