package core

import (
	"fmt"

	"wimpi/internal/engine"
	"wimpi/internal/hardware"
	"wimpi/internal/tpch"
)

// Options parameterizes the experimental study.
type Options struct {
	// SF is the Table II / Figures 3-7 single-node scale factor (the
	// paper uses 1).
	SF float64
	// DistSF is the Table III distributed scale factor (the paper uses
	// 10; the harness defaults lower so the whole study runs on one
	// host, and scales the simulated node RAM to preserve the paper's
	// data-to-memory geometry).
	DistSF float64
	// Seed makes all datasets reproducible.
	Seed uint64
	// ClusterSizes are the WimPi configurations of Table III.
	ClusterSizes []int
	// HostWorkers is the host-side engine parallelism used to run the
	// experiments. At 2 or more workers the charged work, and so every
	// simulated time, is the same at any count; at 1 several kernels
	// take a one-worker shortcut that skips their partition and merge
	// passes, which charges less (EXPERIMENTS.md, "One worker charges
	// less"). The default is the Pi's core count, so the study's
	// simulated numbers do not depend on the host's CPUs.
	HostWorkers int
	// EmulatePaperGeometry scales each simulated node's RAM by
	// DistSF/10 so that the Table III memory-pressure cliff appears at
	// the same cluster sizes as in the paper regardless of DistSF.
	EmulatePaperGeometry bool
}

// DefaultOptions returns a configuration sized to reproduce the paper's
// result shapes on a single host: SF 1 for Table II and SF 1 (RAM-scaled)
// for Table III.
func DefaultOptions() Options {
	return Options{
		SF:                   1,
		DistSF:               1,
		Seed:                 42,
		ClusterSizes:         append([]int(nil), PaperClusterSizes...),
		HostWorkers:          hardware.Pi().Cores,
		EmulatePaperGeometry: true,
	}
}

// Harness runs the paper's experiments. Datasets are generated lazily
// and cached; a Harness is not safe for concurrent use.
type Harness struct {
	// Opt is the study configuration.
	Opt Options
	// Model is the hardware cost model.
	Model hardware.Model

	profiles []hardware.Profile

	sfData *tpch.Dataset
	sfDB   *engine.DB

	distData *tpch.Dataset
	distDB   *engine.DB
}

// NewHarness returns a harness for the given options.
func NewHarness(opt Options) (*Harness, error) {
	if opt.SF <= 0 || opt.DistSF <= 0 {
		return nil, fmt.Errorf("core: scale factors must be positive, got SF=%g DistSF=%g", opt.SF, opt.DistSF)
	}
	if len(opt.ClusterSizes) == 0 {
		opt.ClusterSizes = append([]int(nil), PaperClusterSizes...)
	}
	if opt.HostWorkers < 1 {
		opt.HostWorkers = 1
	}
	return &Harness{
		Opt:      opt,
		Model:    hardware.DefaultModel(),
		profiles: hardware.Profiles(),
	}, nil
}

// Profiles returns the study's comparison points (Table I order).
func (h *Harness) Profiles() []hardware.Profile { return h.profiles }

func (h *Harness) profile(name string) *hardware.Profile {
	for i := range h.profiles {
		if h.profiles[i].Name == name {
			return &h.profiles[i]
		}
	}
	return nil
}

// sfDatabase returns the cached SF dataset and engine.
func (h *Harness) sfDatabase() (*tpch.Dataset, *engine.DB) {
	if h.sfDB == nil {
		h.sfData = tpch.Generate(tpch.Config{SF: h.Opt.SF, Seed: h.Opt.Seed})
		h.sfDB = engine.NewDB(engine.Config{Workers: h.Opt.HostWorkers})
		h.sfData.RegisterAll(h.sfDB)
	}
	return h.sfData, h.sfDB
}

// distDatabase returns the cached DistSF dataset and engine.
func (h *Harness) distDatabase() (*tpch.Dataset, *engine.DB) {
	if h.distDB == nil {
		if h.Opt.DistSF == h.Opt.SF {
			d, db := h.sfDatabase()
			h.distData, h.distDB = d, db
			return d, db
		}
		h.distData = tpch.Generate(tpch.Config{SF: h.Opt.DistSF, Seed: h.Opt.Seed})
		h.distDB = engine.NewDB(engine.Config{Workers: h.Opt.HostWorkers})
		h.distData.RegisterAll(h.distDB)
	}
	return h.distData, h.distDB
}

// nodeRAMBytes returns the simulated per-node memory: the Pi's 1 GB,
// scaled by DistSF/10 when emulating the paper's geometry.
func (h *Harness) nodeRAMBytes() int64 {
	ram := hardware.Pi().RAMBytes
	if h.Opt.EmulatePaperGeometry {
		scaled := float64(ram) * h.Opt.DistSF / 10
		return int64(scaled)
	}
	return ram
}
