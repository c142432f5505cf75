// Package hardware models the paper's ten hardware comparison points
// (Table I): two on-premises Xeon servers, seven EC2 instance types, and
// the Raspberry Pi 3B+.
//
// We do not have this hardware, so the package substitutes calibrated
// performance profiles plus an analytic cost model. The OLAP engine
// executes every query for real on the host and records a work profile
// (exec.Counters); the model translates that work into a simulated
// runtime per profile. CPU-bound work scales with the profile's
// calibrated per-core throughput and core count, while scan-bound work
// scales with its memory bandwidth — the same mechanics the paper
// identifies as deciding where the Pi 3B+ is competitive (Q11, Q16) and
// where it collapses (Q1).
//
// The calibration scalars are set from the public specifications in
// Table I and the relative microbenchmark scores reported in Figure 2;
// they are not measurements of the physical machines.
//
// The package is also the one home of each machine's price and power
// draw (Profile.MSRP, Hourly, Watts, WattsIdle) and of the Section III
// normalization that divides a runtime by them (Improvement).
package hardware

import (
	"fmt"
	"time"
)

// Category groups profiles as in Table I.
type Category string

// The hardware categories of Table I.
const (
	// OnPremises covers the two departmental Xeon servers.
	OnPremises Category = "On-Premises"
	// Cloud covers the seven EC2 instance types.
	Cloud Category = "Cloud"
	// SBC covers the Raspberry Pi 3B+.
	SBC Category = "SBC"
)

// Profile describes one comparison point: its public specifications and
// the calibrated performance scalars used by the cost model.
type Profile struct {
	// Name is the paper's identifier, e.g. "op-e5" or "Pi 3B+".
	Name string
	// Category is the Table I grouping.
	Category Category
	// CPU is the processor model string.
	CPU string
	// FreqGHz is the base clock frequency.
	FreqGHz float64
	// Cores is the physical core count per socket.
	Cores int
	// Sockets is the socket count (the On-Premises machines are dual-socket).
	Sockets int
	// SMTSpeedup is the all-core throughput factor gained from
	// simultaneous multithreading (1.0 when SMT is absent or unused).
	SMTSpeedup float64
	// LLCBytes is the last-level cache size.
	LLCBytes int64
	// MSRPUSD is the manufacturer's suggested retail price per CPU
	// (zero when not public, as for the custom AWS SKUs).
	MSRPUSD float64
	// HourlyUSD is the EC2 on-demand price, or the estimated electricity
	// cost per hour for the Pi (zero for On-Premises).
	HourlyUSD float64
	// TDPWatts is the CPU thermal design power; for the Pi it is the
	// maximum draw of the whole board (zero when not public).
	TDPWatts float64
	// IdleWatts is the idle power draw per socket used by the energy-
	// proportionality analysis (Section III-B.2).
	IdleWatts float64
	// BootWatts is the whole board's draw while booting, used by the
	// power-policy simulation (zero where it is not modelled).
	BootWatts float64

	// Calibrated throughput scalars.

	// IntOpsPerCore is sustained simple-integer operations per second on
	// one core (sysbench/Dhrystone-like work).
	IntOpsPerCore float64
	// FpOpsPerCore is sustained floating-point operations per second on
	// one core (Whetstone-like work).
	FpOpsPerCore float64
	// MemBW1 is single-core sequential memory bandwidth in bytes/s.
	MemBW1 float64
	// MemBWAll is all-core sequential memory bandwidth in bytes/s.
	MemBWAll float64
	// DRAMLatency is the cost of one dependent random DRAM access in
	// seconds; LLCLatency the same for an LLC hit.
	DRAMLatency float64
	// LLCLatency is the cost of one dependent random LLC access.
	LLCLatency float64
	// QueryOverheadSec is the fixed per-query system overhead (parsing,
	// operator dispatch, result delivery) of a MonetDB-class engine on
	// this machine.
	QueryOverheadSec float64
	// RAMBytes is the memory capacity relevant to the paper's memory-
	// pressure effects (only meaningful for the Pi's 1 GB).
	RAMBytes int64
}

// TotalCores returns physical cores across sockets.
func (p *Profile) TotalCores() int { return p.Cores * p.Sockets }

// MSRP returns the whole machine's purchase price: MSRP per CPU times
// sockets (the paper doubles the On-Premises prices because both are
// dual-socket). Zero when the price is not public (the Cloud SKUs).
func (p *Profile) MSRP() float64 { return p.MSRPUSD * float64(p.Sockets) }

// Hourly returns the whole machine's hourly price: the EC2 on-demand
// price of the instance, or the Pi's electricity cost (zero for the
// On-Premises servers).
func (p *Profile) Hourly() float64 { return p.HourlyUSD }

// Watts returns the whole machine's draw at full load: TDP times
// sockets (Section III-B.1). Zero when the TDP is not public.
func (p *Profile) Watts() float64 { return p.TDPWatts * float64(p.Sockets) }

// WattsIdle returns the whole machine's idle draw: idle watts times
// sockets (Section III-B.2).
func (p *Profile) WattsIdle() float64 { return p.IdleWatts * float64(p.Sockets) }

// Improvement returns the paper's Section III normalized improvement of
// a piNodes-node Pi configuration over a server: (tServer × price of
// the server) / (tPi × price of piNodes Pis), where price is one of
// (*Profile).MSRP (Figure 5), Hourly (Figure 6) or Watts (Figure 7).
// Above 1 favors the Pi, below 1 the server — the paper's dotted
// break-even line. It errors when the server has no price in that unit,
// and is 0 for a zero Pi runtime.
func Improvement(price func(*Profile) float64, tPi time.Duration, piNodes int, tServer time.Duration, server *Profile) (float64, error) {
	cost := price(server)
	if cost <= 0 {
		return 0, fmt.Errorf("hardware: %s has no price in this unit", server.Name)
	}
	pi := Pi()
	den := tPi.Seconds() * (price(&pi) * float64(piNodes))
	if den <= 0 {
		return 0, nil
	}
	return tServer.Seconds() * cost / den, nil
}

// MemBW returns the sequential bandwidth achievable with the given
// number of active cores: linear in cores until the socket saturates.
func (p *Profile) MemBW(cores int) float64 {
	bw := p.MemBW1 * float64(cores)
	if bw > p.MemBWAll {
		return p.MemBWAll
	}
	return bw
}

const gb = 1e9

// Profiles returns the paper's ten comparison points in Table I order.
// The slice is freshly allocated; callers may modify their copy.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "op-e5", Category: OnPremises, CPU: "Intel Xeon E5-2660 v2",
			FreqGHz: 2.2, Cores: 10, Sockets: 2, SMTSpeedup: 1.25,
			LLCBytes: 25 * 1024 * 1024, MSRPUSD: 1389, TDPWatts: 95, IdleWatts: 45,
			IntOpsPerCore: 0.90 * gb, FpOpsPerCore: 0.90 * gb,
			MemBW1: 12 * gb, MemBWAll: 60 * gb,
			DRAMLatency: 95e-9, LLCLatency: 18e-9,
			QueryOverheadSec: 0.008, RAMBytes: 256 << 30,
		},
		{
			Name: "op-gold", Category: OnPremises, CPU: "Intel Xeon Gold 6150",
			FreqGHz: 2.7, Cores: 18, Sockets: 2, SMTSpeedup: 1.25,
			LLCBytes: int64(24.75 * 1024 * 1024), MSRPUSD: 3358, TDPWatts: 165, IdleWatts: 70,
			IntOpsPerCore: 2.3 * gb, FpOpsPerCore: 2.0 * gb,
			MemBW1: 15 * gb, MemBWAll: 190 * gb,
			DRAMLatency: 90e-9, LLCLatency: 15e-9,
			QueryOverheadSec: 0.005, RAMBytes: 512 << 30,
		},
		{
			Name: "c4.8xlarge", Category: Cloud, CPU: "Intel Xeon E5-2666 v3",
			FreqGHz: 2.9, Cores: 9, Sockets: 1, SMTSpeedup: 1.25,
			LLCBytes: 25 * 1024 * 1024, HourlyUSD: 1.591, IdleWatts: 40,
			IntOpsPerCore: 1.9 * gb, FpOpsPerCore: 1.3 * gb,
			MemBW1: 13 * gb, MemBWAll: 55 * gb,
			DRAMLatency: 90e-9, LLCLatency: 16e-9,
			QueryOverheadSec: 0.006, RAMBytes: 60 << 30,
		},
		{
			Name: "m4.10xlarge", Category: Cloud, CPU: "Intel Xeon E5-2676 v3",
			FreqGHz: 2.4, Cores: 10, Sockets: 1, SMTSpeedup: 1.25,
			LLCBytes: 30 * 1024 * 1024, HourlyUSD: 2.00, IdleWatts: 45,
			IntOpsPerCore: 1.6 * gb, FpOpsPerCore: 1.1 * gb,
			MemBW1: 12 * gb, MemBWAll: 60 * gb,
			DRAMLatency: 92e-9, LLCLatency: 17e-9,
			QueryOverheadSec: 0.006, RAMBytes: 160 << 30,
		},
		{
			Name: "m4.16xlarge", Category: Cloud, CPU: "Intel Xeon E5-2686 v4",
			FreqGHz: 2.3, Cores: 16, Sockets: 1, SMTSpeedup: 1.25,
			LLCBytes: 45 * 1024 * 1024, HourlyUSD: 3.20, IdleWatts: 55,
			IntOpsPerCore: 1.6 * gb, FpOpsPerCore: 1.15 * gb,
			MemBW1: 12 * gb, MemBWAll: 130 * gb,
			DRAMLatency: 92e-9, LLCLatency: 17e-9,
			QueryOverheadSec: 0.006, RAMBytes: 256 << 30,
		},
		{
			Name: "z1d.metal", Category: Cloud, CPU: "Intel Xeon Platinum 8151",
			FreqGHz: 3.4, Cores: 12, Sockets: 1, SMTSpeedup: 1.25,
			LLCBytes: int64(24.75 * 1024 * 1024), HourlyUSD: 4.464, IdleWatts: 60,
			IntOpsPerCore: 3.5 * gb, FpOpsPerCore: 2.6 * gb,
			MemBW1: 16 * gb, MemBWAll: 95 * gb,
			DRAMLatency: 85e-9, LLCLatency: 14e-9,
			QueryOverheadSec: 0.009, RAMBytes: 384 << 30,
		},
		{
			Name: "m5.metal", Category: Cloud, CPU: "Intel Xeon Platinum 8259CL",
			FreqGHz: 2.5, Cores: 24, Sockets: 2, SMTSpeedup: 1.25,
			LLCBytes: int64(35.75 * 1024 * 1024), HourlyUSD: 4.608, IdleWatts: 90,
			IntOpsPerCore: 2.3 * gb, FpOpsPerCore: 1.9 * gb,
			MemBW1: 15 * gb, MemBWAll: 190 * gb,
			DRAMLatency: 88e-9, LLCLatency: 15e-9,
			QueryOverheadSec: 0.004, RAMBytes: 384 << 30,
		},
		{
			Name: "a1.metal", Category: Cloud, CPU: "AWS Graviton",
			FreqGHz: 2.3, Cores: 16, Sockets: 1, SMTSpeedup: 1.0,
			LLCBytes: 8 * 1024 * 1024, HourlyUSD: 0.408, IdleWatts: 30,
			IntOpsPerCore: 1.1 * gb, FpOpsPerCore: 0.8 * gb,
			MemBW1: 11 * gb, MemBWAll: 70 * gb,
			DRAMLatency: 160e-9, LLCLatency: 28e-9,
			QueryOverheadSec: 0.012, RAMBytes: 32 << 30,
		},
		{
			Name: "c6g.metal", Category: Cloud, CPU: "AWS Graviton2",
			FreqGHz: 2.5, Cores: 64, Sockets: 1, SMTSpeedup: 1.0,
			LLCBytes: 32 * 1024 * 1024, HourlyUSD: 2.176, IdleWatts: 60,
			IntOpsPerCore: 2.2 * gb, FpOpsPerCore: 1.8 * gb,
			MemBW1: 18 * gb, MemBWAll: 200 * gb,
			DRAMLatency: 95e-9, LLCLatency: 18e-9,
			QueryOverheadSec: 0.007, RAMBytes: 128 << 30,
		},
		{
			Name: "Pi 3B+", Category: SBC, CPU: "ARM Cortex-A53",
			FreqGHz: 1.4, Cores: 4, Sockets: 1, SMTSpeedup: 1.0,
			LLCBytes: 512 * 1024, MSRPUSD: 35, HourlyUSD: 0.0004,
			TDPWatts: 5.1, IdleWatts: 1.9, BootWatts: 4.0,
			IntOpsPerCore: 0.90 * gb, FpOpsPerCore: 0.35 * gb,
			MemBW1: 2.2 * gb, MemBWAll: 2.6 * gb,
			DRAMLatency: 180e-9, LLCLatency: 40e-9,
			QueryOverheadSec: 0.030, RAMBytes: 1 << 30,
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("hardware: no profile %q", name)
}

// Pi returns the Raspberry Pi 3B+ profile.
func Pi() Profile {
	p, err := ByName("Pi 3B+")
	if err != nil {
		panic(err)
	}
	return p
}

// OnPrem returns the two On-Premises profiles (op-e5, op-gold).
func OnPrem() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Category == OnPremises {
			out = append(out, p)
		}
	}
	return out
}

// CloudProfiles returns the seven Cloud profiles.
func CloudProfiles() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Category == Cloud {
			out = append(out, p)
		}
	}
	return out
}

// Servers returns every profile except the Pi, in Table I order.
func Servers() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Category != SBC {
			out = append(out, p)
		}
	}
	return out
}
