// Package powersim simulates cluster power management: the paper's
// Section III-B.2 argument (SBC clusters can add and remove nodes at
// very fine granularity to match demand) and the energy-proportionality
// work it cites (Barroso & Hölzle; WattDB; Schall & Härder) made
// executable.
//
// A discrete-event simulator plays a trace of jobs against a cluster of
// nodes governed by a power policy. Nodes are off, booting, idle, or
// busy; each state draws a different power. The output is the paper's
// trade-off: energy consumed versus job latency.
package powersim

import (
	"fmt"
	"sort"
	"time"

	"wimpi/internal/hardware"
)

// NodePower describes one node's power draw per state, in watts.
type NodePower struct {
	// ActiveW is the draw while executing a job.
	ActiveW float64
	// IdleW is the draw while on but idle.
	IdleW float64
	// BootW is the draw while booting.
	BootW float64
}

// PiPower returns the Raspberry Pi 3B+ draw, read from its hardware
// profile.
func PiPower() NodePower {
	pi := hardware.Pi()
	return NodePower{ActiveW: pi.Watts(), IdleW: pi.WattsIdle(), BootW: pi.BootWatts}
}

// Cluster describes the simulated hardware.
type Cluster struct {
	// Nodes is the total node count.
	Nodes int
	// Power is the per-node power model.
	Power NodePower
	// BootDelay is the time from power-on to usable. SBCs boot in
	// seconds; servers in minutes — the paper's responsiveness argument.
	BootDelay time.Duration
}

// Job is one unit of cluster work.
type Job struct {
	// Arrival is the submission time since simulation start.
	Arrival time.Duration
	// Duration is the execution time once started.
	Duration time.Duration
	// Nodes is how many nodes the job occupies.
	Nodes int
}

// Policy decides how many nodes should be powered on.
type Policy interface {
	// Target returns the desired powered-on node count given the node
	// demand of queued jobs, the running job count, and the busy node
	// count.
	Target(queuedNodes, running, busyNodes, totalNodes int) int
	// Name labels the policy in reports.
	Name() string
}

// AlwaysOn keeps every node powered, like a traditional server that
// cannot shed components.
type AlwaysOn struct{}

// Target implements Policy.
func (AlwaysOn) Target(_, _, _, total int) int { return total }

// Name implements Policy.
func (AlwaysOn) Name() string { return "always-on" }

// OnDemand keeps Min nodes hot and powers nodes up and down with
// demand — the fine-grained control the paper credits SBC clusters with.
type OnDemand struct {
	// Min is the hot floor (nodes kept on even when idle).
	Min int
	// Headroom is extra nodes kept on beyond current demand.
	Headroom int
}

// Target implements Policy.
func (p OnDemand) Target(queuedNodes, running, busyNodes, total int) int {
	want := busyNodes + queuedNodes + p.Headroom
	if want < p.Min {
		want = p.Min
	}
	if want > total {
		want = total
	}
	return want
}

// Name implements Policy.
func (p OnDemand) Name() string { return fmt.Sprintf("on-demand(min=%d)", p.Min) }

// Report summarizes a simulation.
type Report struct {
	// Policy is the policy name.
	Policy string
	// EnergyJoules is total cluster energy over the simulated horizon.
	EnergyJoules float64
	// MeanLatency and MaxLatency cover queue wait plus execution.
	MeanLatency, MaxLatency time.Duration
	// MeanWait is the average time jobs spent queued (including boot
	// waits caused by the policy).
	MeanWait time.Duration
	// Horizon is the simulated duration (last completion).
	Horizon time.Duration
	// JobsCompleted counts finished jobs.
	JobsCompleted int
}

// Simulate plays jobs against the cluster under the policy. Jobs run
// FIFO; a job starts once enough powered-on idle nodes exist. Node
// boot-ups initiated by the policy become usable after BootDelay.
func Simulate(c Cluster, p Policy, jobs []Job) (*Report, error) {
	if c.Nodes < 1 {
		return nil, fmt.Errorf("powersim: cluster needs nodes")
	}
	for i, j := range jobs {
		if j.Nodes < 1 || j.Nodes > c.Nodes {
			return nil, fmt.Errorf("powersim: job %d needs %d nodes, cluster has %d", i, j.Nodes, c.Nodes)
		}
		if j.Duration <= 0 {
			return nil, fmt.Errorf("powersim: job %d has non-positive duration", i)
		}
	}
	sorted := append([]Job(nil), jobs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })

	// Simulation state, advanced on a fixed tick. A tick of 100 ms keeps
	// boot delays and sub-second jobs accurate enough for energy
	// accounting while staying simple and deterministic.
	const tick = 100 * time.Millisecond
	var (
		now        time.Duration
		on         = 0 // usable nodes
		booting    []time.Duration
		busy       = 0
		queue      []Job
		running    []Job // Duration field counts down remaining time
		nextJob    = 0
		energy     float64
		totalLat   time.Duration
		totalWait  time.Duration
		maxLat     time.Duration
		done       int
		queueEnter []time.Duration
	)

	// Start with the policy's initial target booted (free of charge at
	// t=0: the cluster begins in steady state).
	on = p.Target(0, 0, 0, c.Nodes)
	if on < 0 {
		on = 0
	}
	if on > c.Nodes {
		on = c.Nodes
	}

	for done < len(sorted) {
		// Admit arrivals.
		for nextJob < len(sorted) && sorted[nextJob].Arrival <= now {
			queue = append(queue, sorted[nextJob])
			queueEnter = append(queueEnter, now)
			nextJob++
		}
		// Finish bootups.
		keep := booting[:0]
		for _, readyAt := range booting {
			if readyAt <= now {
				on++
			} else {
				keep = append(keep, readyAt)
			}
		}
		booting = keep
		// Start queued jobs FIFO.
		for len(queue) > 0 && queue[0].Nodes <= on-busy {
			j := queue[0]
			wait := now - queueEnter[0]
			totalWait += wait
			lat := wait + j.Duration
			totalLat += lat
			if lat > maxLat {
				maxLat = lat
			}
			queue = queue[1:]
			queueEnter = queueEnter[1:]
			busy += j.Nodes
			running = append(running, j)
		}
		// Policy adjustment.
		queuedNodes := 0
		for _, j := range queue {
			queuedNodes += j.Nodes
		}
		target := p.Target(queuedNodes, len(running), busy, c.Nodes)
		if target < busy {
			target = busy
		}
		if target > c.Nodes {
			target = c.Nodes
		}
		current := on + len(booting)
		for current < target {
			booting = append(booting, now+c.BootDelay)
			current++
		}
		if current > target && on-busy > 0 {
			// Shed idle nodes immediately (power-off is instant).
			shed := current - target
			if idle := on - busy; shed > idle {
				shed = idle
			}
			on -= shed
		}
		// Account energy for this tick.
		sec := tick.Seconds()
		energy += float64(busy)*c.Power.ActiveW*sec +
			float64(on-busy)*c.Power.IdleW*sec +
			float64(len(booting))*c.Power.BootW*sec
		// Advance running jobs.
		stillRunning := running[:0]
		for _, j := range running {
			j.Duration -= tick
			if j.Duration <= 0 {
				busy -= j.Nodes
				done++
			} else {
				stillRunning = append(stillRunning, j)
			}
		}
		running = stillRunning
		now += tick
		if now > 1000*time.Hour {
			return nil, fmt.Errorf("powersim: simulation did not converge (deadlock?)")
		}
	}

	n := len(sorted)
	rep := &Report{
		Policy:        p.Name(),
		EnergyJoules:  energy,
		Horizon:       now,
		JobsCompleted: done,
	}
	if n > 0 {
		rep.MeanLatency = totalLat / time.Duration(n)
		rep.MeanWait = totalWait / time.Duration(n)
		rep.MaxLatency = maxLat
	}
	return rep, nil
}

// PeriodicTrace builds a batch-style trace: every period, burst jobs of
// the given duration and width arrive simultaneously, for cycles rounds.
func PeriodicTrace(period, duration time.Duration, width, burst, cycles int) []Job {
	var jobs []Job
	for c := 0; c < cycles; c++ {
		for b := 0; b < burst; b++ {
			jobs = append(jobs, Job{
				Arrival:  time.Duration(c) * period,
				Duration: duration,
				Nodes:    width,
			})
		}
	}
	return jobs
}
