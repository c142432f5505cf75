package powersim

import (
	"testing"
	"time"

	"wimpi/internal/hardware"
)

func piCluster(n int) Cluster {
	return Cluster{Nodes: n, Power: PiPower(), BootDelay: 5 * time.Second}
}

func TestSimulateBasicAccounting(t *testing.T) {
	// One job on one always-on node.
	c := piCluster(1)
	jobs := []Job{{Arrival: 0, Duration: 10 * time.Second, Nodes: 1}}
	rep, err := Simulate(c, AlwaysOn{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 1 {
		t.Fatalf("completed %d", rep.JobsCompleted)
	}
	// Latency equals the duration (no queueing).
	if rep.MeanLatency != 10*time.Second || rep.MaxLatency != 10*time.Second {
		t.Errorf("latency = %v / %v", rep.MeanLatency, rep.MaxLatency)
	}
	if rep.MeanWait != 0 {
		t.Errorf("wait = %v", rep.MeanWait)
	}
	// Energy ~ 10s * 5.1W (within a tick of slack).
	want := 10 * 5.1
	if rep.EnergyJoules < want*0.95 || rep.EnergyJoules > want*1.1 {
		t.Errorf("energy = %g J, want ~%g", rep.EnergyJoules, want)
	}
}

func TestSimulateQueueing(t *testing.T) {
	// Two 10 s single-node jobs on one node: the second waits.
	c := piCluster(1)
	jobs := []Job{
		{Arrival: 0, Duration: 10 * time.Second, Nodes: 1},
		{Arrival: 0, Duration: 10 * time.Second, Nodes: 1},
	}
	rep, err := Simulate(c, AlwaysOn{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxLatency < 19*time.Second || rep.MaxLatency > 21*time.Second {
		t.Errorf("max latency = %v, want ~20s", rep.MaxLatency)
	}
	// On two nodes they run in parallel.
	rep2, err := Simulate(piCluster(2), AlwaysOn{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MaxLatency > 11*time.Second {
		t.Errorf("parallel max latency = %v", rep2.MaxLatency)
	}
}

func TestOnDemandSavesEnergyAtLatencyCost(t *testing.T) {
	// Bursty batch workload with long idle gaps: the paper's duty-cycle
	// scenario. On-demand must save substantial energy; latency may rise
	// by at most the boot delay.
	c := piCluster(24)
	jobs := PeriodicTrace(10*time.Minute, 30*time.Second, 4, 4, 4)
	always, err := Simulate(c, AlwaysOn{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	onDemand, err := Simulate(c, OnDemand{Min: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if always.JobsCompleted != onDemand.JobsCompleted {
		t.Fatalf("completion mismatch: %d vs %d", always.JobsCompleted, onDemand.JobsCompleted)
	}
	if onDemand.EnergyJoules >= always.EnergyJoules*0.6 {
		t.Errorf("on-demand energy %g J should be well below always-on %g J",
			onDemand.EnergyJoules, always.EnergyJoules)
	}
	if onDemand.MeanLatency > always.MeanLatency+2*c.BootDelay {
		t.Errorf("on-demand latency %v exceeds always-on %v by more than boot slack",
			onDemand.MeanLatency, always.MeanLatency)
	}
}

func TestFineGrainedBootBeatsServerBoot(t *testing.T) {
	// The same on-demand policy with server-class boot delays (minutes)
	// hurts latency far more — the paper's responsiveness argument.
	jobs := PeriodicTrace(10*time.Minute, 30*time.Second, 4, 4, 3)
	pi := Cluster{Nodes: 24, Power: PiPower(), BootDelay: 5 * time.Second}
	server := Cluster{Nodes: 24, Power: PiPower(), BootDelay: 3 * time.Minute}
	fast, err := Simulate(pi, OnDemand{Min: 0}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Simulate(server, OnDemand{Min: 0}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if slow.MeanWait <= fast.MeanWait {
		t.Errorf("slow-boot wait %v should exceed fast-boot wait %v", slow.MeanWait, fast.MeanWait)
	}
}

func TestPolicyTargets(t *testing.T) {
	if (AlwaysOn{}).Target(0, 0, 0, 24) != 24 {
		t.Error("always-on target")
	}
	p := OnDemand{Min: 2, Headroom: 1}
	if got := p.Target(0, 0, 0, 24); got != 2 {
		t.Errorf("idle target = %d, want min 2", got)
	}
	if got := p.Target(6, 1, 4, 24); got != 4+6+1 {
		t.Errorf("loaded target = %d", got)
	}
	if got := p.Target(100, 0, 0, 24); got != 24 {
		t.Errorf("target must clamp to cluster size, got %d", got)
	}
	if (AlwaysOn{}).Name() == "" || p.Name() == "" {
		t.Error("policy names empty")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Cluster{}, AlwaysOn{}, nil); err == nil {
		t.Error("empty cluster should error")
	}
	c := piCluster(2)
	if _, err := Simulate(c, AlwaysOn{}, []Job{{Nodes: 3, Duration: time.Second}}); err == nil {
		t.Error("oversized job should error")
	}
	if _, err := Simulate(c, AlwaysOn{}, []Job{{Nodes: 1}}); err == nil {
		t.Error("zero-duration job should error")
	}
	// Empty trace completes immediately.
	rep, err := Simulate(c, AlwaysOn{}, nil)
	if err != nil || rep.JobsCompleted != 0 {
		t.Errorf("empty trace: %+v, %v", rep, err)
	}
}

func TestPeriodicTrace(t *testing.T) {
	jobs := PeriodicTrace(time.Minute, time.Second, 2, 3, 4)
	if len(jobs) != 12 {
		t.Fatalf("trace length = %d", len(jobs))
	}
	if jobs[3].Arrival != time.Minute || jobs[11].Arrival != 3*time.Minute {
		t.Error("arrivals wrong")
	}
}

func TestPowerModels(t *testing.T) {
	pi := PiPower()
	if pi.ActiveW <= pi.IdleW {
		t.Error("active draw must exceed idle")
	}
	for _, srv := range hardware.OnPrem() {
		if srv.Watts() <= srv.WattsIdle() {
			t.Errorf("%s: active draw must exceed idle", srv.Name)
		}
		if srv.WattsIdle()/srv.Watts() <= pi.IdleW/pi.ActiveW {
			t.Errorf("%s should be less energy-proportional than the Pi", srv.Name)
		}
	}
}
