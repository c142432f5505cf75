//go:build chaos

package cluster

import "testing"

// TestThrottledLinkBandwidth reproduces the paper's iperf check over a
// real loopback link: 4 MiB through one worker's throttled connection,
// timed by the wall clock. Starved of CPU (a loaded host, the race
// detector) it reads low, so it runs in make chaos (-tags chaos), not in
// go test ./...; TestThrottledConnPacing checks the same pacing against
// a fake clock there.
func TestThrottledLinkBandwidth(t *testing.T) {
	lc, err := StartLocal(1, WorkerConfig{LinkBandwidthBps: PiLinkBandwidthBps}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	bps, err := MeasureLinkBandwidth(lc.Coordinator, 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's iperf measured ~220 Mbit/s; allow generous tolerance
	// for the gob/TCP overheads of the measurement itself. The upper
	// bound is the throttle's contract and holds everywhere; the lower
	// one is a wall-clock rate the race detector's slowdown can push
	// under on a small host, so it holds only without the detector.
	if bps > 280e6 || !raceEnabled && bps < 120e6 {
		t.Errorf("throttled link = %.0f Mbit/s, want ~220", bps/1e6)
	}
}
