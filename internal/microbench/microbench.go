// Package microbench implements the four microbenchmarks of the paper's
// Section II-C — Whetstone, Dhrystone, sysbench CPU (prime search), and
// sequential memory bandwidth — in two forms:
//
//   - Host kernels that really execute the benchmark loops on the local
//     machine (Run* functions), used to sanity-check the implementation
//     and to give a feel for the host's own capability.
//   - Per-profile projections (Project* functions) that evaluate each
//     benchmark's analytic score for any hardware.Profile, regenerating
//     the relative single-core and all-core results of Figure 2a-2d.
package microbench

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Result is one microbenchmark measurement or projection.
type Result struct {
	// Name identifies the benchmark.
	Name string
	// Cores is the number of cores used.
	Cores int
	// Score is the benchmark score; Unit gives its meaning. For
	// sysbench, lower is better (seconds); for the others, higher is
	// better.
	Score float64
	// Unit is "MWIPS", "DMIPS", "seconds", or "GB/s".
	Unit string
}

// RunWhetstone executes a Whetstone-style floating-point kernel on the
// host: the classic mix of polynomial evaluation, trigonometric and
// transcendental work. It returns MWIPS (millions of Whetstone
// instructions per second).
func RunWhetstone(iters int) Result {
	start := time.Now()
	x := whetstoneKernel(iters)
	elapsed := time.Since(start).Seconds()
	_ = x
	// One outer iteration corresponds to roughly 100 Whetstone
	// "instructions" in the classic benchmark's accounting.
	mwips := float64(iters) * 100 / elapsed / 1e6
	return Result{Name: "whetstone", Cores: 1, Score: mwips, Unit: "MWIPS"}
}

func whetstoneKernel(iters int) float64 {
	// Module mix adapted from the classic benchmark: array arithmetic,
	// trig identities, and transcendental functions.
	e1 := [4]float64{1.0, -1.0, -1.0, -1.0}
	t := 0.499975
	t2 := 2.0
	var x, y float64 = 0.2, 0.3
	for i := 0; i < iters; i++ {
		// Module 1: simple identifiers.
		e1[0] = (e1[0] + e1[1] + e1[2] - e1[3]) * t
		e1[1] = (e1[0] + e1[1] - e1[2] + e1[3]) * t
		e1[2] = (e1[0] - e1[1] + e1[2] + e1[3]) * t
		e1[3] = (-e1[0] + e1[1] + e1[2] + e1[3]) / t2
		// Module 4: trigonometric functions.
		x = t * math.Atan(t2*math.Sin(x)*math.Cos(x)/(math.Cos(x+y)+math.Cos(x-y)-1.0))
		y = t * math.Atan(t2*math.Sin(y)*math.Cos(y)/(math.Cos(x+y)+math.Cos(x-y)-1.0))
		// Module 8: procedure calls / standard functions.
		x = t * math.Exp(math.Log(math.Sqrt(x*x+1.0)))
	}
	return x + y + e1[0] + e1[1] + e1[2] + e1[3]
}

// RunDhrystone executes a Dhrystone-style integer and branch kernel on
// the host, returning DMIPS (Dhrystone MIPS relative to the VAX 11/780's
// 1757 Dhrystones/s).
func RunDhrystone(iters int) Result {
	start := time.Now()
	v := dhrystoneKernel(iters)
	elapsed := time.Since(start).Seconds()
	_ = v
	dps := float64(iters) / elapsed
	return Result{Name: "dhrystone", Cores: 1, Score: dps / 1757, Unit: "DMIPS"}
}

func dhrystoneKernel(iters int) int {
	// Integer arithmetic, array indexing, string-ish byte comparisons and
	// control flow, mirroring the original's statement mix.
	arr := [64]int{}
	s1 := []byte("DHRYSTONE PROGRAM, SOME STRING")
	s2 := []byte("DHRYSTONE PROGRAM, 2'ND STRING")
	v := 0
	for i := 0; i < iters; i++ {
		a := i & 63
		arr[a] = arr[(a+7)&63] + i
		if arr[a]&1 == 0 {
			v += arr[a] >> 1
		} else {
			v -= arr[a] >> 2
		}
		eq := true
		for j := 0; j < len(s1); j++ {
			if s1[j] != s2[j] {
				eq = false
				break
			}
		}
		if eq {
			v++
		}
		v = v*5 + 3
		v %= 65536
	}
	return v + arr[0]
}

// RunSysbenchCPU executes the sysbench CPU benchmark on the host:
// verifying primality of every integer up to maxPrime by trial division.
// Lower scores (seconds) are better.
func RunSysbenchCPU(maxPrime int) Result {
	start := time.Now()
	n := countPrimes(3, maxPrime)
	elapsed := time.Since(start).Seconds()
	_ = n
	return Result{Name: "sysbench-cpu", Cores: 1, Score: elapsed, Unit: "seconds"}
}

func countPrimes(lo, hi int) int {
	count := 0
	for c := lo; c <= hi; c++ {
		t := math.Sqrt(float64(c))
		isPrime := true
		for l := 2; float64(l) <= t; l++ {
			if c%l == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			count++
		}
	}
	return count
}

// RunMemBW measures host sequential read bandwidth over a buffer of the
// given size, returning GB/s. After one untimed warm-up pass it reports
// the fastest of five timed repetitions of four passes: a single timed
// run swings several-fold with what else the host is doing.
func RunMemBW(bytes int) Result {
	buf := make([]uint64, bytes/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	const passes, reps = 4, 5
	sum := sumPass(buf)
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for p := 0; p < passes; p++ {
			sum += sumPass(buf)
		}
		best = math.Min(best, time.Since(start).Seconds())
	}
	runtime.KeepAlive(sum) // the reads must not be optimized away
	gbps := float64(bytes) * passes / best / 1e9
	return Result{Name: "membw", Cores: 1, Score: gbps, Unit: "GB/s"}
}

func sumPass(buf []uint64) uint64 {
	var sum uint64
	for _, v := range buf {
		sum += v
	}
	return sum
}

// RunParallel runs fn on n goroutines and reports the aggregate score,
// modeling the paper's "all cores" configurations. For "seconds" units
// the score is the slowest worker (fixed work split n ways would be
// score/n; sysbench instead divides the candidate range).
func RunParallel(n int, fn func() Result) Result {
	if n < 1 {
		n = 1
	}
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = fn()
		}(i)
	}
	wg.Wait()
	out := results[0]
	out.Cores = n
	if out.Unit == "seconds" {
		// Aggregate wall time for 1/n of the work each: the max.
		var max float64
		for _, r := range results {
			if r.Score > max {
				max = r.Score
			}
		}
		out.Score = max
	} else {
		var sum float64
		for _, r := range results {
			sum += r.Score
		}
		out.Score = sum
	}
	return out
}

// ParallelCapacity measures how many cores' worth of work the host
// really delivers to n spinning goroutines: the aggregate throughput of n
// goroutines each running a fixed integer kernel, divided by the
// throughput of one goroutine running it alone. A dedicated n-core
// machine reports n; a container capped below its visible CPU count
// reports its cap, which is then the ceiling on any parallel speed-up
// measured there. It also returns the two wall times behind the ratio.
func ParallelCapacity(n int) (capacity, oneSec, allSec float64) {
	if n < 1 {
		n = 1
	}
	const iters = 60_000_000
	spin := func(k int) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = dhrystoneKernel(iters)
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds()
	}
	oneSec, allSec = spin(1), spin(n)
	return float64(n) * oneSec / allSec, oneSec, allSec
}

// HostCores returns the host's logical CPU count.
func HostCores() int { return runtime.NumCPU() }
