// Command wimpi-microbench reproduces the paper's Section II-C
// microbenchmarks: it runs the Whetstone, Dhrystone, sysbench-CPU and
// memory-bandwidth kernels on the host, then prints the projected
// Figure 2 scores for all ten Table I comparison points.
package main

import (
	"flag"
	"fmt"
	"runtime"

	"wimpi/internal/hardware"
	"wimpi/internal/microbench"
)

func main() {
	hostOnly := flag.Bool("host-only", false, "run only the host kernels")
	parallel := flag.Int("parallel", microbench.HostCores(), "host kernel thread count for the all-core pass")
	flag.Parse()

	fmt.Println("host kernels (measured on this machine):")
	single := []microbench.Result{
		microbench.RunWhetstone(500_000),
		microbench.RunDhrystone(5_000_000),
		microbench.RunSysbenchCPU(20_000),
		microbench.RunMemBW(32 << 20),
	}
	for _, r := range single {
		fmt.Printf("  %-14s 1 core: %12.2f %s\n", r.Name, r.Score, r.Unit)
	}
	all := []microbench.Result{
		microbench.RunParallel(*parallel, func() microbench.Result { return microbench.RunWhetstone(500_000) }),
		microbench.RunParallel(*parallel, func() microbench.Result { return microbench.RunDhrystone(5_000_000) }),
		microbench.RunParallel(*parallel, func() microbench.Result { return microbench.RunSysbenchCPU(20_000) }),
	}
	for _, r := range all {
		fmt.Printf("  %-14s %d cores: %11.2f %s\n", r.Name, r.Cores, r.Score, r.Unit)
	}
	procs := runtime.GOMAXPROCS(0)
	capacity, oneSec, allSec := microbench.ParallelCapacity(procs)
	fmt.Printf("  %-14s %d procs: %11.2f cores (%d spinning goroutines take %.2f s for what one does in %.2f s)\n",
		"parallel capacity", procs, capacity, procs, allSec, oneSec)
	if *hostOnly {
		return
	}

	fmt.Println("\nprojected Figure 2 scores (single core / all cores):")
	profiles := hardware.Profiles()
	type proj struct {
		name string
		f    func(*hardware.Profile, int) microbench.Result
	}
	for _, pr := range []proj{
		{"whetstone (MWIPS)", microbench.ProjectWhetstone},
		{"dhrystone (DMIPS)", microbench.ProjectDhrystone},
		{"sysbench (s, lower better)", microbench.ProjectSysbenchCPU},
		{"membw (GB/s)", microbench.ProjectMemBW},
	} {
		fmt.Printf("\n  %s\n", pr.name)
		for i := range profiles {
			p := &profiles[i]
			one := pr.f(p, 1)
			all := pr.f(p, 0)
			fmt.Printf("    %-12s %12.2f / %-12.2f\n", p.Name, one.Score, all.Score)
		}
	}
}
