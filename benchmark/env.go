package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is recorded with every run, so numbers from different
// hosts or loads are not compared by accident.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Workers    int     `json:"engine_workers"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1min"`
}

func readEnvironment(workers int) environment {
	e := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// engineWorkers is W: never more parallelism than the host has, and 2 at
// most so a two-CPU sandbox and a larger host run the same plan shapes.
func engineWorkers() int { return min(2, runtime.NumCPU()) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or 0
// where /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// currentRSSMB is the process's resident set right now (/proc/self/statm),
// or 0 where /proc does not say.
func currentRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
