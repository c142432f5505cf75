// Command benchmark is the repository's one benchmark: four workloads
// (power, spill, serve, cluster) against the program's public functions,
// every result checked, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "all", "power, spill, serve, cluster, or all (one process each, in turn)")
	seed := fs.Uint64("seed", 1, "seeds the dataset, the pass orders, the parameter variants and the Zipf draws")
	seconds := fs.Float64("seconds", 12, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke test: SF 0.02, 3 passes; output is stamped not comparable")
	out := fs.String("out", "", "append this run's result to a JSON file (-compare reads such files)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	case *workloadName == "all":
		return runAll(args, stderr)
	}
	cfg := newRunConfig(*workloadName, *seed, *seconds, *trace == 1, *quick)
	run, err := runOne(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	run.Seconds = *seconds
	if *out != "" {
		if err := appendRun(*out, run); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(run.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return run.exitCode()
}

// exitCode is non-zero when any operation failed its check.
func (r *runRecord) exitCode() int {
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload and kind of run, never
// two at a time, so set-up time and peak memory are each workload's own.
func runAll(args []string, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			// Later flags win, so the caller's -workload and -trace are overridden.
			cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w, "-trace", trace)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s -trace %s: %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is a result with what is needed to compare it with another.
type runRecord struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      int         `json:"trace"`
	Comparable bool        `json:"comparable"`
	Env        environment `json:"env"`
	result
}

// setupRepeats is how often an untraced run sets the workload up; setup_s
// is the median, because one set-up is a single noisy sample.
const setupRepeats = 3

// runOne runs one workload in this process and prints its report.
func runOne(cfg runConfig, stdout io.Writer) (*runRecord, error) {
	t := &tally{}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	w, err := newWorkload(cfg, t, rec)
	if err != nil {
		return nil, err
	}
	env := readEnvironment(cfg.workers)
	if err := gate(cfg.seed, cfg.workers, t); err != nil {
		return nil, err
	}

	repeats := setupRepeats
	if cfg.trace || cfg.quick {
		repeats = 1
	}
	defer w.teardown()
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			// Give the previous set-up's memory back first, so repeats
			// do not raise the peak the run reports.
			w.teardown()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	measured, err := w.measure()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	var m metrics
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		m = metrics{}
		if err := w.layers(measured, m); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", cfg.workload, err)
		}
		if err := rec.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	} else {
		m = endToEndMetrics(measured, setups)
	}
	m = m.complete(defs)

	run := newRunRecord(cfg, env, t, m, defs)
	fmt.Fprintf(stdout, "workload %s  seed %d  sf %g  trace %d  comparable %t\n",
		cfg.workload, cfg.seed, cfg.sf, run.Trace, run.Comparable)
	fmt.Fprintf(stdout, "env: %s gomaxprocs=%d nproc=%d W=%d commit=%s load1=%.2f\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Workers, env.Commit, env.LoadAvg1)
	fmt.Fprintf(stdout, "measured phase: %s; set-ups: %d\n", w.describe(measured), len(setups))
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-34s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", t.attempted, t.failed)
	for _, msg := range t.msgs {
		fmt.Fprintln(stdout, "  FAILED:", msg)
	}
	return run, nil
}

// newRunRecord turns the tally and the metrics into the run's result. A
// run is correct only when it checked something and nothing failed.
func newRunRecord(cfg runConfig, env environment, t *tally, m metrics, defs []metricDef) *runRecord {
	run := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Comparable: !cfg.quick, Env: env,
		result: result{
			Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
			Metrics: make(map[string]metricValue, len(defs)),
		},
	}
	if cfg.trace {
		run.Trace = 1
	}
	for _, d := range defs {
		run.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return run
}
