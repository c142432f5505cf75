package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// runFile is what -out writes and -compare reads: any number of runs, so
// a set of repeats is built by running with the same -out again.
type runFile struct {
	Runs []runRecord `json:"runs"`
}

func loadRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRun(path string, run *runRecord) error {
	f, err := loadRuns(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, *run)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// values collects one end-to-end metric of one workload over a file's
// untraced, comparable, correct runs.
func (f *runFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 && r.Comparable && r.Correct {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// verdict judges b against a for one metric. worse is how much worse b's
// median is, as a share of a's (negative: better). A spread wider than the
// bound on either side means the runs cannot resolve a change of the size
// the bound forbids, so the verdict is "unresolved", never "ok".
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > d.bound {
			return worse, "unresolved"
		}
	}
	if worse > d.bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// b's relative difference with a as its base, the bound and the verdict.
// It returns 1 when anything regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareRuns(a, b, stdout)
}

func compareRuns(a, b *runFile, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-8s %-18s %12s %12s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b vs a", "bound", "iqr a", "iqr b", "verdict")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a.values(w, d.name), b.values(w, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(d, va, vb)
			if v == "regressed" {
				code = 1
			}
			sa, _ := spread(va)
			sb, _ := spread(vb)
			diff := (median(vb) - median(va)) / median(va)
			fmt.Fprintf(stdout, "%-8s %-18s %12.4f %12.4f %+8.2f%% %6.1f%% %6.2f%% %6.2f%%  %s",
				w, d.name, median(va), median(vb), diff*100, d.bound*100, sa*100, sb*100, v)
			if v == "regressed" {
				fmt.Fprintf(stdout, " (%.1f%% worse, n=%d vs %d)", worse*100, len(va), len(vb))
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}
