// Command wimpi-lint is the multichecker for the wimpi invariant suite,
// five analyzers: determinism as taint flow, path-sensitive cost
// accounting, sealed-set exhaustiveness, context discipline, and
// wire-protocol error handling (see internal/lint). It also runs the
// stock `go vet` passes alongside the custom analyzers, so one
// invocation gives the full static gate:
//
//	wimpi-lint ./...
//
// Flags:
//
//	-C dir          run as if started in dir (the module root)
//	-novet          skip the stock go vet passes
//	-list           print the suite and exit
//	-json           emit findings as a JSON array on stdout
//	-sarif file     additionally write findings as SARIF 2.1.0 to file
//	-deadline d     fail if the run takes longer than d (0 disables);
//	                `make lint` and `make lint-report` pass 120s, so the
//	                suite's own cost is gated on every run CI makes
//
// The exit status is non-zero if any analyzer (or vet) reports a
// finding. Findings are suppressed only by an audited
// `//lint:allow <analyzer> -- reason` directive at the offending site;
// a directive that suppresses nothing is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"wimpi/internal/lint"
)

func main() {
	os.Exit(run())
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run() int {
	dir := flag.String("C", ".", "directory to run in (module root)")
	noVet := flag.Bool("novet", false, "skip the stock go vet passes")
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	deadline := flag.Duration("deadline", 0, "fail if the run exceeds this duration (0 disables)")
	flag.Parse()
	start := time.Now()

	if *list {
		for _, sa := range lint.Suite() {
			fmt.Printf("%-16s %s\n", sa.Analyzer.Name, sa.Analyzer.Doc)
			for _, p := range sa.Packages {
				fmt.Printf("%-16s   scope %s\n", "", p)
			}
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		root = *dir
	}

	var findings []finding
	for _, pkg := range pkgs {
		analyzers := lint.AnalyzersFor(pkg.PkgPath)
		if len(analyzers) == 0 {
			continue
		}
		// RunAll adds the directive audit: an allow that suppressed
		// nothing is reported as unuseddirective.
		for _, d := range lint.RunAll(pkg, analyzers...) {
			if !*jsonOut {
				fmt.Println(d)
			}
			file := d.Pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
				file = rel
			}
			findings = append(findings, finding{
				File:     file,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	vetFailed := false
	if !*noVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = *dir
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "wimpi-lint: %d finding(s)\n", len(findings))
	}
	if *deadline > 0 {
		if elapsed := time.Since(start); elapsed > *deadline {
			fmt.Fprintf(os.Stderr, "wimpi-lint: run took %s, over the %s deadline\n",
				elapsed.Round(time.Millisecond), *deadline)
			return 1
		}
	}
	if len(findings) > 0 || vetFailed {
		return 1
	}
	return 0
}

// writeSARIF emits the findings as a minimal SARIF 2.1.0 log, the
// format CI code-scanning uploads consume.
func writeSARIF(path string, findings []finding) error {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifArtifact struct {
		URI string `json:"uri"`
	}
	type sarifPhysical struct {
		ArtifactLocation sarifArtifact `json:"artifactLocation"`
		Region           sarifRegion   `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysical `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	type sarifRule struct {
		ID string `json:"id"`
	}
	type sarifDriver struct {
		Name  string      `json:"name"`
		Rules []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Version string     `json:"version"`
		Schema  string     `json:"$schema"`
		Runs    []sarifRun `json:"runs"`
	}

	seen := map[string]bool{}
	rules := []sarifRule{}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		if !seen[f.Analyzer] {
			seen[f.Analyzer] = true
			rules = append(rules, sarifRule{ID: f.Analyzer})
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File)},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "wimpi-lint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
