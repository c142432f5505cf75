// End-to-end tests that build the real command binaries and drive them
// as separate OS processes — including a true multi-process WimPi
// cluster over TCP.
package wimpi_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds every cmd/ binary once into a shared temp dir.
func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "wimpi-bin")
		if buildErr != nil {
			return
		}
		for _, name := range []string{"wimpi", "wimpi-bench", "wimpi-cluster", "wimpi-microbench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLISingleNodeQuery(t *testing.T) {
	out := run(t, "wimpi", "-sf", "0.005", "-q", "6", "-simulate")
	for _, want := range []string{"Q6", "revenue", "Pi 3B+", "op-e5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExplain(t *testing.T) {
	out := run(t, "wimpi", "-q", "3", "-explain")
	for _, want := range []string{"hash join", "scan lineitem", "order by revenue desc"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestCLIMicrobench(t *testing.T) {
	out := run(t, "wimpi-microbench", "-host-only", "-parallel", "1")
	for _, want := range []string{"whetstone", "dhrystone", "sysbench", "membw", "MWIPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("microbench missing %q:\n%s", want, out)
		}
	}
}

func TestCLIBenchTinyStudy(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.txt")
	out := run(t, "wimpi-bench", "-sf", "0.01", "-distsf", "0.01", "-sizes", "2,4", "-out", report)
	if !strings.Contains(out, "== Paper claims ==") {
		t.Fatalf("no claims section:\n%s", out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Table II ==", "Pi 3B+ x2", "== Figure 7 =="} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Scale-robust claims must hold even at SF 0.01.
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "[MISS]") {
			t.Errorf("scale-robust claim failed at tiny SF: %s", line)
		}
	}
}

func TestMultiProcessCluster(t *testing.T) {
	bin := binaries(t)

	// Two workers as real OS processes on preallocated ports.
	addrs := make([]string, 2)
	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // free the port for the worker process
		workers[i] = exec.Command(filepath.Join(bin, "wimpi-cluster"),
			"-mode", "worker", "-listen", addrs[i], "-throttle", "0")
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	// Wait for both workers to listen.
	for _, addr := range addrs {
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s did not come up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	out := run(t, "wimpi-cluster",
		"-mode", "coord", "-addrs", strings.Join(addrs, ","),
		"-sf", "0.005", "-q", "6,13", "-simulate")
	for _, want := range []string{"Q6:", "Q13:", "1 nodes", "2 nodes", "simulated WimPi wall-clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator output missing %q:\n%s", want, out)
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, ex := range []string{"quickstart", "distributed", "costreport", "energyproportional", "hybridnam"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+ex)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s: %v\n%s", ex, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", ex)
			}
		})
	}
}

func TestCLIAnalyzeAndSnapshot(t *testing.T) {
	out := run(t, "wimpi", "-sf", "0.005", "-q", "3", "-explain")
	for _, want := range []string{"explain analyze", "operator", "scan lineitem", "sim(Pi 3B+)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// -explain is the one EXPLAIN ANALYZE: the old tabular -analyze flag
	// is gone.
	if out, err := exec.Command(filepath.Join(binaries(t), "wimpi"), "-analyze").CombinedOutput(); err == nil {
		t.Errorf("wimpi -analyze should be an unknown flag:\n%s", out)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	run(t, "wimpi", "-sf", "0.005", "-q", "6", "-save", dir, "-rows", "0")
	out = run(t, "wimpi", "-load", dir, "-q", "6", "-rows", "1")
	if !strings.Contains(out, "revenue") {
		t.Errorf("snapshot-loaded query output missing revenue:\n%s", out)
	}
	// The snapshot directory holds one file per table plus a manifest.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Errorf("snapshot dir has %d entries, want 9", len(entries))
	}
}
