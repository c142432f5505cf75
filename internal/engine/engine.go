// Package engine ties the WimPi OLAP engine together: an in-memory
// catalog of columnar tables, a configurable executor, and the query
// result type carrying both the answer and the work profile used by the
// hardware simulation layer.
package engine

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
)

// Engine-level metrics, registered on the shared default registry so the
// CLI tools can dump one coherent snapshot.
var (
	metricQueries     = obs.Default.Counter("wimpi_engine_queries_total")
	metricMorsels     = obs.Default.Counter("wimpi_exec_morsels_total")
	metricMorselDepth = obs.Default.Gauge("wimpi_exec_morsel_queue_depth")
)

func init() {
	// exec cannot import obs (obs stores exec.Counters in spans), so the
	// morsel dispatch metrics are fed through a hook installed here.
	exec.MorselHook = func(workers, morsels int) {
		metricMorsels.Add(int64(morsels))
		metricMorselDepth.Set(int64(morsels))
	}
}

// Config controls an engine instance.
type Config struct {
	// Workers bounds intra-query parallelism. Values < 1 select the
	// runtime default, runtime.GOMAXPROCS(0).
	Workers int
	// Exec selects the execution strategy: plan.ExecVector (the default)
	// runs plans operator-at-a-time, and plan.ExecFused compiles
	// pipelines into fused kernels. It changes which code runs, never the
	// result.
	Exec plan.ExecMode
	// Pool, when non-nil, is a shared morsel worker pool: concurrent
	// queries (traced or not) interleave over its fixed workers
	// under fair-share scheduling instead of each spawning its own
	// goroutines. Results stay bit-identical — the pool changes who
	// executes a morsel, never the morsel decomposition.
	Pool *exec.Pool
	// MemBudgetBytes, when positive, bounds every query's live
	// intermediate memory. Plans with a spillable operator degrade
	// smoothly through the budget-bounded spill scheduler; plans without
	// one are cancelled with *plan.MemLimitError when they cross it.
	// Results are bit-identical with and without a budget.
	MemBudgetBytes int64
	// SpillDir is where per-query spill areas are created when a memory
	// budget forces operators to disk. Empty selects the OS temp
	// directory.
	SpillDir string
}

// DB is an in-memory database: a named set of columnar tables. It is safe
// for concurrent query execution; registration must complete before
// queries begin.
type DB struct {
	cfg Config

	mu     sync.RWMutex
	tables map[string]*colstore.Table
}

// NewDB returns an empty database.
func NewDB(cfg Config) *DB {
	return &DB{cfg: cfg, tables: make(map[string]*colstore.Table)}
}

// Register adds or replaces a table.
func (db *DB) Register(t *colstore.Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[t.Name] = t
}

// Table implements plan.Catalog.
func (db *DB) Table(name string) (*colstore.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// TableNames returns the registered table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SizeBytes reports the total footprint of all registered tables,
// including string dictionaries (each counted once).
func (db *DB) SizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	seen := map[*colstore.Dict]bool{}
	for _, t := range db.tables {
		n += t.SizeBytes()
		for _, c := range t.Cols {
			if s, ok := c.(*colstore.Strings); ok && !seen[s.Dict] {
				seen[s.Dict] = true
				n += s.Dict.SizeBytes()
			}
		}
	}
	return n
}

// Workers reports the configured parallelism; unconfigured databases
// default to the number of schedulable CPUs.
func (db *DB) Workers() int {
	if db.cfg.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return db.cfg.Workers
}

// Result is the outcome of a query execution.
type Result struct {
	// Table is the answer.
	Table *colstore.Table
	// Counters is the work profile recorded by the kernels.
	Counters exec.Counters
	// HostDuration is the wall-clock time spent on the host machine. The
	// simulated per-profile durations come from package hardware.
	HostDuration time.Duration
	// Root is the operator span tree of a RunTraced call; nil otherwise.
	Root *obs.Span
}

// morselRows is every query's morsel size, and so its parallelism
// threshold; 0 selects exec.DefaultMorselRows. Only tests set it, to
// send small inputs down every parallel path (SetMorselRows).
var morselRows int

// planCtx builds the execution context for one query.
func (db *DB) planCtx(workers int) *plan.Context {
	return &plan.Context{
		Cat:           db,
		Workers:       workers,
		MorselRows:    morselRows,
		Exec:          db.cfg.Exec,
		MemLimitBytes: db.cfg.MemBudgetBytes,
		SpillDir:      db.spillDir(),
	}
}

// spillDir resolves where spill areas go: the configured directory, or
// the OS temp directory.
func (db *DB) spillDir() string {
	if db.cfg.SpillDir != "" {
		return db.cfg.SpillDir
	}
	return os.TempDir()
}

// QueryOpts shape one RunQuery call.
type QueryOpts struct {
	// Workers bounds the query's parallelism; < 1 selects the database
	// default. With a shared pool it caps the goroutines running the
	// query's morsels at once — the caller and up to Workers-1 pool
	// workers — and reserves none.
	Workers int
	// Weight is the query's fair-share weight in the shared pool; < 1
	// selects 1. A weight-2 query receives twice the pool share of a
	// weight-1 query.
	Weight int
	// MemLimitBytes, when positive, bounds this query's live
	// intermediate memory, overriding the database's MemBudgetBytes.
	// Plans with a spillable operator degrade through the spill
	// scheduler; plans without one are cancelled with a
	// *plan.MemLimitError once they cross the budget.
	MemLimitBytes int64
}

// RunQuery executes a plan under a cancellation context, the database's
// shared worker pool (when configured), and an optional memory budget.
// Concurrent RunQuery calls on one DB interleave morsel-by-morsel instead
// of oversubscribing the host, and ctx cancellation stops the query at the
// next morsel boundary. Results are bit-identical at every worker count,
// with and without a pool or a budget.
func (db *DB) RunQuery(ctx context.Context, p plan.Node, opts QueryOpts) (*Result, error) {
	return db.run(ctx, p, opts, false)
}

// RunTraced executes a plan with operator span tracing (the machinery
// behind EXPLAIN ANALYZE) under the database's defaults. The result table
// and counters are bit-identical to RunQuery's; Root holds the span tree.
func (db *DB) RunTraced(p plan.Node) (*Result, error) {
	return db.run(context.Background(), p, QueryOpts{}, true)
}

// run is the one query lifecycle behind RunQuery and RunTraced.
func (db *DB) run(ctx context.Context, p plan.Node, opts QueryOpts, traced bool) (*Result, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = db.Workers()
	}
	metricQueries.Inc()
	var sched *exec.Sched
	if db.cfg.Pool != nil {
		sched = db.cfg.Pool.Attach(ctx, opts.Weight)
		defer sched.Release()
	}
	pctx := db.planCtx(workers)
	pctx.Ctx = ctx
	pctx.Sched = sched
	if opts.MemLimitBytes > 0 {
		pctx.MemLimitBytes = opts.MemLimitBytes
	}
	if traced {
		pctx.Trace = &obs.Tracer{} // asks plan.RunContext for a span tree
	}
	//lint:allow taintflow -- measured wall clock, reported as HostDuration; results never depend on it
	start := time.Now()
	res, err := plan.RunContext(pctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{Table: res.Table, Counters: res.Counters, HostDuration: time.Since(start), Root: res.Root}, nil
}

// Explain renders a plan without executing it, after applying the
// database's execution-mode compilation so fused pipelines are visible.
func (db *DB) Explain(p plan.Node) string {
	return plan.Explain(plan.Compile(db.planCtx(db.Workers()), p))
}

// FormatTable renders a result table as aligned text, up to maxRows rows.
// It is used by the CLI tools and examples.
func FormatTable(t *colstore.Table, maxRows int) string {
	var b strings.Builder
	names := t.Schema.Names()
	widths := make([]int, len(names))
	rows := t.NumRows()
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	cells := make([][]string, rows)
	for i := range widths {
		widths[i] = len(names[i])
	}
	for r := 0; r < rows; r++ {
		cells[r] = make([]string, len(names))
		for c := 0; c < t.NumCols(); c++ {
			s := formatCell(t.Col(c), r)
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, n := range names {
		fmt.Fprintf(&b, "%-*s  ", widths[i], n)
	}
	b.WriteString("\n")
	for i := range names {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for r := 0; r < rows; r++ {
		for c := range names {
			fmt.Fprintf(&b, "%-*s  ", widths[c], cells[r][c])
		}
		b.WriteString("\n")
	}
	if rows < t.NumRows() {
		fmt.Fprintf(&b, "... (%d rows total)\n", t.NumRows())
	}
	return b.String()
}

func formatCell(c colstore.Column, row int) string {
	switch col := c.(type) {
	case *colstore.Int64s:
		return fmt.Sprintf("%d", col.V[row])
	case *colstore.Float64s:
		return fmt.Sprintf("%.4f", col.V[row])
	case *colstore.Dates:
		return colstore.FormatDate(col.V[row])
	case *colstore.Strings:
		return col.Value(row)
	case *colstore.Bools:
		return fmt.Sprintf("%t", col.V[row])
	default:
		return "?"
	}
}
