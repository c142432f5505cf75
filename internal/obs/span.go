package obs

import (
	"sync"
	"time"

	"wimpi/internal/exec"
)

// Span records one operator's execution inside a query trace: its wall
// time, output cardinality and footprint, and the snapshot delta of
// exec.Counters charged while it (and its children) ran.
//
// Measurements are stored inclusive of children; SelfWall and
// SelfCounters subtract the direct children, so per-operator attribution
// never double-counts. Wall time is measured and purely informational;
// rows, bytes, and counters are deterministic — morsel workers
// accumulate into per-worker Counters that exec.RunMorsels merges in
// morsel order, so a span's counter delta is bit-identical at every
// worker count from 2 up (one worker skips some merge passes).
type Span struct {
	// Op is the operator kind ("scan", "sort", "group-by", "hash-join",
	// "join-build", "join-probe", "exchange", "node", "merge", ...).
	Op string
	// Label is the operator's one-line description, e.g. "scan lineitem".
	Label string
	// Rows is the operator's output cardinality.
	Rows int64
	// Bytes is the operator's output footprint.
	Bytes int64
	// Wall is the wall-clock time spent in the operator, including its
	// children. Informational only: never compared, never fed back into
	// results.
	Wall time.Duration
	// Counters is the work charged while the span was open, including
	// children.
	Counters exec.Counters
	// Err records whether the operator failed.
	Err bool
	// Children are the sub-operator spans, in execution order.
	Children []*Span

	start  time.Time
	before exec.Counters
}

// SelfWall is the span's wall time excluding its direct children.
func (s *Span) SelfWall() time.Duration {
	d := s.Wall
	for _, c := range s.Children {
		d -= c.Wall
	}
	if d < 0 {
		d = 0
	}
	return d
}

// SelfCounters is the span's counter delta excluding its direct
// children. The high-water fields (MaxHashBytes, PeakLiveBytes,
// MaxPartitionBytes, ResidentCapBytes) keep the query-wide mark at the
// span's close, not the span's own, so spans.golden shows them per query.
func (s *Span) SelfCounters() exec.Counters {
	c := s.Counters
	for _, ch := range s.Children {
		c = exec.DiffCounters(ch.Counters, c)
	}
	return c
}

// NumSpans counts the spans in the tree rooted at s.
func (s *Span) NumSpans() int {
	n := 1
	for _, c := range s.Children {
		n += c.NumSpans()
	}
	return n
}

// Walk visits the tree in pre-order (parents before children, children
// in execution order), calling fn with each span and its depth.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// Tracer builds a span tree while a query executes. Begin/End pairs
// nest; the tracer snapshots the live counter set around each span.
// All methods are safe for concurrent use, though the engine's
// operator-at-a-time executor opens spans sequentially (morsel
// parallelism lives inside kernels, below the span layer, and merges
// its per-worker counters in morsel order before a span closes).
type Tracer struct {
	// Hook, when non-nil, observes every Begin before the span opens.
	// It exists for deterministic tests that need to act at an exact
	// pipeline stage (e.g. cancel a query the moment its sort starts);
	// production tracers leave it nil. Set it before the query runs — it
	// is read without synchronization and called outside the tracer lock.
	Hook func(op, label string)

	mu    sync.Mutex
	ctr   *exec.Counters
	root  *Span
	stack []*Span
}

// NewTracer returns a tracer snapshotting ctr around every span.
func NewTracer(ctr *exec.Counters) *Tracer {
	return &Tracer{ctr: ctr}
}

// Begin opens a span as a child of the innermost open span, or as the
// root; a later top-level span stays out of the tree, its work in no span.
// It returns the span to pass to End. A nil tracer is a valid
// no-op tracer: Begin returns nil and End(nil, ...) does nothing, so
// instrumented operators need no "is tracing on" branches.
func (t *Tracer) Begin(op, label string) *Span {
	if t == nil {
		return nil
	}
	if hook := t.Hook; hook != nil {
		hook(op, label)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Op: op, Label: label, before: *t.ctr}
	//lint:allow taintflow -- span wall time is measured and reported, never fed back into results
	s.start = time.Now()
	if n := len(t.stack); n > 0 {
		t.stack[n-1].Children = append(t.stack[n-1].Children, s)
	} else if t.root == nil {
		t.root = s
	}
	t.stack = append(t.stack, s)
	return s
}

// End closes a span with its output cardinality and footprint, capturing
// the wall time and counter delta. Spans must close innermost-first;
// closing an outer span first also closes (as errored) anything still
// open inside it.
func (t *Tracer) End(s *Span, rows, bytes int64) {
	t.finish(s, rows, bytes, false)
}

// EndErr closes a span that failed.
func (t *Tracer) EndErr(s *Span) { t.finish(s, 0, 0, true) }

func (t *Tracer) finish(s *Span, rows, bytes int64, errd bool) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		top.Wall = now.Sub(top.start)
		top.Counters = exec.DiffCounters(top.before, *t.ctr)
		if top == s {
			top.Rows, top.Bytes, top.Err = rows, bytes, errd
			return
		}
		top.Err = true // implicitly closed by an outer End: it never finished cleanly
	}
}

// Root returns the root span of the trace (nil before the first Begin,
// and nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}
