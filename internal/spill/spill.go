// Package spill implements the bounded on-disk spill area behind the
// engine's budget-bounded operators. When a join's build side would
// claim over half of plan.Context.MemLimitBytes (its probe side streams
// past a build that fits), the radix partitions of both sides beyond
// the resident set are written here — one segment per join side — and
// read back one partition at a time: planned, sequential, charged I/O
// instead of the OS paging the engine's random accesses through swap.
//
// Every write and read charges exec.Counters (SpillWriteBytes /
// SpillReadBytes), so the hardware model prices the spill at the
// device's sequential bandwidth; and every I/O loop is bounded by a
// context, so a cancelled query stops spilling at the next chunk
// boundary.
package spill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"wimpi/internal/exec"
)

// DefaultAreaLimit bounds a spill area when the caller does not choose:
// generous enough for SF10-class working sets, small enough that a
// runaway query cannot fill the device.
const DefaultAreaLimit = 8 << 30

// ioChunk is the unit of a spill read/write between context checks and
// counter charges.
const ioChunk = 1 << 20

// pairBytes is the on-disk footprint of one (key, row id) pair.
const pairBytes = 8 + 4

// Area is a bounded on-disk spill area: a private temp directory plus a
// byte budget. Close removes everything. Segments are created and closed
// by the query's driving goroutine only (the write order is part of
// determinism); reading an open segment is safe from any goroutine.
type Area struct {
	dir   string
	limit int64
	used  int64
	nseg  int
	open  []*Segment // closed with the area; a segment closed earlier stays listed
}

// NewArea creates a spill area under dir (or the OS temp directory when
// dir is empty) holding at most limitBytes (DefaultAreaLimit when 0).
func NewArea(dir string, limitBytes int64) (*Area, error) {
	if limitBytes <= 0 {
		limitBytes = DefaultAreaLimit
	}
	d, err := os.MkdirTemp(dir, "wimpi-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: create area: %w", err)
	}
	return &Area{dir: d, limit: limitBytes}, nil
}

// Dir returns the area's directory.
func (a *Area) Dir() string { return a.dir }

// UsedBytes returns the bytes currently written to the area.
func (a *Area) UsedBytes() int64 { return a.used }

// Close closes every segment and removes the area.
//
//lint:allow costaccounting -- closes a query's handful of segment files, not data-path work
func (a *Area) Close() error {
	if a == nil || a.dir == "" {
		return nil
	}
	var err error
	for _, s := range a.open {
		err = errors.Join(err, s.Close())
	}
	dir := a.dir
	a.dir = ""
	return errors.Join(err, os.RemoveAll(dir))
}

// Segment is one spilled run of (key, row id) pairs: all the keys, then
// all the row ids, in the byte order of the machine. That is safe because
// a segment is a private temp file of one process — written, read back
// and removed by the query that created it, never a format anything else
// reads — and it lets a partition be one ReadAt per column straight into
// the reader's buffers. The file stays open for the segment's lifetime:
// (*os.File).ReadAt is safe for concurrent use, so partitions of one
// segment can be read by several workers at once.
type Segment struct {
	area *Area
	f    *os.File
	n    int
}

// Len returns the segment's pair count. A nil segment is empty.
func (s *Segment) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// SizeBytes returns the segment's on-disk footprint.
func (s *Segment) SizeBytes() int64 { return int64(s.Len()) * pairBytes }

// WriteSegment writes keys and their row ids (the same length) to a new
// segment — two sequential writes — charging them as spill I/O. It fails
// when the segment would push the area past its byte budget: the spill
// area is itself a bounded resource, not a second unbounded memory.
func (a *Area) WriteSegment(ctx context.Context, keys []int64, rows []int32, ctr *exec.Counters) (*Segment, error) {
	if a == nil || a.dir == "" {
		return nil, fmt.Errorf("spill: write to closed area")
	}
	if len(rows) != len(keys) {
		return nil, fmt.Errorf("spill: keys/rows length mismatch: %d vs %d", len(keys), len(rows))
	}
	size := int64(len(keys)) * pairBytes
	if a.used+size > a.limit {
		return nil, fmt.Errorf("spill: area budget exceeded: %d + %d > %d bytes", a.used, size, a.limit)
	}
	f, err := os.Create(filepath.Join(a.dir, fmt.Sprintf("seg-%06d", a.nseg)))
	if err != nil {
		return nil, fmt.Errorf("spill: create segment: %w", err)
	}
	a.nseg++
	a.used += size
	seg := &Segment{area: a, f: f, n: len(keys)}
	a.open = append(a.open, seg)
	err = transfer(ctx, "write", f.WriteAt, keyBytes(keys), 0, &ctr.SpillWriteBytes)
	if err == nil {
		err = transfer(ctx, "write", f.WriteAt, rowBytes(rows), int64(seg.n)*8, &ctr.SpillWriteBytes)
	}
	if err != nil {
		_ = seg.Close() // the write's error is the one to report
		return nil, err
	}
	return seg, nil
}

// ReadAt reads the len(keys) pairs starting at pair lo into keys and
// rows (the same length), charging the read as spill I/O. A file that
// ends before the requested range — truncated or damaged under the
// query — is an error wrapping io.ErrUnexpectedEOF, never a short
// partition. An empty read touches nothing, so it is valid on a nil
// segment.
func (s *Segment) ReadAt(ctx context.Context, lo int, keys []int64, rows []int32, ctr *exec.Counters) error {
	if len(keys) == 0 {
		return nil
	}
	if s.f == nil {
		return fmt.Errorf("spill: read from closed segment")
	}
	if lo < 0 || len(rows) != len(keys) || lo+len(keys) > s.n {
		return fmt.Errorf("spill: read of pairs [%d, %d) with %d row ids from a %d-pair segment", lo, lo+len(keys), len(rows), s.n)
	}
	if err := transfer(ctx, "read", s.f.ReadAt, keyBytes(keys), int64(lo)*8, &ctr.SpillReadBytes); err != nil {
		return err
	}
	return transfer(ctx, "read", s.f.ReadAt, rowBytes(rows), int64(s.n)*8+int64(lo)*4, &ctr.SpillReadBytes)
}

// Close closes and removes the segment's file and returns its bytes to
// the area's budget. Closing twice, or a nil segment, is a no-op.
func (s *Segment) Close() error {
	if s == nil || s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	s.area.used -= s.SizeBytes()
	if err := errors.Join(f.Close(), os.Remove(f.Name())); err != nil {
		return fmt.Errorf("spill: close segment: %w", err)
	}
	return nil
}

// transfer moves b to or from a segment file at byte offset off with op
// (the file's WriteAt or ReadAt), one ioChunk at a time, checking ctx
// before each chunk and charging each chunk moved.
func transfer(ctx context.Context, verb string, op func([]byte, int64) (int, error), b []byte, off int64, charged *int64) error {
	for len(b) > 0 {
		if ctx.Err() != nil {
			return fmt.Errorf("spill: %s canceled: %w", verb, context.Cause(ctx))
		}
		chunk := b[:min(len(b), ioChunk)]
		if _, err := op(chunk, off); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("spill: %s segment: %w", verb, err)
		}
		*charged += int64(len(chunk))
		b = b[len(chunk):]
		off += int64(len(chunk))
	}
	return nil
}

// keyBytes and rowBytes view a column's memory as the bytes that go to,
// or come from, the segment file.
func keyBytes(keys []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(keys))), len(keys)*8)
}

func rowBytes(rows []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows)*4)
}
