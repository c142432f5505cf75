package spill

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wimpi/internal/exec"
)

// testPairs returns n distinguishable (key, row id) pairs.
func testPairs(n int) ([]int64, []int32) {
	keys := make([]int64, n)
	rows := make([]int32, n)
	for i := range keys {
		keys[i] = int64(i)*7 - 1000
		rows[i] = int32(n - i)
	}
	return keys, rows
}

func TestSegmentRoundTrip(t *testing.T) {
	a, err := NewArea(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := 200_000 // keys alone are several ioChunk batches
	keys, rows := testPairs(n)
	var ctr exec.Counters
	seg, err := a.WriteSegment(context.Background(), keys, rows, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != n {
		t.Fatalf("len %d, want %d", seg.Len(), n)
	}
	wantBytes := int64(n) * 12
	if ctr.SpillWriteBytes != wantBytes || seg.SizeBytes() != wantBytes {
		t.Fatalf("charged %d write bytes for a %d-byte segment, want %d", ctr.SpillWriteBytes, seg.SizeBytes(), wantBytes)
	}
	if a.UsedBytes() != wantBytes {
		t.Fatalf("area used %d, want %d", a.UsedBytes(), wantBytes)
	}
	// Any range of pairs reads back on its own — the spill join reads one
	// partition at a time — and from several goroutines at once.
	ranges := [][2]int{{0, n}, {0, 1}, {n - 1, n}, {12_345, 150_000}, {77, 77}}
	var wg sync.WaitGroup
	ctrs := make([]exec.Counters, len(ranges))
	for i, r := range ranges {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			gk, gr := make([]int64, hi-lo), make([]int32, hi-lo)
			if err := seg.ReadAt(context.Background(), lo, gk, gr, &ctrs[i]); err != nil {
				t.Error(err)
				return
			}
			for j := range gk {
				if gk[j] != keys[lo+j] || gr[j] != rows[lo+j] {
					t.Errorf("range [%d,%d) pair %d: (%d,%d), want (%d,%d)", lo, hi, j, gk[j], gr[j], keys[lo+j], rows[lo+j])
					return
				}
			}
			if want := int64(hi-lo) * 12; ctrs[i].SpillReadBytes != want {
				t.Errorf("range [%d,%d): charged %d read bytes, want %d", lo, hi, ctrs[i].SpillReadBytes, want)
			}
		}(i, r[0], r[1])
	}
	wg.Wait()
	if err := seg.ReadAt(context.Background(), n-1, make([]int64, 2), make([]int32, 2), &ctr); err == nil {
		t.Fatal("a read past the segment's pairs must fail")
	}
}

// TestSegmentClose: closing a segment removes its file and gives its
// bytes back to the area; reading it afterwards is an error, closing it
// again is not.
func TestSegmentClose(t *testing.T) {
	a, err := NewArea(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var ctr exec.Counters
	for i := 0; i < 3; i++ { // 96 of 100 bytes each time: only fits if Close gives them back
		seg, err := a.WriteSegment(context.Background(), make([]int64, 8), make([]int32, 8), &ctr)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		if ents, _ := os.ReadDir(a.Dir()); len(ents) != 0 || a.UsedBytes() != 0 {
			t.Fatalf("after Close: %d files, %d bytes used", len(ents), a.UsedBytes())
		}
		if err := seg.ReadAt(context.Background(), 0, make([]int64, 1), make([]int32, 1), &ctr); err == nil {
			t.Fatal("read from a closed segment must fail")
		}
		if err := seg.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestSegmentTruncated: a segment file cut short under the query is a
// typed spill error on the read that needs the missing bytes — never a
// panic, never a short partition.
func TestSegmentTruncated(t *testing.T) {
	a, err := NewArea(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := 1000
	keys, rows := testPairs(n)
	var ctr exec.Counters
	seg, err := a.WriteSegment(context.Background(), keys, rows, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(a.Dir())
	if err != nil || len(ents) != 1 {
		t.Fatalf("area holds %d files (%v), want the one segment", len(ents), err)
	}
	// Keep all the keys and half the row ids.
	if err := os.Truncate(filepath.Join(a.Dir(), ents[0].Name()), int64(n)*8+int64(n)*2); err != nil {
		t.Fatal(err)
	}
	gk, gr := make([]int64, 100), make([]int32, 100)
	if err := seg.ReadAt(context.Background(), 0, gk, gr, &ctr); err != nil {
		t.Fatalf("range before the cut: %v", err)
	}
	err = seg.ReadAt(context.Background(), n-100, gk, gr, &ctr)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "spill: ") {
		t.Fatalf("range past the cut: err = %v, want a spill: error wrapping io.ErrUnexpectedEOF", err)
	}
}

// TestSegmentRemoved: a segment file unlinked under the query still reads
// back whole through the open file, and the loss is reported — as a spill
// error — when the segment is closed.
func TestSegmentRemoved(t *testing.T) {
	a, err := NewArea(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, rows := testPairs(1000)
	var ctr exec.Counters
	seg, err := a.WriteSegment(context.Background(), keys, rows, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(a.Dir(), "seg-000000")); err != nil {
		t.Fatal(err)
	}
	gk, gr := make([]int64, 1000), make([]int32, 1000)
	if err := seg.ReadAt(context.Background(), 0, gk, gr, &ctr); err != nil || gk[999] != keys[999] || gr[999] != rows[999] {
		t.Fatalf("read of an unlinked segment: %v, last pair (%d,%d)", err, gk[999], gr[999])
	}
	if err := a.Close(); !errors.Is(err, os.ErrNotExist) || !strings.HasPrefix(err.Error(), "spill: ") {
		t.Fatalf("close after the file was removed: err = %v, want a spill: error wrapping os.ErrNotExist", err)
	}
}

func TestAreaBudgetEnforced(t *testing.T) {
	a, err := NewArea(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var ctr exec.Counters
	if _, err := a.WriteSegment(context.Background(), make([]int64, 8), make([]int32, 8), &ctr); err != nil {
		t.Fatalf("96 bytes under a 100-byte budget: %v", err)
	}
	if _, err := a.WriteSegment(context.Background(), make([]int64, 8), make([]int32, 8), &ctr); err == nil {
		t.Fatal("second segment must exceed the budget")
	}
}

func TestAreaCloseRemovesEverything(t *testing.T) {
	a, err := NewArea(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := a.Dir()
	var ctr exec.Counters
	if _, err := a.WriteSegment(context.Background(), []int64{1}, []int32{1}, &ctr); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("area dir still exists: %v", err)
	}
	if _, err := a.WriteSegment(context.Background(), []int64{1}, []int32{1}, &ctr); err == nil {
		t.Fatal("write to a closed area must fail")
	}
}

func TestWriteCanceledByContext(t *testing.T) {
	a, err := NewArea(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ctr exec.Counters
	if _, err := a.WriteSegment(ctx, make([]int64, 100_000), make([]int32, 100_000), &ctr); !errors.Is(err, context.Canceled) {
		t.Fatalf("write under a canceled context: err = %v", err)
	}
	if ents, _ := os.ReadDir(a.Dir()); len(ents) != 0 || a.UsedBytes() != 0 {
		t.Fatalf("failed write left %d files, %d bytes used", len(ents), a.UsedBytes())
	}
	seg, err := a.WriteSegment(context.Background(), []int64{7}, []int32{7}, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.ReadAt(ctx, 0, make([]int64, 1), make([]int32, 1), &ctr); !errors.Is(err, context.Canceled) {
		t.Fatalf("read under a canceled context: err = %v", err)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1234", 1234, false},
		{"64k", 64 << 10, false},
		{"512M", 512 << 20, false},
		{"1g", 1 << 30, false},
		{"1GiB", 1 << 30, false},
		{"2gb", 2 << 30, false},
		{" 16m ", 16 << 20, false},
		{"-1", 0, true},
		{"10x", 0, true},
		{"g", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseByteSize(tc.in)
		if tc.err != (err != nil) {
			t.Fatalf("%q: err=%v, want err=%v", tc.in, err, tc.err)
		}
		if got != tc.want {
			t.Fatalf("%q: %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, n := range []int64{0, 1234, 64 << 10, 512 << 20, 3 << 30} {
		rt, err := ParseByteSize(FormatByteSize(n))
		if err != nil || rt != n {
			t.Fatalf("round trip %d: %d, %v", n, rt, err)
		}
	}
}
