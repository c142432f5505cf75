package main

import (
	"testing"
	"time"
)

func TestFoldSelfTimesSumToRootWall(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := &opSpan{Op: "sort", Wall: msec(100), Children: []*opSpan{
		{Op: "hash-join", Wall: msec(80), Children: []*opSpan{
			{Op: "scan", Wall: msec(10)},
			{Op: "select", Wall: msec(15), Children: []*opSpan{{Op: "scan", Wall: msec(5)}}},
			{Op: "join-build", Wall: msec(20)},
			{Op: "join-probe", Wall: msec(30), Children: []*opSpan{{Op: "gather", Wall: msec(12)}}},
		}},
		{Op: "teleport", Wall: msec(7)}, // an operator kind this benchmark has never heard of
	}}
	f := newFolded()
	f.fold(root)
	if got := f.total(); got != 100 {
		t.Errorf("self-times sum to %v ms, root wall is 100 ms", got)
	}
	want := map[string]float64{
		"sort":       13, // 100 - 80 - 7
		"scan":       25, // scan 10 + select self 10 + nested scan 5
		"join_build": 20,
		"join_probe": 18, // 30 - gather 12
		"gather":     12,
		"other":      12, // hash-join self 5 + teleport 7
	}
	for row, ms := range want {
		if f.selfMs[row] != ms {
			t.Errorf("row %s = %v ms, want %v", row, f.selfMs[row], ms)
		}
	}
	if f.spans != 9 {
		t.Errorf("folded %d spans, want 9", f.spans)
	}

	both := newFolded()
	both.merge(f)
	both.merge(f)
	if both.total() != 200 || both.spans != 18 {
		t.Errorf("merge: total %v spans %d, want 200 and 18", both.total(), both.spans)
	}
}

func TestFoldAttributesWorkToRows(t *testing.T) {
	root := &opSpan{Op: "group-by", Wall: time.Millisecond,
		Counters: counters{AggUpdates: 10, TuplesScanned: 100},
		Children: []*opSpan{{Op: "scan", Wall: time.Microsecond, Counters: counters{TuplesScanned: 100}}},
	}
	f := newFolded()
	f.fold(root)
	if got := f.work["scan"].TuplesScanned; got != 100 {
		t.Errorf("scan row saw %d tuples, want 100", got)
	}
	if g := f.work["group"]; g.AggUpdates != 10 || g.TuplesScanned != 0 {
		t.Errorf("group row: %d updates, %d tuples; want 10 and 0 (the child's)", g.AggUpdates, g.TuplesScanned)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if r.newOp() != 0 || r.add(1, 0, "x", time.Now(), time.Now(), nil) != 0 {
		t.Error("nil recorder handed out ids")
	}
	rec := newRecorder()
	op := rec.newOp()
	parent := rec.add(op, 0, "op", rec.t0, rec.t0.Add(time.Millisecond), nil)
	child := rec.add(op, parent, "sql.plan", rec.t0, rec.t0.Add(time.Microsecond), nil)
	if parent != 1 || child != 2 || rec.spans[1].Parent != 1 || rec.spans[1].Op != op || rec.spans[0].EndUs != 1000 {
		t.Errorf("spans %+v", rec.spans)
	}
}
