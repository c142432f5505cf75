package obs

import (
	"reflect"
	"testing"

	"wimpi/internal/exec"
)

func TestTracerBuildsNestedTreeWithCounterDeltas(t *testing.T) {
	var ctr exec.Counters
	tr := NewTracer(&ctr)

	root := tr.Begin("sort", "order by x")
	child := tr.Begin("scan", "scan t")
	ctr.SeqBytes += 100
	ctr.TuplesScanned += 10
	tr.End(child, 10, 80)
	ctr.IntOps += 42
	tr.End(root, 10, 80)

	got := tr.Root()
	if got != root || len(got.Children) != 1 || got.Children[0] != child {
		t.Fatalf("tree shape wrong: %+v", got)
	}
	if child.Counters.SeqBytes != 100 || child.Counters.TuplesScanned != 10 {
		t.Errorf("child counters = %+v", child.Counters)
	}
	if root.Counters.IntOps != 42 || root.Counters.SeqBytes != 100 {
		t.Errorf("root inclusive counters = %+v", root.Counters)
	}
	self := root.SelfCounters()
	if self.SeqBytes != 0 || self.IntOps != 42 || self.TuplesScanned != 0 {
		t.Errorf("root self counters = %+v", self)
	}
	if root.Rows != 10 || child.Rows != 10 || child.Bytes != 80 {
		t.Errorf("rows/bytes wrong: root=%+v child=%+v", root, child)
	}
	if root.NumSpans() != 2 {
		t.Errorf("NumSpans = %d, want 2", root.NumSpans())
	}
}

func TestTracerOuterEndClosesInnerAsErrored(t *testing.T) {
	var ctr exec.Counters
	tr := NewTracer(&ctr)
	root := tr.Begin("a", "a")
	inner := tr.Begin("b", "b")
	tr.End(root, 1, 1) // inner never ended explicitly
	if !inner.Err {
		t.Error("inner span should be marked errored when closed implicitly")
	}
	if root.Err {
		t.Error("root closed cleanly, should not be errored")
	}
}

// TestSelfCountersSumToRoot pins the invariant per-operator attribution
// rests on: over the tree, the spans' self counters add up to the root's
// inclusive counters and none is negative. The tree has nested spans, an
// inner span closed by its parent's End, and a top-level span opened
// after the root closed, whose charge belongs to no span of the tree.
func TestSelfCountersSumToRoot(t *testing.T) {
	var ctr exec.Counters
	tr := NewTracer(&ctr)
	root := tr.Begin("sort", "sort")
	ctr.IntOps += 5
	scan := tr.Begin("scan", "scan")
	ctr.SeqBytes += 100
	gather := tr.Begin("gather", "gather")
	ctr.RandomAccesses += 7
	ctr.ObserveHashBytes(64)
	tr.End(scan, 10, 80) // closes gather implicitly
	ctr.IntOps += 3
	tr.End(root, 10, 80)
	late := tr.Begin("merge", "merge")
	ctr.IntOps += 11
	ctr.ObserveHashBytes(128)
	tr.End(late, 1, 8)

	var sum exec.Counters
	tr.Root().Walk(func(sp *Span, _ int) {
		self := sp.SelfCounters()
		v := reflect.ValueOf(self)
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && v.Field(i).Int() < 0 {
				t.Errorf("%s: self %s = %d", sp.Op, v.Type().Field(i).Name, v.Field(i).Int())
			}
		}
		sum.Add(self)
	})
	if sum != root.Counters {
		t.Errorf("self counters sum to %+v, root has %+v", sum, root.Counters)
	}
	if tr.Root() != root || root.NumSpans() != 3 || !gather.Err {
		t.Errorf("tree = %d spans, gather errored %v; want 3 spans under the first root, gather errored", root.NumSpans(), gather.Err)
	}
}

func TestWalkPreOrder(t *testing.T) {
	var ctr exec.Counters
	tr := NewTracer(&ctr)
	r := tr.Begin("r", "r")
	c1 := tr.Begin("c1", "c1")
	tr.End(c1, 0, 0)
	c2 := tr.Begin("c2", "c2")
	g := tr.Begin("g", "g")
	tr.End(g, 0, 0)
	tr.End(c2, 0, 0)
	tr.End(r, 0, 0)

	var ops []string
	var depths []int
	tr.Root().Walk(func(s *Span, d int) { ops = append(ops, s.Op); depths = append(depths, d) })
	wantOps := []string{"r", "c1", "c2", "g"}
	wantDepth := []int{0, 1, 1, 2}
	for i := range wantOps {
		if i >= len(ops) || ops[i] != wantOps[i] || depths[i] != wantDepth[i] {
			t.Fatalf("walk order = %v %v, want %v %v", ops, depths, wantOps, wantDepth)
		}
	}
}
