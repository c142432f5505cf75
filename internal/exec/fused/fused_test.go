package fused

import (
	"testing"

	"wimpi/internal/exec"
)

func TestCompileRowShortCircuitAndCharging(t *testing.T) {
	var reached []string
	stage := func(name string, pass bool) RowStage {
		return RowStage{
			Name:        name,
			Row:         func(int, []float64) bool { reached = append(reached, name); return pass },
			BytesPerRow: 10,
			OpsPerRow:   3,
		}
	}
	cfg := RowConfig{BranchPenaltyOps: 16, CacheResidentBytes: 512 << 10}
	kernel := CompileRow([]RowStage{stage("a", true), stage("b", false), stage("c", true)}, cfg)

	var ctr exec.Counters
	if kernel(0, nil, &ctr) {
		t.Error("row should not survive: stage b rejects")
	}
	if len(reached) != 2 || reached[0] != "a" || reached[1] != "b" {
		t.Errorf("stage c should be short-circuited, reached %v", reached)
	}
	// Two stages reached: bytes and ops (incl. branch penalty) for each.
	if ctr.SeqBytes != 20 {
		t.Errorf("SeqBytes = %d, want 20", ctr.SeqBytes)
	}
	if ctr.IntOps != 2*(3+16) {
		t.Errorf("IntOps = %d, want %d", ctr.IntOps, 2*(3+16))
	}

	// A surviving row runs — and charges — every stage.
	reached = nil
	ctr = exec.Counters{}
	all := CompileRow([]RowStage{stage("a", true), stage("c", true)}, cfg)
	if !all(0, nil, &ctr) {
		t.Error("row should survive both stages")
	}
	if len(reached) != 2 || ctr.SeqBytes != 20 {
		t.Errorf("both stages should run and charge: reached %v, SeqBytes %d", reached, ctr.SeqBytes)
	}

	// The empty chain accepts everything for free.
	ctr = exec.Counters{}
	if !CompileRow(nil, cfg)(0, nil, &ctr) || ctr != (exec.Counters{}) {
		t.Error("empty chain should accept with no charges")
	}
}

func TestCompileRowLookupCharging(t *testing.T) {
	cfg := RowConfig{BranchPenaltyOps: 16, CacheResidentBytes: 512 << 10}
	mk := func(tableBytes int64) RowKernel {
		return CompileRow([]RowStage{{
			Name:       "probe",
			Row:        func(int, []float64) bool { return true },
			IsLookup:   true,
			TableBytes: tableBytes,
		}}, cfg)
	}

	var ctr exec.Counters
	mk(256<<10)(0, nil, &ctr) // fits the LLC
	if ctr.CacheRandomAccesses != 1 || ctr.RandomAccesses != 0 {
		t.Errorf("cache-resident probe mischarged: %+v", ctr)
	}
	if ctr.MaxPartitionBytes != 256<<10 {
		t.Errorf("MaxPartitionBytes = %d, want %d", ctr.MaxPartitionBytes, 256<<10)
	}

	ctr = exec.Counters{}
	mk(4<<20)(0, nil, &ctr) // overflows the LLC
	if ctr.RandomAccesses != 1 || ctr.CacheRandomAccesses != 0 {
		t.Errorf("DRAM probe mischarged: %+v", ctr)
	}

	ctr = exec.Counters{}
	mk(0)(0, nil, &ctr) // unknown footprint charges conservatively
	if ctr.RandomAccesses != 1 {
		t.Errorf("unknown footprint should charge DRAM: %+v", ctr)
	}
	if ctr.HashProbeTuples != 1 {
		t.Errorf("HashProbeTuples = %d, want 1", ctr.HashProbeTuples)
	}
}

func TestVectorsNarrowAndExpand(t *testing.T) {
	var ctr exec.Counters
	v := NewVectors(6)
	if v.Len() != 6 || !v.Dense() {
		t.Fatalf("fresh state: Len=%d Dense=%v", v.Len(), v.Dense())
	}

	// Dense narrow: positions are driver rows.
	v.Narrow([]int32{1, 3, 5}, &ctr)
	if v.Len() != 3 || v.Sel[0] != 1 || v.Sel[1] != 3 || v.Sel[2] != 5 {
		t.Fatalf("dense narrow: %v", v.Sel)
	}

	// Inner expansion with repeats: position 0 matches twice.
	v.ExpandInner([]int32{0, 0, 2}, []int32{7, 8, 9}, &ctr)
	if v.Len() != 3 {
		t.Fatalf("expanded Len=%d", v.Len())
	}
	wantSel := []int32{1, 1, 5}
	wantAux := []int32{7, 8, 9}
	for i := range wantSel {
		if v.Sel[i] != wantSel[i] || v.Aux[0][i] != wantAux[i] {
			t.Fatalf("expand: sel=%v aux=%v", v.Sel, v.Aux[0])
		}
	}

	// Counts align with positions and narrow alongside everything else.
	v.AppendCounts([]int64{10, 20, 30}, &ctr)
	v.Narrow([]int32{0, 2}, &ctr)
	if v.Sel[0] != 1 || v.Sel[1] != 5 || v.Aux[0][0] != 7 || v.Aux[0][1] != 9 ||
		v.Cnt[0][0] != 10 || v.Cnt[0][1] != 30 {
		t.Fatalf("aligned narrow: sel=%v aux=%v cnt=%v", v.Sel, v.Aux[0], v.Cnt[0])
	}
	if ctr.SeqBytes == 0 || ctr.IntOps == 0 {
		t.Error("vector maintenance should charge counters")
	}
}

func TestVectorsSelOrDense(t *testing.T) {
	var ctr exec.Counters
	v := NewVectors(4)
	sel := v.SelOrDense(&ctr)
	if len(sel) != 4 || sel[0] != 0 || sel[3] != 3 {
		t.Fatalf("dense materialization: %v", sel)
	}
	if ctr.SeqBytes != 16 {
		t.Errorf("SeqBytes = %d, want 16", ctr.SeqBytes)
	}
	// Already-explicit selections come back as-is, uncharged.
	before := ctr
	if &v.SelOrDense(&ctr)[0] != &sel[0] || ctr != before {
		t.Error("explicit selection should be returned unchanged without charging")
	}
}
