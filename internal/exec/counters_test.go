package exec

import "testing"

// fullCounters returns a Counters with every field set to a distinct
// value, so merge tests notice any field that Add forgets.
func fullCounters(base int64) Counters {
	return Counters{
		TuplesScanned:       base + 1,
		SeqBytes:            base + 2,
		RandomAccesses:      base + 3,
		IntOps:              base + 4,
		FloatOps:            base + 5,
		HashBuildTuples:     base + 6,
		HashProbeTuples:     base + 7,
		AggUpdates:          base + 8,
		TuplesMaterialized:  base + 9,
		BytesMaterialized:   base + 10,
		MaxHashBytes:        base + 11,
		PeakLiveBytes:       base + 12,
		TouchedBaseBytes:    base + 13,
		MergeBytes:          base + 14,
		CacheRandomAccesses: base + 15,
		PartitionBytes:      base + 16,
		MaxPartitionBytes:   base + 17,
	}
}

func TestCountersAddSumsEveryAdditiveField(t *testing.T) {
	a := fullCounters(100)
	b := fullCounters(1000)
	got := a
	got.Add(b)

	sums := []struct {
		name    string
		got     int64
		wantSum int64
	}{
		{"TuplesScanned", got.TuplesScanned, a.TuplesScanned + b.TuplesScanned},
		{"SeqBytes", got.SeqBytes, a.SeqBytes + b.SeqBytes},
		{"RandomAccesses", got.RandomAccesses, a.RandomAccesses + b.RandomAccesses},
		{"IntOps", got.IntOps, a.IntOps + b.IntOps},
		{"FloatOps", got.FloatOps, a.FloatOps + b.FloatOps},
		{"HashBuildTuples", got.HashBuildTuples, a.HashBuildTuples + b.HashBuildTuples},
		{"HashProbeTuples", got.HashProbeTuples, a.HashProbeTuples + b.HashProbeTuples},
		{"AggUpdates", got.AggUpdates, a.AggUpdates + b.AggUpdates},
		{"TuplesMaterialized", got.TuplesMaterialized, a.TuplesMaterialized + b.TuplesMaterialized},
		{"BytesMaterialized", got.BytesMaterialized, a.BytesMaterialized + b.BytesMaterialized},
		{"TouchedBaseBytes", got.TouchedBaseBytes, a.TouchedBaseBytes + b.TouchedBaseBytes},
		{"MergeBytes", got.MergeBytes, a.MergeBytes + b.MergeBytes},
		{"CacheRandomAccesses", got.CacheRandomAccesses, a.CacheRandomAccesses + b.CacheRandomAccesses},
		{"PartitionBytes", got.PartitionBytes, a.PartitionBytes + b.PartitionBytes},
	}
	for _, s := range sums {
		if s.got != s.wantSum {
			t.Errorf("Add: %s = %d, want %d", s.name, s.got, s.wantSum)
		}
	}
}

func TestCountersAddTakesMaxOfPeakFields(t *testing.T) {
	small := Counters{MaxHashBytes: 10, PeakLiveBytes: 20, MaxPartitionBytes: 7}
	large := Counters{MaxHashBytes: 100, PeakLiveBytes: 5, MaxPartitionBytes: 70}

	got := small
	got.Add(large)
	if got.MaxHashBytes != 100 {
		t.Errorf("MaxHashBytes = %d, want max(10,100)=100", got.MaxHashBytes)
	}
	if got.PeakLiveBytes != 20 {
		t.Errorf("PeakLiveBytes = %d, want max(20,5)=20", got.PeakLiveBytes)
	}
	if got.MaxPartitionBytes != 70 {
		t.Errorf("MaxPartitionBytes = %d, want max(7,70)=70", got.MaxPartitionBytes)
	}

	// The other direction must agree: max is commutative even though
	// sums are not order-sensitive either.
	got = large
	got.Add(small)
	if got.MaxHashBytes != 100 || got.PeakLiveBytes != 20 || got.MaxPartitionBytes != 70 {
		t.Errorf("reversed Add: MaxHashBytes=%d PeakLiveBytes=%d MaxPartitionBytes=%d, want 100, 20, 70",
			got.MaxHashBytes, got.PeakLiveBytes, got.MaxPartitionBytes)
	}
}

// TestCountersMergeAssociativity pins the property the morsel scheduler
// depends on: folding per-morsel counters one-by-one equals folding the
// two halves first — so any merge tree yields the same totals.
func TestCountersMergeAssociativity(t *testing.T) {
	parts := []Counters{fullCounters(1), fullCounters(50), fullCounters(900), fullCounters(7)}

	var linear Counters
	for _, p := range parts {
		linear.Add(p)
	}

	var left, right, tree Counters
	left.Add(parts[0])
	left.Add(parts[1])
	right.Add(parts[2])
	right.Add(parts[3])
	tree.Add(left)
	tree.Add(right)

	if linear != tree {
		t.Errorf("merge not associative:\nlinear %+v\ntree   %+v", linear, tree)
	}
}

func TestCountersMergeBytesAccounting(t *testing.T) {
	// MergeBytes is charged only by parallel-execution data movement;
	// it must survive merges additively and start at zero.
	var c Counters
	if c.MergeBytes != 0 {
		t.Fatalf("zero value MergeBytes = %d", c.MergeBytes)
	}
	c.Add(Counters{MergeBytes: 1 << 20})
	c.Add(Counters{MergeBytes: 1 << 10})
	if want := int64(1<<20 + 1<<10); c.MergeBytes != want {
		t.Errorf("MergeBytes = %d, want %d", c.MergeBytes, want)
	}
	// Adding a zero Counters must change nothing.
	before := c
	c.Add(Counters{})
	if c != before {
		t.Errorf("Add(zero) changed counters: %+v vs %+v", c, before)
	}
}

func TestCountersObserve(t *testing.T) {
	var c Counters
	c.ObserveHashBytes(50)
	c.ObserveHashBytes(30) // smaller: ignored
	if c.MaxHashBytes != 50 {
		t.Errorf("MaxHashBytes = %d, want 50", c.MaxHashBytes)
	}
	c.ObserveLiveBytes(70)
	c.ObserveLiveBytes(90)
	if c.PeakLiveBytes != 90 {
		t.Errorf("PeakLiveBytes = %d, want 90", c.PeakLiveBytes)
	}
}

func TestCountersSpillFields(t *testing.T) {
	var a Counters
	a.SpillWriteBytes = 100
	a.SpillReadBytes = 40
	a.ObserveResidentCap(1 << 20)
	var b Counters
	b.SpillWriteBytes = 11
	b.SpillReadBytes = 2
	b.ObserveResidentCap(1 << 10) // smaller cap must not lower the merge
	a.Add(b)
	if a.SpillWriteBytes != 111 || a.SpillReadBytes != 42 {
		t.Fatalf("spill bytes must add: %+v", a)
	}
	if a.ResidentCapBytes != 1<<20 {
		t.Fatalf("resident cap must max-merge: %d", a.ResidentCapBytes)
	}
	d := DiffCounters(b, a)
	if d.SpillWriteBytes != 100 || d.SpillReadBytes != 40 {
		t.Fatalf("spill bytes must diff additively: %+v", d)
	}
	if d.ResidentCapBytes != a.ResidentCapBytes {
		t.Fatalf("resident cap diff must keep the after value: %d", d.ResidentCapBytes)
	}
}
