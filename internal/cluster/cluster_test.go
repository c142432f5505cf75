package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/tpch"
)

const testSF = 0.01

func startCluster(t *testing.T, n int) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(n, WorkerConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func TestWireTableRoundTrip(t *testing.T) {
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "i", Type: colstore.Int64},
		{Name: "f", Type: colstore.Float64},
		{Name: "d", Type: colstore.Date},
		{Name: "s", Type: colstore.String},
		{Name: "b", Type: colstore.Bool},
	})
	for i := 0; i < 4; i++ {
		b.Int(0, int64(i))
		b.Float(1, float64(i)*1.5)
		b.Date(2, int32(100+i))
		b.Str(3, []string{"x", "y"}[i%2])
		b.Bool(4, i%2 == 0)
		b.EndRow()
	}
	orig := b.Build()
	got, err := ToWire(orig).Table()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != orig.NumRows() || got.NumCols() != orig.NumCols() {
		t.Fatalf("shape mismatch")
	}
	if got.MustCol("s").(*colstore.Strings).Value(1) != "y" {
		t.Error("string column lost")
	}
	if got.MustCol("f").(*colstore.Float64s).V[2] != 3.0 {
		t.Error("float column lost")
	}
	// Empty table round-trips too.
	empty := colstore.NewTableBuilder("e", colstore.Schema{{Name: "i", Type: colstore.Int64}}).Build()
	got, err = ToWire(empty).Table()
	if err != nil || got.NumRows() != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

// TestWireTableDensifiesEncodedColumns: compressed int encodings
// (bit-packed, FoR, RLE) densify to plain int64 frames on the wire
// instead of silently serializing as empty columns.
func TestWireTableDensifiesEncodedColumns(t *testing.T) {
	const n = 257
	v := make([]int64, n)
	for i := range v {
		v[i] = 1_000_000 + int64(i%7)
	}
	plain := &colstore.Int64s{V: v}
	bp, ok := colstore.BitPackInt64(&colstore.Int64s{V: append([]int64(nil), v...)})
	if !ok {
		t.Fatal("bit-pack refused a narrow column")
	}
	fr, ok := colstore.FoRCompressInt64(&colstore.Int64s{V: append([]int64(nil), v...)})
	if !ok {
		t.Fatal("FoR refused a narrow-range column")
	}
	rle := colstore.CompressInt64(&colstore.Int64s{V: append([]int64(nil), v...)})

	orig, err := colstore.NewTable("t", colstore.Schema{
		{Name: "plain", Type: colstore.Int64},
		{Name: "bp", Type: colstore.Int64},
		{Name: "for", Type: colstore.Int64},
		{Name: "rle", Type: colstore.Int64},
	}, []colstore.Column{plain, bp, fr, rle})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ToWire(orig).Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "bp", "for", "rle"} {
		col, ok := got.MustCol(name).(*colstore.Int64s)
		if !ok {
			t.Fatalf("column %q did not arrive as plain int64", name)
		}
		if len(col.V) != n {
			t.Fatalf("column %q: %d rows on the wire, want %d", name, len(col.V), n)
		}
		for i, want := range v {
			if col.V[i] != want {
				t.Fatalf("column %q row %d = %d, want %d", name, i, col.V[i], want)
			}
		}
	}
}

func TestConcatRemapsDictionaries(t *testing.T) {
	mk := func(vals ...string) *colstore.Table {
		b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "s", Type: colstore.String}})
		for _, v := range vals {
			b.Str(0, v)
			b.EndRow()
		}
		return b.Build()
	}
	got, err := colstore.Concat(mk("a", "b"), mk("b", "c"), mk())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "c"}
	sc := got.MustCol("s").(*colstore.Strings)
	for i, w := range want {
		if sc.Value(i) != w {
			t.Fatalf("concat[%d] = %q, want %q", i, sc.Value(i), w)
		}
	}
	if _, err := colstore.Concat(); err == nil {
		t.Error("empty concat should error")
	}
	other := colstore.NewTableBuilder("o", colstore.Schema{{Name: "x", Type: colstore.Int64}}).Build()
	if _, err := colstore.Concat(mk("a"), other); err == nil {
		t.Error("schema mismatch should error")
	}
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	// A 3-node cluster must return exactly the single-node answers.
	lc := startCluster(t, 3)
	if _, err := lc.Coordinator.Load(testSF, 42); err != nil {
		t.Fatal(err)
	}

	single := engine.NewDB(engine.Config{Workers: 2})
	tpch.Generate(tpch.Config{SF: testSF, Seed: 42}).RegisterAll(single)

	for _, q := range tpch.RepresentativeQueries {
		res, err := lc.Coordinator.Run(q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		want, err := single.RunQuery(context.Background(), tpch.MustQuery(q), engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d single: %v", q, err)
		}
		compareTables(t, q, res.Table, want.Table)
		if res.BytesReceived <= 0 {
			t.Errorf("Q%d: no bytes received", q)
		}
		wantNodes := 3
		if q == 13 {
			wantNodes = 1
		}
		if res.NodesUsed != wantNodes {
			t.Errorf("Q%d: used %d nodes, want %d", q, res.NodesUsed, wantNodes)
		}
		if res.HostDuration <= 0 {
			t.Errorf("Q%d: no duration", q)
		}
		// The exchange span tree covers every node plus the merge.
		if res.Root == nil || res.Root.Op != "exchange" {
			t.Fatalf("Q%d: missing exchange span: %+v", q, res.Root)
		}
		if got := len(res.Root.Children); got != wantNodes+1 {
			t.Errorf("Q%d: exchange has %d child spans, want %d nodes + 1 merge", q, got, wantNodes)
		}
		last := res.Root.Children[len(res.Root.Children)-1]
		if last.Op != "merge" || last.Rows != int64(res.Table.NumRows()) {
			t.Errorf("Q%d: merge span wrong: %+v", q, last)
		}
	}
}

func compareTables(t *testing.T, q int, got, want *colstore.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("Q%d: shape %dx%d, want %dx%d", q, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < got.NumCols(); c++ {
		if got.Schema[c].Name != want.Schema[c].Name {
			t.Fatalf("Q%d: column %d named %q, want %q", q, c, got.Schema[c].Name, want.Schema[c].Name)
		}
		for r := 0; r < got.NumRows(); r++ {
			a, b := cell(got, c, r), cell(want, c, r)
			af, aok := a.(float64)
			bf, bok := b.(float64)
			if aok && bok {
				diff := math.Abs(af - bf)
				if diff > 1e-6 && diff > 1e-9*math.Max(math.Abs(af), math.Abs(bf)) {
					t.Fatalf("Q%d [%d,%d]: %v vs %v", q, r, c, a, b)
				}
				continue
			}
			if a != b {
				t.Fatalf("Q%d [%d,%d]: %v vs %v", q, r, c, a, b)
			}
		}
	}
}

func cell(t *colstore.Table, c, r int) any {
	switch col := t.Col(c).(type) {
	case *colstore.Int64s:
		return col.V[r]
	case *colstore.Float64s:
		return col.V[r]
	case *colstore.Dates:
		return col.V[r]
	case *colstore.Strings:
		return col.Value(r)
	case *colstore.Bools:
		return col.V[r]
	}
	return nil
}

func TestDistributedVariousSizes(t *testing.T) {
	// Result must be independent of cluster size.
	var baseline *colstore.Table
	for _, n := range []int{1, 2, 5} {
		lc := startCluster(t, n)
		if _, err := lc.Coordinator.Load(0.005, 7); err != nil {
			t.Fatal(err)
		}
		res, err := lc.Coordinator.Run(6)
		if err != nil {
			t.Fatalf("%d nodes: %v", n, err)
		}
		if baseline == nil {
			baseline = res.Table
		} else {
			compareTables(t, 6, res.Table, baseline)
		}
		lc.Close()
	}
}

func TestCoordinatorErrors(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := Dial(Config{Addrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("dial to closed port should error")
	}
	if _, err := StartLocal(0, WorkerConfig{}, 1); err == nil {
		t.Error("zero nodes should error")
	}
	lc := startCluster(t, 2)
	// Query before load.
	if _, err := lc.Coordinator.Run(6); err == nil {
		t.Error("query before load should error")
	}
	if _, err := lc.Coordinator.Load(0.002, 1); err != nil {
		t.Fatal(err)
	}
	// Unsupported distributed query.
	if _, err := lc.Coordinator.Run(2); err == nil {
		t.Error("Q2 has no distributed form")
	}
	if lc.Coordinator.NumNodes() != 2 {
		t.Error("NumNodes wrong")
	}
}

func TestThrottledLinkBandwidth(t *testing.T) {
	lc, err := StartLocal(1, WorkerConfig{LinkBandwidthBps: PiLinkBandwidthBps}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	bps, err := MeasureLinkBandwidth(lc.Coordinator, 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's iperf measured ~220 Mbit/s; allow generous tolerance
	// for the gob/TCP overheads of the measurement itself.
	if bps < 120e6 || bps > 280e6 {
		t.Errorf("throttled link = %.0f Mbit/s, want ~220", bps/1e6)
	}
}

func TestTokenBucketPacing(t *testing.T) {
	b := newLinkBucket(8e6) // 1 MB/s
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := b.Wait(context.Background(), 32<<10); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 320 KB at 1 MB/s with a 64 KB burst: at least ~200 ms.
	if elapsed < 150*time.Millisecond {
		t.Errorf("token bucket too fast: %v", elapsed)
	}
}

func TestSimulate(t *testing.T) {
	res := &DistResult{
		Query:         6,
		NodesUsed:     4,
		NodeCounters:  make([]exec.Counters, 4),
		BytesReceived: 10 << 20,
	}
	for i := range res.NodeCounters {
		res.NodeCounters[i] = exec.Counters{SeqBytes: 64 << 20, IntOps: 1e7, TuplesScanned: 1e6}
	}
	opt := DefaultSimOptions()
	b := Simulate(res, opt)
	if b.Total <= 0 || b.NodeSeconds <= 0 || b.NetworkSeconds <= 0 {
		t.Fatalf("bad breakdown: %+v", b)
	}
	// 10 MB over 220 Mbit/s is ~0.38 s.
	if b.NetworkSeconds < 0.3 || b.NetworkSeconds > 0.6 {
		t.Errorf("network time %.2fs, want ~0.38", b.NetworkSeconds)
	}
	if b.Thrashed {
		t.Error("should not thrash")
	}

	// Memory pressure: a node whose working set exceeds RAM thrashes.
	res.NodeCounters[2].PeakLiveBytes = 3 << 30
	b2 := Simulate(res, opt)
	if !b2.Thrashed || b2.NodeSeconds <= b.NodeSeconds*5 {
		t.Errorf("thrash cliff missing: %+v vs %+v", b2, b)
	}

	// Single-node queries skip network and merge.
	single := &DistResult{Query: 13, NodesUsed: 1,
		NodeCounters:  []exec.Counters{{SeqBytes: 1 << 20, TuplesScanned: 1e5}},
		BytesReceived: 1 << 20}
	bs := Simulate(single, opt)
	if bs.NetworkSeconds != 0 || bs.MergeSeconds != 0 {
		t.Errorf("single-node should skip network/merge: %+v", bs)
	}
}

func TestSimulateScalesWithNodes(t *testing.T) {
	// More nodes -> smaller partitions -> shorter simulated time (until
	// network dominates). Build synthetic per-node counters for a fixed
	// total scan split n ways.
	opt := DefaultSimOptions()
	opt.NodeProfile.RAMBytes = 1 << 30
	total := int64(4 << 30)
	prev := math.Inf(1)
	for _, n := range []int{4, 8, 16} {
		res := &DistResult{Query: 1, NodesUsed: n, BytesReceived: 1 << 10}
		for i := 0; i < n; i++ {
			per := total / int64(n)
			res.NodeCounters = append(res.NodeCounters, exec.Counters{
				SeqBytes: per, PeakLiveBytes: per, TuplesScanned: per / 8,
			})
		}
		b := Simulate(res, opt)
		if b.Total >= prev {
			t.Errorf("%d nodes not faster than fewer: %v >= %v", n, b.Total, prev)
		}
		// The 4-node configuration must thrash (1 GB partitions of a
		// 4 GB working set exceed... actually equal RAM); 16 must not.
		if n == 16 && b.Thrashed {
			t.Error("16 nodes should not thrash")
		}
		prev = b.Total
	}
	_ = hardware.Pi()
}

// tpchMini returns a tiny dataset shared by codec tests.
func tpchMini(t *testing.T) *tpch.Dataset {
	t.Helper()
	return tpch.Generate(tpch.Config{SF: 0.001, Seed: 42})
}

// TestDistributedFusedMatchesVector runs a cluster in fused mode — the
// mode ships inside every LoadRequest, so all workers (and any spare
// re-executing a foreign partition) compile their partials the same
// way — and requires byte-identical merged results against a vector
// cluster of the same shape.
func TestDistributedFusedMatchesVector(t *testing.T) {
	vec, err := StartLocalFaulty(2, WorkerConfig{}, Config{WorkersPerNode: 2, Exec: "vector"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vec.Close)
	fus, err := StartLocalFaulty(2, WorkerConfig{}, Config{WorkersPerNode: 2, Exec: "fused"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fus.Close)
	if _, err := vec.Coordinator.Load(testSF, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := fus.Coordinator.Load(testSF, 42); err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.RepresentativeQueries {
		want, err := vec.Coordinator.Run(q)
		if err != nil {
			t.Fatalf("Q%d vector: %v", q, err)
		}
		got, err := fus.Coordinator.Run(q)
		if err != nil {
			t.Fatalf("Q%d fused: %v", q, err)
		}
		compareTables(t, q, got.Table, want.Table)
	}
}

// TestLoadRejectsBadExecMode pins the wire validation: a load carrying
// an unknown exec mode must fail loudly, not silently fall back.
func TestLoadRejectsBadExecMode(t *testing.T) {
	lc, err := StartLocalFaulty(1, WorkerConfig{}, Config{WorkersPerNode: 1, Exec: "bogus"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.Load(testSF, 42); err == nil {
		t.Fatal("load with unknown exec mode should fail")
	}
}
