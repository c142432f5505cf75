package exec

import (
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"wimpi/internal/colstore"
)

func TestSelInt64DenseAndSel(t *testing.T) {
	c := &colstore.Int64s{V: []int64{5, 1, 9, 3, 7, 3}}
	var ctr Counters
	got := SelInt64(c, Gt, 3, nil, &ctr)
	want := []int32{0, 2, 4}
	if !equalSel(got, want) {
		t.Errorf("dense SelInt64 = %v, want %v", got, want)
	}
	got = SelInt64(c, Le, 3, got, &ctr)
	if len(got) != 0 {
		t.Errorf("chained SelInt64 = %v, want empty", got)
	}
	got = SelInt64(c, Eq, 3, []int32{0, 3, 5}, &ctr)
	if !equalSel(got, []int32{3, 5}) {
		t.Errorf("selective SelInt64 = %v", got)
	}
	if ctr.TuplesScanned == 0 || ctr.IntOps == 0 {
		t.Error("counters not charged")
	}
}

func TestSelKernelsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	iv := make([]int64, n)
	fv := make([]float64, n)
	dv := make([]int32, n)
	for i := 0; i < n; i++ {
		iv[i] = rng.Int63n(100)
		fv[i] = rng.Float64() * 100
		dv[i] = int32(rng.Intn(1000))
	}
	ic := &colstore.Int64s{V: iv}
	fc := &colstore.Float64s{V: fv}
	dc := &colstore.Dates{V: dv}
	var ctr Counters
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		got := SelInt64(ic, op, 50, nil, &ctr)
		want := naiveSel(n, func(i int) bool { return cmpI64(op, iv[i], 50) })
		if !equalSel(got, want) {
			t.Errorf("SelInt64 %s mismatch", op)
		}
		gotF := SelFloat64(fc, op, 50, nil, &ctr)
		wantF := naiveSel(n, func(i int) bool { return cmpF64(op, fv[i], 50) })
		if !equalSel(gotF, wantF) {
			t.Errorf("SelFloat64 %s mismatch", op)
		}
		gotD := SelDate(dc, op, 500, nil, &ctr)
		wantD := naiveSel(n, func(i int) bool { return cmpI64(op, int64(dv[i]), 500) })
		if !equalSel(gotD, wantD) {
			t.Errorf("SelDate %s mismatch", op)
		}
	}
	gotR := SelDateRange(dc, 200, 400, nil, &ctr)
	wantR := naiveSel(n, func(i int) bool { return dv[i] >= 200 && dv[i] < 400 })
	if !equalSel(gotR, wantR) {
		t.Error("SelDateRange mismatch")
	}
	gotFR := SelFloat64Range(fc, 25, 75, nil, &ctr)
	wantFR := naiveSel(n, func(i int) bool { return fv[i] >= 25 && fv[i] <= 75 })
	if !equalSel(gotFR, wantFR) {
		t.Error("SelFloat64Range mismatch")
	}
}

func TestSelUnionProperty(t *testing.T) {
	f := func(a8, b8 []uint8) bool {
		a := sortedSel(a8)
		b := sortedSel(b8)
		var ctr Counters
		got := SelUnion(a, b, &ctr)
		seen := map[int32]bool{}
		for _, x := range a {
			seen[x] = true
		}
		for _, x := range b {
			seen[x] = true
		}
		if len(got) != len(seen) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		for _, x := range got {
			if !seen[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchLikeAgainstRegexp(t *testing.T) {
	patterns := []string{"%green%", "PROMO%", "%BRASS", "%special%requests%", "a_c", "%", "", "abc", "_%_"}
	alphabet := []string{"", "a", "abc", "green", "dark green metal", "PROMO BURNISHED", "special requests",
		"many special handled requests here", "BRASS", "SMALL BRASS", "aXc", "ac", "xyz"}
	for _, p := range patterns {
		re := likeToRegexp(p)
		for _, s := range alphabet {
			want := re.MatchString(s)
			if got := MatchLike(s, p); got != want {
				t.Errorf("MatchLike(%q, %q) = %v, want %v", s, p, got, want)
			}
		}
	}
}

func TestMatchLikePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	letters := "ab%_"
	for iter := 0; iter < 2000; iter++ {
		s := randWord(rng, "ab", 8)
		var pb strings.Builder
		for i := 0; i < rng.Intn(6); i++ {
			pb.WriteByte(letters[rng.Intn(len(letters))])
		}
		p := pb.String()
		want := likeToRegexp(p).MatchString(s)
		if got := MatchLike(s, p); got != want {
			t.Fatalf("MatchLike(%q, %q) = %v, want %v", s, p, got, want)
		}
	}
}

func likeToRegexp(p string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '%':
			b.WriteString("(?s).*")
		case '_':
			b.WriteString("(?s).")
		default:
			b.WriteString(regexp.QuoteMeta(string(p[i])))
		}
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

func TestStringMasks(t *testing.T) {
	d := colstore.NewDict()
	codes := []int32{d.Add("red"), d.Add("green"), d.Add("dark green"), d.Add("blue")}
	var ctr Counters
	eq := EqMask(d, "green")
	if !eq[codes[1]] || eq[codes[2]] || eq[codes[0]] {
		t.Errorf("EqMask wrong: %v", eq)
	}
	if m := EqMask(d, "absent"); anyTrue(m) {
		t.Error("EqMask(absent) should be all false")
	}
	ne := NeMask(d, "green", &ctr)
	if ne[codes[1]] || !ne[codes[0]] {
		t.Errorf("NeMask wrong: %v", ne)
	}
	in := InMask(d, &ctr, "red", "blue", "absent")
	if !in[codes[0]] || !in[codes[3]] || in[codes[1]] {
		t.Errorf("InMask wrong: %v", in)
	}
	like := LikeMask(d, "%green%", &ctr)
	if !like[codes[1]] || !like[codes[2]] || like[codes[0]] {
		t.Errorf("LikeMask wrong: %v", like)
	}
	nl := NotLikeMask(d, "%green%", &ctr)
	for i := range nl {
		if nl[i] == like[i] {
			t.Errorf("NotLikeMask not complement at %d", i)
		}
	}
	pre := PrefixMask(d, "dark", &ctr)
	if !pre[codes[2]] || pre[codes[1]] {
		t.Errorf("PrefixMask wrong: %v", pre)
	}
	sub := ContainsMask(d, "een", &ctr)
	if !sub[codes[1]] || !sub[codes[2]] || sub[codes[3]] {
		t.Errorf("ContainsMask wrong: %v", sub)
	}
}

func TestJoinAgainstNestedLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := make([]int64, 200)
	probe := make([]int64, 300)
	for i := range build {
		build[i] = rng.Int63n(50)
	}
	for i := range probe {
		probe[i] = rng.Int63n(80)
	}
	var ctr Counters
	jt := BuildJoinTable(build, &ctr)
	if jt.NumBuildRows() != len(build) {
		t.Fatalf("NumBuildRows = %d", jt.NumBuildRows())
	}
	bi, pi := must2(jt.InnerJoin(probe, 1, 0, &ctr))
	type pair struct{ b, p int32 }
	got := map[pair]bool{}
	for i := range bi {
		got[pair{bi[i], pi[i]}] = true
	}
	want := map[pair]bool{}
	for p, pk := range probe {
		for b, bk := range build {
			if pk == bk {
				want[pair{int32(b), int32(p)}] = true
			}
		}
	}
	if len(got) != len(bi) {
		t.Error("InnerJoin produced duplicate pairs")
	}
	if len(got) != len(want) {
		t.Fatalf("InnerJoin pairs = %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing pair %v", k)
		}
	}

	semi := must(jt.SemiJoin(probe, 1, 0, &ctr))
	anti := must(jt.AntiJoin(probe, 1, 0, &ctr))
	if len(semi)+len(anti) != len(probe) {
		t.Errorf("semi+anti = %d+%d, want %d", len(semi), len(anti), len(probe))
	}
	buildSet := map[int64]bool{}
	for _, k := range build {
		buildSet[k] = true
	}
	for _, p := range semi {
		if !buildSet[probe[p]] {
			t.Errorf("semi row %d key %d not in build", p, probe[p])
		}
	}
	for _, p := range anti {
		if buildSet[probe[p]] {
			t.Errorf("anti row %d key %d in build", p, probe[p])
		}
	}

	counts := must(jt.CountPerProbe(probe, 1, 0, &ctr))
	for p, pk := range probe {
		var n int64
		for _, bk := range build {
			if bk == pk {
				n++
			}
		}
		if counts[p] != n {
			t.Fatalf("CountPerProbe[%d] = %d, want %d", p, counts[p], n)
		}
	}

}

func TestJoinEmptySides(t *testing.T) {
	var ctr Counters
	jt := BuildJoinTable(nil, &ctr)
	bi, pi := must2(jt.InnerJoin([]int64{1, 2}, 1, 0, &ctr))
	if len(bi) != 0 || len(pi) != 0 {
		t.Error("join against empty build produced pairs")
	}
	if s := must(jt.SemiJoin([]int64{1}, 1, 0, &ctr)); len(s) != 0 {
		t.Error("semi against empty build")
	}
	if a := must(jt.AntiJoin([]int64{1}, 1, 0, &ctr)); len(a) != 1 {
		t.Error("anti against empty build should keep all")
	}
	jt2 := BuildJoinTable([]int64{1, 2, 3}, &ctr)
	bi, pi = must2(jt2.InnerJoin(nil, 1, 0, &ctr))
	if len(bi) != 0 || len(pi) != 0 {
		t.Error("join with empty probe produced pairs")
	}
}

func TestGrouperAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63n(700) // force growth past initial capacity
	}
	var ctr Counters
	g := NewGrouper(4)
	gids := g.GroupIDs(keys[:2500], &ctr)
	gids = append(gids, g.GroupIDs(keys[2500:], &ctr)...) // incremental feed
	oracle := map[int64]int32{}
	for i, k := range keys {
		if want, ok := oracle[k]; ok {
			if gids[i] != want {
				t.Fatalf("key %d got gid %d, want %d", k, gids[i], want)
			}
		} else {
			oracle[k] = gids[i]
		}
	}
	if g.NumGroups() != len(oracle) {
		t.Fatalf("NumGroups = %d, want %d", g.NumGroups(), len(oracle))
	}
	for gid, k := range g.GroupKeys() {
		if oracle[k] != int32(gid) {
			t.Fatalf("GroupKeys[%d] = %d inconsistent", gid, k)
		}
	}
}

// TestGrouperResetLikeFresh pins Reset's contract: a Grouper that has
// grown large and is then reset assigns the IDs, and charges the
// counters (the partition footprint above all), of a fresh Grouper —
// the storage it kept must not show.
func TestGrouperResetLikeFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := make([]int64, 50000)
	for i := range big {
		big[i] = rng.Int63()
	}
	reused := NewGrouper(16)
	reused.GroupIDsCacheResident(big, make([]int32, len(big)), &Counters{})

	for _, n := range []int{0, 5, 700, 3000} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n/2 + 1))
		}
		var wantCtr, gotCtr Counters
		want, got := make([]int32, n), make([]int32, n)
		fresh := NewGrouper(16)
		fresh.GroupIDsCacheResident(keys, want, &wantCtr)
		reused.Reset(16)
		reused.GroupIDsCacheResident(keys, got, &gotCtr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reset grouper assigns different IDs", n)
		}
		if n > 0 && !reflect.DeepEqual(reused.GroupKeys(), fresh.GroupKeys()) {
			t.Fatalf("n=%d: reset grouper has different group keys", n)
		}
		if gotCtr != wantCtr {
			t.Fatalf("n=%d: reset grouper charges %+v, fresh charges %+v", n, gotCtr, wantCtr)
		}
	}
}

func TestScatterAggKernels(t *testing.T) {
	gids := []int32{0, 1, 0, 2, 1, 0}
	fvals := []float64{1, 2, 3, 4, 5, 6}
	ivals := []int64{10, 20, 30, 40, 50, 60}
	var ctr Counters
	var sums []float64
	ScatterSumF64(gids, fvals, &sums, 3, &ctr)
	if sums[0] != 10 || sums[1] != 7 || sums[2] != 4 {
		t.Errorf("ScatterSumF64 = %v", sums)
	}
	var isums []int64
	ScatterSumI64(gids, ivals, &isums, 3, &ctr)
	if isums[0] != 100 || isums[1] != 70 || isums[2] != 40 {
		t.Errorf("ScatterSumI64 = %v", isums)
	}
	var counts []int64
	ScatterCount(gids, &counts, 3, &ctr)
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("ScatterCount = %v", counts)
	}
	var mins []float64
	ScatterMinF64(gids, fvals, &mins, 3, 1e300, &ctr)
	if mins[0] != 1 || mins[1] != 2 || mins[2] != 4 {
		t.Errorf("ScatterMinF64 = %v", mins)
	}
	var maxs []float64
	ScatterMaxF64(gids, fvals, &maxs, 3, -1e300, &ctr)
	if maxs[0] != 6 || maxs[1] != 5 || maxs[2] != 4 {
		t.Errorf("ScatterMaxF64 = %v", maxs)
	}
	var imins []int64
	ScatterMinI64(gids, ivals, &imins, 3, 1<<62, &ctr)
	if imins[0] != 10 || imins[1] != 20 || imins[2] != 40 {
		t.Errorf("ScatterMinI64 = %v", imins)
	}
	var imaxs []int64
	ScatterMaxI64(gids, ivals, &imaxs, 3, -(1 << 62), &ctr)
	if imaxs[0] != 60 || imaxs[1] != 50 || imaxs[2] != 40 {
		t.Errorf("ScatterMaxI64 = %v", imaxs)
	}
	if SumF64(fvals, &ctr) != 21 {
		t.Error("SumF64 wrong")
	}
	if SumI64(ivals, &ctr) != 210 {
		t.Error("SumI64 wrong")
	}
}

func TestScatterSumPropertyMatchesMap(t *testing.T) {
	f := func(keys8 []uint8, vals []float64) bool {
		n := len(keys8)
		if len(vals) < n {
			n = len(vals)
		}
		keys := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = int64(keys8[i] % 16)
		}
		var ctr Counters
		g := NewGrouper(4)
		gids := g.GroupIDs(keys, &ctr)
		var sums []float64
		ScatterSumF64(gids, vals[:n], &sums, g.NumGroups(), &ctr)
		oracle := map[int64]float64{}
		for i := 0; i < n; i++ {
			oracle[keys[i]] += vals[i]
		}
		for gid, k := range g.GroupKeys() {
			if sums[gid] != oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineKeys(t *testing.T) {
	var ctr Counters
	hi := []int64{1, 2, 3}
	lo := []int64{100, 200, 300}
	keys, err := CombineKeys(hi, lo, 20, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		h, l := SplitKey(keys[i], 20)
		if h != hi[i] || l != lo[i] {
			t.Errorf("SplitKey mismatch at %d: %d %d", i, h, l)
		}
	}
	if _, err := CombineKeys([]int64{1}, []int64{1 << 21}, 20, &ctr); err == nil {
		t.Error("CombineKeys accepted out-of-range lo")
	}
	if _, err := CombineKeys([]int64{-1}, []int64{0}, 20, &ctr); err == nil {
		t.Error("CombineKeys accepted negative hi")
	}
	if _, err := CombineKeys([]int64{1, 2}, []int64{1}, 20, &ctr); err == nil {
		t.Error("CombineKeys accepted length mismatch")
	}
}

func TestKeysFromColumn(t *testing.T) {
	var ctr Counters
	ic := &colstore.Int64s{V: []int64{9, 8, 7}}
	k, err := KeysFromColumn(ic, nil, &ctr)
	if err != nil || k[0] != 9 || k[2] != 7 {
		t.Fatalf("int keys: %v %v", k, err)
	}
	k, _ = KeysFromColumn(ic, []int32{2, 0}, &ctr)
	if k[0] != 7 || k[1] != 9 {
		t.Errorf("int keys via sel: %v", k)
	}
	dc := &colstore.Dates{V: []int32{5, 6}}
	k, _ = KeysFromColumn(dc, nil, &ctr)
	if k[1] != 6 {
		t.Errorf("date keys: %v", k)
	}
	d := colstore.NewDict()
	sc := &colstore.Strings{Codes: []int32{d.Add("a"), d.Add("b"), d.Add("a")}, Dict: d}
	k, _ = KeysFromColumn(sc, nil, &ctr)
	if k[0] != k[2] || k[0] == k[1] {
		t.Errorf("string keys: %v", k)
	}
	bc := &colstore.Bools{V: []bool{true, false}}
	k, _ = KeysFromColumn(bc, nil, &ctr)
	if k[0] != 1 || k[1] != 0 {
		t.Errorf("bool keys: %v", k)
	}
	k, _ = KeysFromColumn(bc, []int32{1, 0}, &ctr)
	if k[0] != 0 || k[1] != 1 {
		t.Errorf("bool keys via sel: %v", k)
	}
	fc := &colstore.Float64s{V: []float64{1}}
	if _, err := KeysFromColumn(fc, nil, &ctr); err == nil {
		t.Error("float keys should error")
	}
}

func TestSortTableMultiKey(t *testing.T) {
	schema := colstore.Schema{
		{Name: "g", Type: colstore.String},
		{Name: "v", Type: colstore.Float64},
		{Name: "i", Type: colstore.Int64},
	}
	b := colstore.NewTableBuilder("t", schema)
	rows := []struct {
		g string
		v float64
		i int64
	}{
		{"b", 2, 0}, {"a", 9, 1}, {"b", 1, 2}, {"a", 3, 3}, {"a", 9, 4},
	}
	for _, r := range rows {
		b.Str(0, r.g)
		b.Float(1, r.v)
		b.Int(2, r.i)
		b.EndRow()
	}
	tbl := b.Build()
	var ctr Counters
	out, err := SortTable(tbl, []SortKey{{Column: "g"}, {Column: "v", Desc: true}}, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	wantI := []int64{1, 4, 3, 0, 2} // stable: row 1 before row 4 at (a, 9)
	gotI := out.MustCol("i").(*colstore.Int64s).V
	for i := range wantI {
		if gotI[i] != wantI[i] {
			t.Fatalf("sorted order = %v, want %v", gotI, wantI)
		}
	}
	top, err := TopN(tbl, []SortKey{{Column: "i", Desc: true}}, 2, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumRows() != 2 || top.MustCol("i").(*colstore.Int64s).V[0] != 4 {
		t.Errorf("TopN wrong")
	}
	topAll, _ := TopN(tbl, []SortKey{{Column: "i"}}, 100, &ctr)
	if topAll.NumRows() != 5 {
		t.Error("TopN with n > rows should return all")
	}
	if _, err := SortTable(tbl, []SortKey{{Column: "missing"}}, &ctr); err == nil {
		t.Error("sort by missing column should error")
	}
}

func TestSortPropertyOrdering(t *testing.T) {
	f := func(vals []int64) bool {
		b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "v", Type: colstore.Int64}})
		for _, v := range vals {
			b.Int(0, v)
			b.EndRow()
		}
		var ctr Counters
		out, err := SortTable(b.Build(), []SortKey{{Column: "v"}}, &ctr)
		if err != nil {
			return false
		}
		got := out.MustCol("v").(*colstore.Int64s).V
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountersAddAndObserve(t *testing.T) {
	a := Counters{TuplesScanned: 1, SeqBytes: 2, RandomAccesses: 3, IntOps: 4, FloatOps: 5,
		HashBuildTuples: 6, HashProbeTuples: 7, AggUpdates: 8, TuplesMaterialized: 9,
		BytesMaterialized: 10, MaxHashBytes: 11, PeakLiveBytes: 12}
	b := a
	b.MaxHashBytes = 5
	b.PeakLiveBytes = 100
	a.Add(b)
	if a.TuplesScanned != 2 || a.SeqBytes != 4 || a.AggUpdates != 16 {
		t.Error("Add sums wrong")
	}
	if a.MaxHashBytes != 11 {
		t.Errorf("MaxHashBytes = %d, want max 11", a.MaxHashBytes)
	}
	if a.PeakLiveBytes != 100 {
		t.Errorf("PeakLiveBytes = %d, want 100", a.PeakLiveBytes)
	}
	a.ObserveHashBytes(1000)
	if a.MaxHashBytes != 1000 {
		t.Error("ObserveHashBytes did not raise")
	}
	a.ObserveLiveBytes(50)
	if a.PeakLiveBytes != 100 {
		t.Error("ObserveLiveBytes lowered the peak")
	}
	if a.TotalOps() <= 0 {
		t.Error("TotalOps not positive")
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func naiveSel(n int, pred func(int) bool) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		if pred(i) {
			out = append(out, int32(i))
		}
	}
	if out == nil {
		out = []int32{}
	}
	return out
}

func sortedSel(xs []uint8) []int32 {
	seen := map[int32]bool{}
	for _, x := range xs {
		seen[int32(x)] = true
	}
	out := make([]int32, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func anyTrue(m []bool) bool {
	for _, b := range m {
		if b {
			return true
		}
	}
	return false
}

func randWord(rng *rand.Rand, alphabet string, maxLen int) string {
	n := rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}
