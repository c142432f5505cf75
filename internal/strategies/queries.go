package strategies

import (
	"fmt"
	"sort"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/tpch"
)

// Queries lists the eight representative TPC-H queries evaluated in
// Figure 4 (the same subset as the distributed experiments).
var Queries = tpch.RepresentativeQueries

// Prepared is a query readied for strategy execution: the shared build
// side (hash tables, payload arrays — identical across strategies) plus
// the probe pipeline description and result post-processing.
type Prepared struct {
	// Pipeline is the probe-side execution description.
	Pipeline *Pipeline
	// BuildCounters is the work spent preparing build-side structures,
	// charged identically to every strategy.
	BuildCounters exec.Counters
	// Post converts the aggregation state into ordered result rows
	// matching tpch.Reference output.
	Post func(*Result) [][]any
}

// Prepare readies query q (one of Queries) against d.
func Prepare(q int, d *tpch.Dataset) (*Prepared, error) {
	switch q {
	case 1:
		return prepQ1(d), nil
	case 3:
		return prepQ3(d), nil
	case 4:
		return prepQ4(d), nil
	case 5:
		return prepQ5(d), nil
	case 6:
		return prepQ6(d), nil
	case 13:
		return prepQ13(d), nil
	case 14:
		return prepQ14(d), nil
	case 19:
		return prepQ19(d), nil
	default:
		return nil, fmt.Errorf("strategies: query %d is not in the Figure 4 subset", q)
	}
}

// Execute runs query q under strategy s, returning result rows and the
// total work profile (build + probe).
func Execute(s Strategy, q int, d *tpch.Dataset) ([][]any, exec.Counters, error) {
	prep, err := Prepare(q, d)
	if err != nil {
		return nil, exec.Counters{}, err
	}
	res, err := Run(s, prep.Pipeline)
	if err != nil {
		return nil, exec.Counters{}, err
	}
	ctr := prep.BuildCounters
	ctr.Add(res.Counters)
	return prep.Post(res), ctr, nil
}

func date(s string) int32 { return colstore.MustDate(s) }

func prepQ1(d *tpch.Dataset) *Prepared {
	li := d.Tables["lineitem"]
	ship := li.MustCol("l_shipdate").(*colstore.Dates).V
	rf := li.MustCol("l_returnflag").(*colstore.Strings)
	ls := li.MustCol("l_linestatus").(*colstore.Strings)
	qty := li.MustCol("l_quantity").(*colstore.Float64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V
	tax := li.MustCol("l_tax").(*colstore.Float64s).V
	cutoff := date("1998-09-02")

	// Slots: 0 rf, 1 ls, 2 qty, 3 ext, 4 disc, 5 discPrice, 6 charge.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 7,
		Stages: []Stage{
			{
				Name:        "filter shipdate",
				BytesPerRow: 4, OpsPerRow: 1,
				Row: func(r int, s []float64) bool { return ship[r] <= cutoff },
			},
			{
				Name:        "compute measures",
				BytesPerRow: 40, OpsPerRow: 6,
				Row: func(r int, s []float64) bool {
					dp := ext[r] * (1 - disc[r])
					s[0] = float64(rf.Codes[r])
					s[1] = float64(ls.Codes[r])
					s[2] = qty[r]
					s[3] = ext[r]
					s[4] = disc[r]
					s[5] = dp
					s[6] = dp * (1 + tax[r])
					return true
				},
			},
		},
		Keys: []int{0, 1},
		Sums: []int{2, 3, 5, 6, 4},
	}
	return &Prepared{
		Pipeline: p,
		Post: func(res *Result) [][]any {
			var out [][]any
			for k, st := range res.Groups {
				n := float64(st.Count)
				out = append(out, []any{
					rf.Dict.Value(int32(k[0])), ls.Dict.Value(int32(k[1])),
					st.Sums[0], st.Sums[1], st.Sums[2], st.Sums[3],
					st.Sums[0] / n, st.Sums[1] / n, st.Sums[4] / n, st.Count,
				})
			}
			sort.Slice(out, func(i, j int) bool {
				if a, b := out[i][0].(string), out[j][0].(string); a != b {
					return a < b
				}
				return out[i][1].(string) < out[j][1].(string)
			})
			return out
		},
	}
}

func prepQ3(d *tpch.Dataset) *Prepared {
	var build exec.Counters
	li := d.Tables["lineitem"]
	ship := li.MustCol("l_shipdate").(*colstore.Dates).V
	lok := li.MustCol("l_orderkey").(*colstore.Int64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V
	cut := date("1995-03-15")

	// Build: BUILDING customers, then qualifying orders keyed by orderkey.
	cust := d.Tables["customer"]
	ck := cust.MustCol("c_custkey").(*colstore.Int64s).V
	seg := cust.MustCol("c_mktsegment").(*colstore.Strings)
	segB, _ := seg.Dict.Lookup("BUILDING")
	building := map[int64]bool{}
	for i := range ck {
		if seg.Codes[i] == segB {
			building[ck[i]] = true
		}
	}
	build.SeqBytes += int64(len(ck)) * 12
	build.IntOps += int64(len(ck))

	ord := d.Tables["orders"]
	ok := ord.MustCol("o_orderkey").(*colstore.Int64s).V
	oc := ord.MustCol("o_custkey").(*colstore.Int64s).V
	od := ord.MustCol("o_orderdate").(*colstore.Dates).V
	var keys []int64
	var odates []int32
	for i := range ok {
		if od[i] < cut && building[oc[i]] {
			keys = append(keys, ok[i])
			odates = append(odates, od[i])
		}
	}
	build.SeqBytes += int64(len(ok)) * 20
	build.IntOps += int64(len(ok)) * 2
	jt := exec.BuildJoinTable(keys, &build)

	// Slots: 0 orderkey, 1 odate, 2 revenue.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 3,
		Stages: []Stage{
			{
				Name:        "filter shipdate",
				BytesPerRow: 4, OpsPerRow: 1,
				Row: func(r int, s []float64) bool { return ship[r] > cut },
			},
			{
				Name:        "lookup qualifying order",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 2, IsLookup: true,
				TableBytes: exec.JoinTableBytes(len(keys)),
				Row: func(r int, s []float64) bool {
					b := jt.Lookup(lok[r])
					if b < 0 {
						s[0], s[1] = 0, 0
						return false
					}
					s[0] = float64(lok[r])
					s[1] = float64(odates[b])
					return true
				},
			},
			{
				Name:        "compute revenue",
				BytesPerRow: 16, OpsPerRow: 2,
				Row: func(r int, s []float64) bool {
					s[2] = ext[r] * (1 - disc[r])
					return true
				},
			},
		},
		Keys: []int{0, 1},
		Sums: []int{2},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post: func(res *Result) [][]any {
			var out [][]any
			for k, st := range res.Groups {
				out = append(out, []any{int64(k[0]), int32(k[1]), int64(0), st.Sums[0]})
			}
			sort.Slice(out, func(i, j int) bool {
				if a, b := out[i][3].(float64), out[j][3].(float64); a != b {
					return a > b
				}
				return out[i][1].(int32) < out[j][1].(int32)
			})
			if len(out) > 10 {
				out = out[:10]
			}
			return out
		},
	}
}

func prepQ4(d *tpch.Dataset) *Prepared {
	var build exec.Counters
	li := d.Tables["lineitem"]
	lok := li.MustCol("l_orderkey").(*colstore.Int64s).V
	commit := li.MustCol("l_commitdate").(*colstore.Dates).V
	receipt := li.MustCol("l_receiptdate").(*colstore.Dates).V
	var lateKeys []int64
	for i := range lok {
		if commit[i] < receipt[i] {
			lateKeys = append(lateKeys, lok[i])
		}
	}
	build.SeqBytes += int64(len(lok)) * 16
	build.IntOps += int64(len(lok))
	jt := exec.BuildJoinTable(lateKeys, &build)

	ord := d.Tables["orders"]
	ok := ord.MustCol("o_orderkey").(*colstore.Int64s).V
	od := ord.MustCol("o_orderdate").(*colstore.Dates).V
	prio := ord.MustCol("o_orderpriority").(*colstore.Strings)
	lo, hi := date("1993-07-01"), date("1993-10-01")

	// Slots: 0 priority code.
	p := &Pipeline{
		Rows:   ord.NumRows(),
		NSlots: 1,
		Stages: []Stage{
			{
				Name:        "filter orderdate",
				BytesPerRow: 4, OpsPerRow: 2,
				Row: func(r int, s []float64) bool { return od[r] >= lo && od[r] < hi },
			},
			{
				Name:        "exists late line",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 1, IsLookup: true,
				TableBytes: exec.JoinTableBytes(len(lateKeys)),
				Row: func(r int, s []float64) bool {
					s[0] = float64(prio.Codes[r])
					return jt.Lookup(ok[r]) >= 0
				},
			},
		},
		Keys: []int{0},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post: func(res *Result) [][]any {
			var out [][]any
			for k, st := range res.Groups {
				out = append(out, []any{prio.Dict.Value(int32(k[0])), st.Count})
			}
			sort.Slice(out, func(i, j int) bool { return out[i][0].(string) < out[j][0].(string) })
			return out
		},
	}
}

func prepQ5(d *tpch.Dataset) *Prepared {
	var build exec.Counters

	// Asian customers' qualifying orders: orderkey -> customer nation.
	nat := d.Tables["nation"]
	nname := nat.MustCol("n_name").(*colstore.Strings)
	nregion := nat.MustCol("n_regionkey").(*colstore.Int64s).V
	reg := d.Tables["region"]
	rname := reg.MustCol("r_name").(*colstore.Strings)
	var asiaRegion int64 = -1
	for i := 0; i < reg.NumRows(); i++ {
		if rname.Value(i) == "ASIA" {
			asiaRegion = reg.MustCol("r_regionkey").(*colstore.Int64s).V[i]
		}
	}
	asiaNation := map[int64]bool{}
	for i := 0; i < nat.NumRows(); i++ {
		if nregion[i] == asiaRegion {
			asiaNation[nat.MustCol("n_nationkey").(*colstore.Int64s).V[i]] = true
		}
	}

	cust := d.Tables["customer"]
	ck := cust.MustCol("c_custkey").(*colstore.Int64s).V
	cn := cust.MustCol("c_nationkey").(*colstore.Int64s).V
	custNation := map[int64]int64{}
	for i := range ck {
		if asiaNation[cn[i]] {
			custNation[ck[i]] = cn[i]
		}
	}
	build.SeqBytes += int64(len(ck)) * 16
	build.IntOps += int64(len(ck))

	ord := d.Tables["orders"]
	ok := ord.MustCol("o_orderkey").(*colstore.Int64s).V
	oc := ord.MustCol("o_custkey").(*colstore.Int64s).V
	od := ord.MustCol("o_orderdate").(*colstore.Dates).V
	lo, hi := date("1994-01-01"), date("1995-01-01")
	var keys []int64
	var nations []int64
	for i := range ok {
		if od[i] >= lo && od[i] < hi {
			if nk, found := custNation[oc[i]]; found {
				keys = append(keys, ok[i])
				nations = append(nations, nk)
			}
		}
	}
	build.SeqBytes += int64(len(ok)) * 20
	build.IntOps += int64(len(ok)) * 2
	jt := exec.BuildJoinTable(keys, &build)

	// Dense supplier nation array.
	supp := d.Tables["supplier"]
	sk := supp.MustCol("s_suppkey").(*colstore.Int64s).V
	sn := supp.MustCol("s_nationkey").(*colstore.Int64s).V
	suppNation := make([]int64, len(sk)+1)
	for i := range sk {
		suppNation[sk[i]] = sn[i]
	}
	build.SeqBytes += int64(len(sk)) * 16

	li := d.Tables["lineitem"]
	lok := li.MustCol("l_orderkey").(*colstore.Int64s).V
	lsk := li.MustCol("l_suppkey").(*colstore.Int64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V

	// Slots: 0 customer nation, 1 supplier nation, 2 revenue.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 3,
		Stages: []Stage{
			{
				Name:        "lookup asian order",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 2, IsLookup: true,
				TableBytes: exec.JoinTableBytes(len(keys)),
				Row: func(r int, s []float64) bool {
					b := jt.Lookup(lok[r])
					if b < 0 {
						s[0] = -1
						return false
					}
					s[0] = float64(nations[b])
					return true
				},
			},
			{
				Name:        "lookup supplier nation",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 1, IsLookup: true,
				TableBytes: int64(len(suppNation)) * 8,
				Row: func(r int, s []float64) bool {
					s[1] = float64(suppNation[lsk[r]])
					return true
				},
			},
			{
				Name:        "filter same nation",
				BytesPerRow: 0, OpsPerRow: 1, NeedsSlots: true,
				Row: func(r int, s []float64) bool { return s[0] == s[1] && s[0] >= 0 },
			},
			{
				Name:        "compute revenue",
				BytesPerRow: 16, OpsPerRow: 2,
				Row: func(r int, s []float64) bool {
					s[2] = ext[r] * (1 - disc[r])
					return true
				},
			},
		},
		Keys: []int{0},
		Sums: []int{2},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post: func(res *Result) [][]any {
			var out [][]any
			for k, st := range res.Groups {
				out = append(out, []any{nname.Value(int(int32(k[0]))), st.Sums[0]})
			}
			sort.Slice(out, func(i, j int) bool { return out[i][1].(float64) > out[j][1].(float64) })
			return out
		},
	}
}

func prepQ6(d *tpch.Dataset) *Prepared {
	li := d.Tables["lineitem"]
	ship := li.MustCol("l_shipdate").(*colstore.Dates).V
	qty := li.MustCol("l_quantity").(*colstore.Float64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V
	lo, hi := date("1994-01-01"), date("1995-01-01")

	// Slots: 0 revenue.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 1,
		Stages: []Stage{
			{
				Name:        "filter shipdate",
				BytesPerRow: 4, OpsPerRow: 2,
				Row: func(r int, s []float64) bool { return ship[r] >= lo && ship[r] < hi },
			},
			{
				Name:        "filter discount",
				BytesPerRow: 8, OpsPerRow: 2,
				Row: func(r int, s []float64) bool { return disc[r] >= 0.05 && disc[r] <= 0.07 },
			},
			{
				Name:        "filter quantity",
				BytesPerRow: 8, OpsPerRow: 1,
				Row: func(r int, s []float64) bool { return qty[r] < 24 },
			},
			{
				Name:        "compute revenue",
				BytesPerRow: 8, OpsPerRow: 1,
				Row: func(r int, s []float64) bool {
					s[0] = ext[r] * disc[r]
					return true
				},
			},
		},
		Sums: []int{0},
	}
	return &Prepared{
		Pipeline: p,
		Post:     scalarPost(0),
	}
}

func prepQ13(d *tpch.Dataset) *Prepared {
	var build exec.Counters
	ord := d.Tables["orders"]
	oc := ord.MustCol("o_custkey").(*colstore.Int64s).V
	cmnt := ord.MustCol("o_comment").(*colstore.Strings)
	exclude := cmnt.Dict.MatchMask(exec.CompileLike("%special%requests%").Match)
	build.IntOps += int64(cmnt.Dict.Len()) * 8
	var keys []int64
	for i := range oc {
		if !exclude[cmnt.Codes[i]] {
			keys = append(keys, oc[i])
		}
	}
	build.SeqBytes += int64(len(oc)) * 12
	build.IntOps += int64(len(oc))
	jt := exec.BuildJoinTable(keys, &build)

	cust := d.Tables["customer"]
	ck := cust.MustCol("c_custkey").(*colstore.Int64s).V

	// Slots: 0 order count.
	p := &Pipeline{
		Rows:   cust.NumRows(),
		NSlots: 1,
		Stages: []Stage{
			{
				Name:        "count orders",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 2, IsLookup: true,
				TableBytes: exec.JoinTableBytes(len(keys)),
				Row: func(r int, s []float64) bool {
					s[0] = float64(jt.CountMatches(ck[r]))
					return true
				},
			},
		},
		Keys: []int{0},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post: func(res *Result) [][]any {
			var out [][]any
			for k, st := range res.Groups {
				out = append(out, []any{int64(k[0]), st.Count})
			}
			sort.Slice(out, func(i, j int) bool {
				if a, b := out[i][1].(int64), out[j][1].(int64); a != b {
					return a > b
				}
				return out[i][0].(int64) > out[j][0].(int64)
			})
			return out
		},
	}
}

func prepQ14(d *tpch.Dataset) *Prepared {
	var build exec.Counters
	part := d.Tables["part"]
	pk := part.MustCol("p_partkey").(*colstore.Int64s).V
	ptype := part.MustCol("p_type").(*colstore.Strings)
	promoMask := ptype.Dict.MatchMask(func(s string) bool {
		return len(s) >= 5 && s[:5] == "PROMO"
	})
	build.IntOps += int64(ptype.Dict.Len()) * 4
	promo := make([]float64, len(pk)+1)
	for i := range pk {
		if promoMask[ptype.Codes[i]] {
			promo[pk[i]] = 1
		}
	}
	build.SeqBytes += int64(len(pk)) * 12

	li := d.Tables["lineitem"]
	ship := li.MustCol("l_shipdate").(*colstore.Dates).V
	lpk := li.MustCol("l_partkey").(*colstore.Int64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V
	lo, hi := date("1995-09-01"), date("1995-10-01")

	// Slots: 0 promo revenue, 1 revenue.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 2,
		Stages: []Stage{
			{
				Name:        "filter shipdate",
				BytesPerRow: 4, OpsPerRow: 2,
				Row: func(r int, s []float64) bool { return ship[r] >= lo && ship[r] < hi },
			},
			{
				Name:        "lookup promo flag + revenue",
				BytesPerRow: 24 + lookupBytes, OpsPerRow: 4, IsLookup: true,
				TableBytes: int64(len(promo)) * 8,
				Row: func(r int, s []float64) bool {
					v := ext[r] * (1 - disc[r])
					s[0] = v * promo[lpk[r]]
					s[1] = v
					return true
				},
			},
		},
		Sums: []int{0, 1},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post: func(res *Result) [][]any {
			st := res.Groups[GroupKey{}]
			if st == nil {
				return [][]any{{0.0}}
			}
			return [][]any{{100 * st.Sums[0] / st.Sums[1]}}
		},
	}
}

func prepQ19(d *tpch.Dataset) *Prepared {
	var build exec.Counters
	part := d.Tables["part"]
	pk := part.MustCol("p_partkey").(*colstore.Int64s).V
	brand := part.MustCol("p_brand").(*colstore.Strings)
	contnr := part.MustCol("p_container").(*colstore.Strings)
	size := part.MustCol("p_size").(*colstore.Int64s).V

	inSet := func(d *colstore.Dict, vals ...string) []bool {
		mask := make([]bool, d.Len())
		for _, v := range vals {
			if c, found := d.Lookup(v); found {
				mask[c] = true
			}
		}
		return mask
	}
	b12, _ := brand.Dict.Lookup("Brand#12")
	b23, _ := brand.Dict.Lookup("Brand#23")
	b34, _ := brand.Dict.Lookup("Brand#34")
	sm := inSet(contnr.Dict, "SM CASE", "SM BOX", "SM PACK", "SM PKG")
	med := inSet(contnr.Dict, "MED BAG", "MED BOX", "MED PKG", "MED PACK")
	lg := inSet(contnr.Dict, "LG CASE", "LG BOX", "LG PACK", "LG PKG")

	// blockOf[partkey]: 0 none, 1/2/3 matching condition block.
	blockOf := make([]float64, len(pk)+1)
	for i := range pk {
		var blk float64
		switch {
		case brand.Codes[i] == b12 && sm[contnr.Codes[i]] && size[i] >= 1 && size[i] <= 5:
			blk = 1
		case brand.Codes[i] == b23 && med[contnr.Codes[i]] && size[i] >= 1 && size[i] <= 10:
			blk = 2
		case brand.Codes[i] == b34 && lg[contnr.Codes[i]] && size[i] >= 1 && size[i] <= 15:
			blk = 3
		}
		blockOf[pk[i]] = blk
	}
	build.SeqBytes += int64(len(pk)) * 24
	build.IntOps += int64(len(pk)) * 6

	li := d.Tables["lineitem"]
	lpk := li.MustCol("l_partkey").(*colstore.Int64s).V
	qty := li.MustCol("l_quantity").(*colstore.Float64s).V
	ext := li.MustCol("l_extendedprice").(*colstore.Float64s).V
	disc := li.MustCol("l_discount").(*colstore.Float64s).V
	mode := li.MustCol("l_shipmode").(*colstore.Strings)
	instruct := li.MustCol("l_shipinstruct").(*colstore.Strings)
	modeMask := inSet(mode.Dict, "AIR", "AIR REG")
	deliver, _ := instruct.Dict.Lookup("DELIVER IN PERSON")

	// Slots: 0 block, 1 revenue.
	p := &Pipeline{
		Rows:   li.NumRows(),
		NSlots: 2,
		Stages: []Stage{
			{
				Name:        "filter shipmode",
				BytesPerRow: 4, OpsPerRow: 1,
				Row: func(r int, s []float64) bool { return modeMask[mode.Codes[r]] },
			},
			{
				Name:        "filter shipinstruct",
				BytesPerRow: 4, OpsPerRow: 1,
				Row: func(r int, s []float64) bool { return instruct.Codes[r] == deliver },
			},
			{
				Name:        "lookup part block",
				BytesPerRow: 8 + lookupBytes, OpsPerRow: 2, IsLookup: true,
				TableBytes: int64(len(blockOf)) * 8,
				Row: func(r int, s []float64) bool {
					s[0] = blockOf[lpk[r]]
					return s[0] > 0
				},
			},
			{
				Name:        "filter quantity by block",
				BytesPerRow: 8, OpsPerRow: 3, NeedsSlots: true,
				Row: func(r int, s []float64) bool {
					q := qty[r]
					switch s[0] {
					case 1:
						return q >= 1 && q <= 11
					case 2:
						return q >= 10 && q <= 20
					case 3:
						return q >= 20 && q <= 30
					}
					return false
				},
			},
			{
				Name:        "compute revenue",
				BytesPerRow: 16, OpsPerRow: 2,
				Row: func(r int, s []float64) bool {
					s[1] = ext[r] * (1 - disc[r])
					return true
				},
			},
		},
		Sums: []int{1},
	}
	return &Prepared{
		Pipeline:      p,
		BuildCounters: build,
		Post:          scalarPost(0),
	}
}

// scalarPost renders a keyless single-sum aggregation as one row.
func scalarPost(sumIdx int) func(*Result) [][]any {
	return func(res *Result) [][]any {
		st := res.Groups[GroupKey{}]
		if st == nil {
			return [][]any{{0.0}}
		}
		return [][]any{{st.Sums[sumIdx]}}
	}
}
