package tpch

import (
	"fmt"
	"testing"

	"wimpi/internal/colstore"
)

const testSF = 0.01

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Config{SF: testSF, Seed: 42})
}

func TestGenerateCardinalities(t *testing.T) {
	d := testDataset(t)
	s, p, c, o := d.Config.Counts()
	if s != 100 || p != 2000 || c != 1500 || o != 15000 {
		t.Fatalf("counts = %d %d %d %d", s, p, c, o)
	}
	if got := d.Tables["supplier"].NumRows(); got != s {
		t.Errorf("supplier rows = %d, want %d", got, s)
	}
	if got := d.Tables["part"].NumRows(); got != p {
		t.Errorf("part rows = %d, want %d", got, p)
	}
	if got := d.Tables["partsupp"].NumRows(); got != p*4 {
		t.Errorf("partsupp rows = %d, want %d", got, p*4)
	}
	if got := d.Tables["customer"].NumRows(); got != c {
		t.Errorf("customer rows = %d, want %d", got, c)
	}
	if got := d.Tables["orders"].NumRows(); got != o {
		t.Errorf("orders rows = %d, want %d", got, o)
	}
	li := d.Tables["lineitem"].NumRows()
	if li < o || li > o*7 {
		t.Errorf("lineitem rows = %d, outside [%d, %d]", li, o, o*7)
	}
	// Average lines per order should be close to 4.
	avg := float64(li) / float64(o)
	if avg < 3.7 || avg > 4.3 {
		t.Errorf("avg lines/order = %.2f", avg)
	}
	if d.Tables["nation"].NumRows() != 25 || d.Tables["region"].NumRows() != 5 {
		t.Error("nation/region cardinality wrong")
	}
	if d.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.001, Seed: 7})
	b := Generate(Config{SF: 0.001, Seed: 7})
	for _, name := range TableNames {
		ta, tb := a.Tables[name], b.Tables[name]
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s: row counts differ", name)
		}
		for ci := range ta.Cols {
			for r := 0; r < ta.NumRows(); r++ {
				if cellOf(ta.Cols[ci], r) != cellOf(tb.Cols[ci], r) {
					t.Fatalf("%s col %d row %d differs", name, ci, r)
				}
			}
		}
	}
	c := Generate(Config{SF: 0.001, Seed: 8})
	diff := false
	la, lc := a.Tables["lineitem"], c.Tables["lineitem"]
	for r := 0; r < min(la.NumRows(), lc.NumRows()) && !diff; r++ {
		if cellOf(la.Cols[4], r) != cellOf(lc.Cols[4], r) {
			diff = true
		}
	}
	if !diff && la.NumRows() == lc.NumRows() {
		t.Error("different seeds produced identical lineitem quantities")
	}
}

func TestPartitionUnionEqualsWhole(t *testing.T) {
	cfg := Config{SF: 0.002, Seed: 13}
	whole := Generate(cfg)
	numNodes := 3
	var liRowsTotal int
	seen := map[int64]int{} // orderkey -> partition rows
	for node := 0; node < numNodes; node++ {
		part, err := GeneratePartition(cfg, node, numNodes)
		if err != nil {
			t.Fatal(err)
		}
		li := part.Tables["lineitem"]
		liRowsTotal += li.NumRows()
		ok := colI(li, "l_orderkey")
		for _, k := range ok {
			if int(k%int64(numNodes)) != node {
				t.Fatalf("node %d holds orderkey %d", node, k)
			}
			seen[k]++
		}
		// Replicated tables match the whole dataset.
		for _, name := range []string{"orders", "customer", "part", "supplier", "partsupp", "nation", "region"} {
			if part.Tables[name].NumRows() != whole.Tables[name].NumRows() {
				t.Fatalf("node %d: %s not fully replicated", node, name)
			}
		}
	}
	if liRowsTotal != whole.Tables["lineitem"].NumRows() {
		t.Fatalf("partition union = %d rows, whole = %d", liRowsTotal, whole.Tables["lineitem"].NumRows())
	}
	// Partition content equals the whole table's rows for those orders:
	// spot check per-order line counts.
	wholeCounts := map[int64]int{}
	for _, k := range colI(whole.Tables["lineitem"], "l_orderkey") {
		wholeCounts[k]++
	}
	for k, n := range seen {
		if wholeCounts[k] != n {
			t.Fatalf("orderkey %d: partition has %d lines, whole has %d", k, n, wholeCounts[k])
		}
	}

	if _, err := GeneratePartition(cfg, 3, 3); err == nil {
		t.Error("out-of-range partition should error")
	}
	if _, err := GeneratePartition(cfg, 0, 0); err == nil {
		t.Error("zero nodes should error")
	}
}

func TestLineitemConsistency(t *testing.T) {
	d := testDataset(t)
	li := d.Tables["lineitem"]
	suppliers := d.Tables["supplier"].NumRows()
	parts := d.Tables["part"].NumRows()
	orderkeys := colI(li, "l_orderkey")
	partkeys := colI(li, "l_partkey")
	suppkeys := colI(li, "l_suppkey")
	qty := colF(li, "l_quantity")
	extprice := colF(li, "l_extendedprice")
	disc := colF(li, "l_discount")
	ship := colD(li, "l_shipdate")
	commit := colD(li, "l_commitdate")
	receipt := colD(li, "l_receiptdate")
	rf := colS(li, "l_returnflag")
	ls := colS(li, "l_linestatus")

	// Valid partsupp pairs.
	psPairs := map[[2]int64]bool{}
	ps := d.Tables["partsupp"]
	pk := colI(ps, "ps_partkey")
	sk := colI(ps, "ps_suppkey")
	for i := range pk {
		psPairs[[2]int64{pk[i], sk[i]}] = true
	}

	ordDates := map[int64]int32{}
	o := d.Tables["orders"]
	for i, k := range colI(o, "o_orderkey") {
		ordDates[k] = colD(o, "o_orderdate")[i]
	}

	for i := 0; i < li.NumRows(); i++ {
		if partkeys[i] < 1 || partkeys[i] > int64(parts) {
			t.Fatalf("row %d: partkey %d out of range", i, partkeys[i])
		}
		if suppkeys[i] < 1 || suppkeys[i] > int64(suppliers) {
			t.Fatalf("row %d: suppkey %d out of range", i, suppkeys[i])
		}
		if !psPairs[[2]int64{partkeys[i], suppkeys[i]}] {
			t.Fatalf("row %d: (part %d, supp %d) not in partsupp", i, partkeys[i], suppkeys[i])
		}
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("row %d: quantity %f", i, qty[i])
		}
		want := qty[i] * RetailPrice(partkeys[i])
		if diff := extprice[i] - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("row %d: extendedprice %f, want %f", i, extprice[i], want)
		}
		if disc[i] < 0 || disc[i] > 0.10001 {
			t.Fatalf("row %d: discount %f", i, disc[i])
		}
		od := ordDates[orderkeys[i]]
		if ship[i] <= od || ship[i] > od+121 {
			t.Fatalf("row %d: shipdate not in (orderdate, +121]", i)
		}
		if receipt[i] <= ship[i] || receipt[i] > ship[i]+30 {
			t.Fatalf("row %d: receiptdate invalid", i)
		}
		if commit[i] < od+30 || commit[i] > od+90 {
			t.Fatalf("row %d: commitdate invalid", i)
		}
		if receipt[i] <= CurrentDate && rf[i] == "N" {
			t.Fatalf("row %d: returnflag N for past receipt", i)
		}
		if receipt[i] > CurrentDate && rf[i] != "N" {
			t.Fatalf("row %d: returnflag %s for future receipt", i, rf[i])
		}
		if (ship[i] > CurrentDate) != (ls[i] == "O") {
			t.Fatalf("row %d: linestatus %s inconsistent", i, ls[i])
		}
	}
}

func TestOrdersConsistency(t *testing.T) {
	d := testDataset(t)
	o := d.Tables["orders"]
	customers := d.Tables["customer"].NumRows()
	ck := colI(o, "o_custkey")
	status := colS(o, "o_orderstatus")
	total := colF(o, "o_totalprice")

	// Aggregate lineitem charges per order.
	li := d.Tables["lineitem"]
	liOk := colI(li, "l_orderkey")
	ext := colF(li, "l_extendedprice")
	disc := colF(li, "l_discount")
	tax := colF(li, "l_tax")
	ls := colS(li, "l_linestatus")
	charges := map[int64]float64{}
	statuses := map[int64]map[string]bool{}
	for i := range liOk {
		charges[liOk[i]] += ext[i] * (1 + tax[i]) * (1 - disc[i])
		if statuses[liOk[i]] == nil {
			statuses[liOk[i]] = map[string]bool{}
		}
		statuses[liOk[i]][ls[i]] = true
	}
	for i, k := range colI(o, "o_orderkey") {
		if ck[i] < 1 || ck[i] > int64(customers) {
			t.Fatalf("order %d: custkey %d out of range", k, ck[i])
		}
		if customers >= 3 && ck[i]%3 == 0 {
			t.Fatalf("order %d: custkey %d is a multiple of 3", k, ck[i])
		}
		if diff := total[i] - charges[k]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("order %d: totalprice %f, lineitems sum to %f", k, total[i], charges[k])
		}
		st := statuses[k]
		switch {
		case st["F"] && !st["O"]:
			if status[i] != "F" {
				t.Fatalf("order %d: status %s, want F", k, status[i])
			}
		case st["O"] && !st["F"]:
			if status[i] != "O" {
				t.Fatalf("order %d: status %s, want O", k, status[i])
			}
		default:
			if status[i] != "P" {
				t.Fatalf("order %d: status %s, want P", k, status[i])
			}
		}
	}
}

func TestTextPatternsInjected(t *testing.T) {
	d := Generate(Config{SF: 0.1, Seed: 3})
	// Each of the 16 Q13 word pairs lands in roughly 0.5% of comments.
	cm := colS(d.Tables["orders"], "o_comment")
	var special int
	for _, s := range cm {
		if matchSpecialRequests(s) {
			special++
		}
	}
	frac := float64(special) / float64(len(cm))
	if frac < 0.002 || frac > 0.02 {
		t.Errorf("special-requests fraction = %f", frac)
	}
	for _, w1 := range q13Words1 {
		var n int
		for _, s := range cm {
			if matchWordPair(s, w1, "deposits") {
				n++
			}
		}
		if f := float64(n) / float64(len(cm)); f < 0.001 || f > 0.02 {
			t.Errorf("pattern %%%s%%deposits%% fraction = %f", w1, f)
		}
	}
	// Q22 phone country codes are nationkey+10.
	cust := d.Tables["customer"]
	phones := colS(cust, "c_phone")
	nk := colI(cust, "c_nationkey")
	for i := range phones {
		want := int64(phones[i][0]-'0')*10 + int64(phones[i][1]-'0')
		if want != nk[i]+10 {
			t.Fatalf("phone %s for nation %d", phones[i], nk[i])
		}
	}
}

func TestSuppForPartInRange(t *testing.T) {
	for _, s := range []int{100, 10000} {
		for p := int64(1); p <= 200; p++ {
			seen := map[int64]bool{}
			for i := 0; i < 4; i++ {
				sk := SuppForPart(p, i, s)
				if sk < 1 || sk > int64(s) {
					t.Fatalf("SuppForPart(%d, %d, %d) = %d", p, i, s, sk)
				}
				seen[sk] = true
			}
			if len(seen) < 2 {
				t.Fatalf("part %d has too few distinct suppliers", p)
			}
		}
	}
}

func cellOf(c colstore.Column, r int) any {
	switch col := c.(type) {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPartitionFromFullEqualsGenerated(t *testing.T) {
	cfg := Config{SF: 0.002, Seed: 5}
	full := Generate(cfg)
	for node := 0; node < 3; node++ {
		gen, err := GeneratePartition(cfg, node, 3)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := PartitionFromFull(full, node, 3)
		if err != nil {
			t.Fatal(err)
		}
		gl, dl := gen.Tables["lineitem"], derived.Tables["lineitem"]
		if gl.NumRows() != dl.NumRows() {
			t.Fatalf("node %d: %d vs %d lineitem rows", node, gl.NumRows(), dl.NumRows())
		}
		for ci := range gl.Cols {
			for r := 0; r < gl.NumRows(); r++ {
				if cellOf(gl.Cols[ci], r) != cellOf(dl.Cols[ci], r) {
					t.Fatalf("node %d: lineitem col %d row %d differs", node, ci, r)
				}
			}
		}
		// Replicated tables are shared, not copied.
		if derived.Tables["orders"] != full.Tables["orders"] {
			t.Error("orders should be shared zero-copy")
		}
	}
	if _, err := PartitionFromFull(full, 3, 3); err == nil {
		t.Error("out-of-range node should error")
	}
}

// TestLineitemSizedExactly pins the exact pre-size of lineitem: a column
// with spare capacity means the builder outgrew its estimate and
// reallocated (all 16 columns, a quarter larger), which is the two-mode
// peak RSS the benchmark saw across seeds.
func TestLineitemSizedExactly(t *testing.T) {
	check := func(label string, li *colstore.Table) {
		t.Helper()
		for ci, c := range li.Cols {
			var n, capacity int
			switch c := c.(type) {
			case *colstore.Int64s:
				n, capacity = len(c.V), cap(c.V)
			case *colstore.Float64s:
				n, capacity = len(c.V), cap(c.V)
			case *colstore.Dates:
				n, capacity = len(c.V), cap(c.V)
			case *colstore.Strings:
				n, capacity = len(c.Codes), cap(c.Codes)
			default:
				t.Fatalf("%s: unhandled column type %T", label, c)
			}
			if capacity != n {
				t.Errorf("%s: %s has cap %d for %d rows", label, li.Schema[ci].Name, capacity, n)
			}
		}
	}
	for seed := uint64(1); seed <= 10; seed++ {
		d := Generate(Config{SF: testSF, Seed: seed})
		check(fmt.Sprintf("seed %d", seed), d.Tables["lineitem"])
	}
	part, err := GeneratePartition(Config{SF: testSF, Seed: 3}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("node 1 of 3", part.Tables["lineitem"])
}
