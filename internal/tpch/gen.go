package tpch

import (
	"fmt"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
)

// Date constants from the TPC-H specification.
var (
	// StartDate is the earliest order date.
	StartDate = colstore.MustDate("1992-01-01")
	// lastOrderDate is the latest order date (ENDDATE - 151 days).
	lastOrderDate = colstore.MustDate("1998-08-02")
	// CurrentDate is the spec's [CURRENTDATE] used to derive return
	// flags and line statuses.
	CurrentDate = colstore.MustDate("1995-06-17")
)

// Stream tags keeping per-table RNG streams independent.
const (
	tagOrder uint64 = iota + 1
	tagCustomer
	tagPart
	tagSupplier
	tagPartsupp
	tagNation
	tagRegion
)

// Config parameterizes data generation.
type Config struct {
	// SF is the scale factor; SF 1 is roughly one gigabyte of raw data
	// (6M lineitem rows).
	SF float64
	// Seed makes datasets reproducible; two configs with equal SF and
	// Seed generate identical data.
	Seed uint64
}

// Counts returns the table cardinalities at the configured scale factor.
func (c Config) Counts() (suppliers, parts, customers, orders int) {
	scale := func(base int) int {
		n := int(c.SF * float64(base))
		if n < 1 {
			n = 1
		}
		return n
	}
	return scale(10000), scale(200000), scale(150000), scale(1500000)
}

// RetailPrice returns p_retailprice for a part key, per the spec formula.
// l_extendedprice is derived from it, tying lineitem prices to parts.
func RetailPrice(partkey int64) float64 {
	return float64(90000+(partkey/10)%20001+100*(partkey%1000)) / 100
}

// SuppForPart returns the i-th (0..3) supplier of a part, per the spec
// formula. The same formula generates partsupp rows and picks l_suppkey,
// so lineitem⋈partsupp on (partkey, suppkey) always matches.
func SuppForPart(partkey int64, i int, suppliers int) int64 {
	s := int64(suppliers)
	return (partkey+int64(i)*(s/4+(partkey-1)/s))%s + 1
}

// Dataset is a generated set of TPC-H tables.
type Dataset struct {
	// Tables maps table names to data.
	Tables map[string]*colstore.Table
	// Config records how the dataset was generated.
	Config Config
}

// RegisterAll registers every table with db.
func (d *Dataset) RegisterAll(db *engine.DB) {
	for _, t := range d.Tables {
		db.Register(t)
	}
}

// SizeBytes reports the total column data footprint.
func (d *Dataset) SizeBytes() int64 {
	var n int64
	for _, t := range d.Tables {
		n += t.SizeBytes()
	}
	return n
}

// Generate builds a complete TPC-H dataset.
func Generate(cfg Config) *Dataset {
	return generate(cfg, 0, 1)
}

// GeneratePartition builds the dataset held by one node of an N-node
// cluster using the paper's layout: lineitem is partitioned by
// l_orderkey (rows with l_orderkey %% numNodes == node), and every other
// table is fully replicated. Generation is deterministic per order key,
// so the union of all partitions equals the single-node dataset exactly.
func GeneratePartition(cfg Config, node, numNodes int) (*Dataset, error) {
	if numNodes < 1 || node < 0 || node >= numNodes {
		return nil, fmt.Errorf("tpch: invalid partition %d of %d", node, numNodes)
	}
	return generate(cfg, node, numNodes), nil
}

// PartitionFromFull derives node's partition from an already-generated
// full dataset: the lineitem rows with l_orderkey %% numNodes == node are
// materialized, and every other table is shared (zero copy). The result
// equals GeneratePartition with the same configuration; in-process
// clusters use it to avoid holding one replica of the dimension tables
// per worker.
func PartitionFromFull(full *Dataset, node, numNodes int) (*Dataset, error) {
	if numNodes < 1 || node < 0 || node >= numNodes {
		return nil, fmt.Errorf("tpch: invalid partition %d of %d", node, numNodes)
	}
	d := &Dataset{Tables: make(map[string]*colstore.Table, 8), Config: full.Config}
	for name, t := range full.Tables {
		if name != "lineitem" {
			d.Tables[name] = t
		}
	}
	li := full.Tables["lineitem"]
	keys := li.MustCol("l_orderkey").(*colstore.Int64s).V
	sel := make([]int32, 0, len(keys)/numNodes+1)
	for i, k := range keys {
		if int(k%int64(numNodes)) == node {
			sel = append(sel, int32(i))
		}
	}
	part := li.Gather(sel)
	part.Name = "lineitem"
	d.Tables["lineitem"] = part
	return d, nil
}

func generate(cfg Config, node, numNodes int) *Dataset {
	suppliers, parts, customers, orders := cfg.Counts()
	d := &Dataset{Tables: make(map[string]*colstore.Table, 8), Config: cfg}
	d.Tables["region"] = genRegion(cfg)
	d.Tables["nation"] = genNation(cfg)
	d.Tables["supplier"] = genSupplier(cfg, suppliers)
	d.Tables["part"] = genPart(cfg, parts)
	d.Tables["partsupp"] = genPartsupp(cfg, parts, suppliers)
	d.Tables["customer"] = genCustomer(cfg, customers)
	ord, li := genOrdersAndLineitem(cfg, orders, customers, parts, suppliers, node, numNodes)
	d.Tables["orders"] = ord
	d.Tables["lineitem"] = li
	return d
}

func genRegion(cfg Config) *colstore.Table {
	b := colstore.NewTableBuilder("region", RegionSchema)
	for i, name := range regions {
		r := newRNG(mix(cfg.Seed, tagRegion, uint64(i)))
		b.Int(0, int64(i))
		b.Str(1, name)
		b.Str(2, comment(r))
		b.EndRow()
	}
	return b.Build()
}

func genNation(cfg Config) *colstore.Table {
	b := colstore.NewTableBuilder("nation", NationSchema)
	for i, n := range nations {
		r := newRNG(mix(cfg.Seed, tagNation, uint64(i)))
		b.Int(0, int64(i))
		b.Str(1, n.name)
		b.Int(2, int64(n.region))
		b.Str(3, comment(r))
		b.EndRow()
	}
	return b.Build()
}

func genSupplier(cfg Config, n int) *colstore.Table {
	b := colstore.NewTableBuilder("supplier", SupplierSchema)
	b.Grow(n)
	for k := 1; k <= n; k++ {
		r := newRNG(mix(cfg.Seed, tagSupplier, uint64(k)))
		nation := r.intn(len(nations))
		b.Int(0, int64(k))
		b.Str(1, fmt.Sprintf("Supplier#%09d", k))
		b.Str(2, address(r))
		b.Int(3, int64(nation))
		b.Str(4, phone(r, nation))
		b.Float(5, r.decimal(-999.99, 9999.99))
		b.Str(6, supplierComment(r))
		b.EndRow()
	}
	return b.Build()
}

func genPart(cfg Config, n int) *colstore.Table {
	b := colstore.NewTableBuilder("part", PartSchema)
	b.Grow(n)
	for k := 1; k <= n; k++ {
		r := newRNG(mix(cfg.Seed, tagPart, uint64(k)))
		b.Int(0, int64(k))
		b.Str(1, partName(r))
		b.Str(2, fmt.Sprintf("Manufacturer#%d", r.rangeInt(1, 5)))
		b.Str(3, brand(r))
		b.Str(4, partType(r))
		b.Int(5, int64(r.rangeInt(1, 50)))
		b.Str(6, container(r))
		b.Float(7, RetailPrice(int64(k)))
		b.Str(8, comment(r))
		b.EndRow()
	}
	return b.Build()
}

func genPartsupp(cfg Config, parts, suppliers int) *colstore.Table {
	b := colstore.NewTableBuilder("partsupp", PartsuppSchema)
	b.Grow(parts * 4)
	for p := 1; p <= parts; p++ {
		r := newRNG(mix(cfg.Seed, tagPartsupp, uint64(p)))
		for i := 0; i < 4; i++ {
			b.Int(0, int64(p))
			b.Int(1, SuppForPart(int64(p), i, suppliers))
			b.Int(2, int64(r.rangeInt(1, 9999)))
			b.Float(3, r.decimal(1.00, 1000.00))
			b.Str(4, comment(r))
			b.EndRow()
		}
	}
	return b.Build()
}

func genCustomer(cfg Config, n int) *colstore.Table {
	b := colstore.NewTableBuilder("customer", CustomerSchema)
	b.Grow(n)
	for k := 1; k <= n; k++ {
		r := newRNG(mix(cfg.Seed, tagCustomer, uint64(k)))
		nation := r.intn(len(nations))
		b.Int(0, int64(k))
		b.Str(1, fmt.Sprintf("Customer#%09d", k))
		b.Str(2, address(r))
		b.Int(3, int64(nation))
		b.Str(4, phone(r, nation))
		b.Float(5, r.decimal(-999.99, 9999.99))
		b.Str(6, pick(r, segments))
		b.Str(7, comment(r))
		b.EndRow()
	}
	return b.Build()
}

// custForOrder draws an o_custkey; per the spec, customers whose key is a
// multiple of three place no orders (one third of customers — the Q13
// zero bucket).
func custForOrder(r *rng, customers int) int64 {
	for {
		c := int64(r.rangeInt(1, customers))
		if customers < 3 || c%3 != 0 {
			return c
		}
	}
}

// orderHeader opens order ok's RNG stream and makes its first draws:
// customer, order date and line count. Every order has its own stream, so
// the line count is known without generating the lines. The stream comes
// back by value so that it stays on the caller's stack.
func orderHeader(cfg Config, ok, customers int) (stream rng, cust int64, odate int32, nlines int) {
	r := &stream
	r.state = mix(cfg.Seed, tagOrder, uint64(ok))
	cust = custForOrder(r, customers)
	odate = StartDate + int32(r.intn(int(lastOrderDate-StartDate)+1))
	nlines = r.rangeInt(1, 7)
	return stream, cust, odate, nlines
}

func genOrdersAndLineitem(cfg Config, orders, customers, parts, suppliers, node, numNodes int) (*colstore.Table, *colstore.Table) {
	ob := colstore.NewTableBuilder("orders", OrdersSchema)
	ob.Grow(orders)
	lb := colstore.NewTableBuilder("lineitem", LineitemSchema)
	// Size lineitem exactly, from a dry pass over the order headers. The
	// mean (4 lines an order) is short for about half of all seeds, and
	// one row too many reallocates all 16 columns a quarter larger.
	lines := 0
	for ok := 1; ok <= orders; ok++ {
		if int(int64(ok)%int64(numNodes)) == node {
			_, _, _, nlines := orderHeader(cfg, ok, customers)
			lines += nlines
		}
	}
	lb.Grow(lines)

	for ok := 1; ok <= orders; ok++ {
		stream, cust, odate, nlines := orderHeader(cfg, ok, customers)
		r := &stream
		mine := int(int64(ok)%int64(numNodes)) == node

		var total float64
		allF, allO := true, true
		for ln := 1; ln <= nlines; ln++ {
			partkey := int64(r.rangeInt(1, parts))
			suppkey := SuppForPart(partkey, r.intn(4), suppliers)
			qty := float64(r.rangeInt(1, 50))
			extprice := qty * RetailPrice(partkey)
			disc := float64(r.rangeInt(0, 10)) / 100
			tax := float64(r.rangeInt(0, 8)) / 100
			shipdate := odate + int32(r.rangeInt(1, 121))
			commitdate := odate + int32(r.rangeInt(30, 90))
			receiptdate := shipdate + int32(r.rangeInt(1, 30))

			var rf string
			if receiptdate <= CurrentDate {
				if r.chance(0.5) {
					rf = "R"
				} else {
					rf = "A"
				}
			} else {
				rf = "N"
			}
			var ls string
			if shipdate > CurrentDate {
				ls = "O"
				allF = false
			} else {
				ls = "F"
				allO = false
			}
			total += extprice * (1 + tax) * (1 - disc)

			// Draw text fields unconditionally so the RNG stream does
			// not depend on partition membership.
			instruct := pick(r, shipInstructs)
			mode := pick(r, shipModes)
			lcomment := comment(r)
			if !mine {
				continue
			}
			lb.Int(0, int64(ok))
			lb.Int(1, partkey)
			lb.Int(2, suppkey)
			lb.Int(3, int64(ln))
			lb.Float(4, qty)
			lb.Float(5, extprice)
			lb.Float(6, disc)
			lb.Float(7, tax)
			lb.Str(8, rf)
			lb.Str(9, ls)
			lb.Date(10, shipdate)
			lb.Date(11, commitdate)
			lb.Date(12, receiptdate)
			lb.Str(13, instruct)
			lb.Str(14, mode)
			lb.Str(15, lcomment)
			lb.EndRow()
		}

		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		ob.Int(0, int64(ok))
		ob.Int(1, cust)
		ob.Str(2, status)
		ob.Float(3, total)
		ob.Date(4, odate)
		ob.Str(5, pick(r, priorities))
		ob.Str(6, clerk(r, cfg.SF))
		ob.Int(7, 0)
		ob.Str(8, orderComment(r))
		ob.EndRow()
	}
	return ob.Build(), lb.Build()
}

// CompressKeys returns a copy of the dataset with lineitem's sorted key
// columns (l_orderkey) run-length encoded — the paper's Section III-C.2
// suggestion of spending CPU on heavier compression to relieve the Pi's
// memory-bandwidth bottleneck. Query plans work unchanged: the engine's
// kernels handle RLE columns natively for selections and key extraction
// and decode on demand elsewhere.
func CompressKeys(d *Dataset) *Dataset {
	out := &Dataset{Tables: make(map[string]*colstore.Table, len(d.Tables)), Config: d.Config}
	for name, t := range d.Tables {
		out.Tables[name] = t
	}
	li := d.Tables["lineitem"]
	cols := make([]colstore.Column, len(li.Cols))
	copy(cols, li.Cols)
	idx := li.Schema.Index("l_orderkey")
	cols[idx] = colstore.CompressInt64(li.Cols[idx].(*colstore.Int64s))
	out.Tables["lineitem"] = colstore.MustNewTable("lineitem", li.Schema, cols)
	return out
}
