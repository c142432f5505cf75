package tpch

import (
	"context"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
)

func TestCompressKeysPreservesAnswers(t *testing.T) {
	db, ref := sharedFixture(t)
	_ = db
	compressed := CompressKeys(sharedData)
	cdb := engine.NewDB(engine.Config{Workers: 2})
	compressed.RegisterAll(cdb)

	// The l_orderkey-heavy queries must return identical answers over
	// the RLE-compressed column.
	for _, q := range []int{1, 3, 4, 12, 18, 21} {
		res, err := cdb.RunQuery(context.Background(), MustQuery(q), engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d over compressed data: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		compareRows(t, q, tableRows(res.Table), want)
	}
}

func TestCompressKeysRatioAndSharing(t *testing.T) {
	d := Generate(Config{SF: 0.005, Seed: 9})
	c := CompressKeys(d)
	// Lineitem orderkeys arrive sorted with 1-7 rows per order: strong
	// run structure, roughly 2-4x compression.
	dense := d.Tables["lineitem"].MustCol("l_orderkey")
	rle, ok := c.Tables["lineitem"].MustCol("l_orderkey").(*colstore.RLEInt64)
	if !ok {
		t.Fatal("l_orderkey not RLE-compressed")
	}
	ratio := float64(dense.SizeBytes()) / float64(rle.SizeBytes())
	if ratio < 2 {
		t.Errorf("compression ratio %.2f, want >= 2", ratio)
	}
	// Other tables and columns are shared, not copied.
	if c.Tables["orders"] != d.Tables["orders"] {
		t.Error("orders should be shared")
	}
	if c.Tables["lineitem"].MustCol("l_partkey") != d.Tables["lineitem"].MustCol("l_partkey") {
		t.Error("uncompressed lineitem columns should be shared")
	}
	// Row counts preserved.
	if c.Tables["lineitem"].NumRows() != d.Tables["lineitem"].NumRows() {
		t.Error("row count changed")
	}
}
