package engine

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(Config{Workers: 2})
	b := colstore.NewTableBuilder("items", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "price", Type: colstore.Float64},
		{Name: "tag", Type: colstore.String},
		{Name: "day", Type: colstore.Date},
		{Name: "ok", Type: colstore.Bool},
	})
	for i := 0; i < 10; i++ {
		b.Int(0, int64(i))
		b.Float(1, float64(i)*1.5)
		b.Str(2, []string{"a", "b"}[i%2])
		b.Date(3, colstore.MustDate("1994-01-01")+int32(i))
		b.Bool(4, i%3 == 0)
		b.EndRow()
	}
	db.Register(b.Build())
	return db
}

func TestDBBasics(t *testing.T) {
	db := newTestDB(t)
	if got := db.TableNames(); len(got) != 1 || got[0] != "items" {
		t.Fatalf("TableNames = %v", got)
	}
	if _, err := db.Table("items"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table should error")
	}
	if db.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	if db.Workers() != 2 {
		t.Errorf("Workers = %d", db.Workers())
	}
	if got, want := NewDB(Config{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("unconfigured Workers = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestDBRunAndExplain(t *testing.T) {
	db := newTestDB(t)
	p := &plan.GroupBy{
		Input: &plan.Scan{Table: "items", Pred: exec.CmpF{Column: "price", Op: exec.Gt, V: 2}},
		Keys:  []string{"tag"},
		Aggs:  []plan.AggSpec{{Name: "total", Func: plan.Sum, Arg: exec.Col{Name: "price"}}},
	}
	res, err := db.RunQuery(context.Background(), p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Counters.TuplesScanned == 0 {
		t.Error("counters empty")
	}
	if res.HostDuration <= 0 {
		t.Error("HostDuration not positive")
	}
	if s := db.Explain(p); !strings.Contains(s, "group by") {
		t.Errorf("explain = %q", s)
	}
	if _, err := db.RunQuery(context.Background(), &plan.Scan{Table: "nope"}, QueryOpts{}); err == nil {
		t.Error("run against missing table should error")
	}
}

func TestFormatTable(t *testing.T) {
	db := newTestDB(t)
	tbl, _ := db.Table("items")
	s := FormatTable(tbl, 3)
	if !strings.Contains(s, "price") || !strings.Contains(s, "1994-01-01") ||
		!strings.Contains(s, "true") || !strings.Contains(s, "(10 rows total)") {
		t.Errorf("FormatTable output:\n%s", s)
	}
	full := FormatTable(tbl, 0)
	if strings.Contains(full, "rows total") {
		t.Error("maxRows=0 should not truncate")
	}
}

func TestRegisterReplaces(t *testing.T) {
	db := newTestDB(t)
	b := colstore.NewTableBuilder("items", colstore.Schema{{Name: "id", Type: colstore.Int64}})
	b.Int(0, 99)
	b.EndRow()
	db.Register(b.Build())
	tbl, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Errorf("replacement not visible: %d rows", tbl.NumRows())
	}
}
