package tpch

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
)

var (
	sharedOnce sync.Once
	sharedData *Dataset
	sharedDB   *engine.DB
	sharedRef  *Reference
)

// sharedFixture generates one SF 0.01 dataset for the whole test binary.
func sharedFixture(t *testing.T) (*engine.DB, *Reference) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedData = Generate(Config{SF: testSF, Seed: 42})
		sharedDB = engine.NewDB(engine.Config{Workers: 4})
		sharedData.RegisterAll(sharedDB)
		sharedRef = NewReference(sharedData)
	})
	return sharedDB, sharedRef
}

// tableRows converts an engine result table to reference-style rows.
func tableRows(t *colstore.Table) [][]any {
	out := make([][]any, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		row := make([]any, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			switch col := t.Col(c).(type) {
			case *colstore.Int64s:
				row[c] = col.V[r]
			case *colstore.Float64s:
				row[c] = col.V[r]
			case *colstore.Dates:
				row[c] = col.V[r]
			case *colstore.Strings:
				row[c] = col.Value(r)
			case *colstore.Bools:
				row[c] = col.V[r]
			}
		}
		out[r] = row
	}
	return out
}

func cellsEqual(a, b any) bool {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			// Engine Count aggregates are int64 while some reference
			// queries compute float sums of 0/1; compare numerically.
			if bi, ok2 := b.(int64); ok2 {
				bv = float64(bi)
			} else {
				return false
			}
		}
		return floatsClose(av, bv)
	case int64:
		if bv, ok := b.(int64); ok {
			return av == bv
		}
		if bv, ok := b.(float64); ok {
			return floatsClose(float64(av), bv)
		}
		return false
	default:
		return a == b
	}
}

func floatsClose(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= 1e-6 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func rowsString(rows [][]any, limit int) string {
	var b strings.Builder
	for i, r := range rows {
		if i >= limit {
			fmt.Fprintf(&b, "... (%d rows)\n", len(rows))
			break
		}
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String()
}

func compareRows(t *testing.T, q int, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Q%d: %d rows, reference has %d\nengine:\n%swant:\n%s",
			q, len(got), len(want), rowsString(got, 10), rowsString(want, 10))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("Q%d row %d: %d cols, reference has %d", q, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !cellsEqual(got[i][j], want[i][j]) {
				t.Fatalf("Q%d row %d col %d: engine %v, reference %v\nengine row:    %v\nreference row: %v",
					q, i, j, got[i][j], want[i][j], got[i], want[i])
			}
		}
	}
}

// TestAllQueriesMatchReference plans every query's SQL text and checks
// the answer against the row-at-a-time oracle.
func TestAllQueriesMatchReference(t *testing.T) {
	db, ref := sharedFixture(t)
	for _, q := range QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			node, err := Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.RunQuery(context.Background(), node, engine.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, q, tableRows(res.Table), want)
			if res.Counters.TuplesScanned == 0 {
				t.Errorf("Q%d: no tuples scanned recorded", q)
			}
		})
	}
}

func TestQueryRegistry(t *testing.T) {
	db, _ := sharedFixture(t)
	if len(QueryNumbers()) != 22 {
		t.Fatalf("expected 22 queries, got %d", len(QueryNumbers()))
	}
	if _, err := Query(db, 0); err == nil {
		t.Error("Query(0) should error")
	}
	if _, err := Query(db, 23); err == nil {
		t.Error("Query(23) should error")
	}
	for _, q := range RepresentativeQueries {
		if q < 1 || q > 22 {
			t.Errorf("bad representative query %d", q)
		}
	}
	// MustQuery panics on invalid input.
	defer func() {
		if recover() == nil {
			t.Error("MustQuery(0) did not panic")
		}
	}()
	MustQuery(db, 0)
}

func TestQueriesNonEmptyResults(t *testing.T) {
	db, _ := sharedFixture(t)
	// All queries should return at least one row at SF 0.01 except those
	// whose tiny-SF selectivity can legitimately be empty.
	mayBeEmpty := map[int]bool{2: true, 16: true, 17: true, 18: true, 20: true, 21: true}
	for _, q := range QueryNumbers() {
		res, err := db.RunQuery(context.Background(), MustQuery(db, q), engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if res.Table.NumRows() == 0 && !mayBeEmpty[q] {
			t.Errorf("Q%d returned no rows", q)
		}
	}
}

func TestQueriesParallelConsistency(t *testing.T) {
	// Worker count must not affect results.
	_, ref := sharedFixture(t)
	db1 := engine.NewDB(engine.Config{Workers: 1})
	sharedData.RegisterAll(db1)
	for _, q := range RepresentativeQueries {
		res, err := db1.RunQuery(context.Background(), MustQuery(db1, q), engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		want, _ := ref.Query(q)
		compareRows(t, q, tableRows(res.Table), want)
	}
}
