package main

import (
	"fmt"
	"math"
)

// gateSF is the scale the oracle gate runs at: the naive reference is
// row-at-a-time, so it gets a dataset it finishes in a fraction of a second.
const gateSF = 0.01

// gate runs all 22 SQL statements on a small dataset from the same seed
// and compares each answer with the naive oracle. Identity checks during
// measurement prove the program repeats itself; this proves what it
// repeats is right.
func gate(seed uint64, workers int, t *tally) error {
	ds := generate(gateSF, seed)
	db := newDB(ds, dbConfig{workers: workers})
	ref := newOracle(ds)
	for _, q := range allQueries {
		text, err := sqlText(q)
		if err != nil {
			return err
		}
		if err := gateOne(db, ref, q, text); err != nil {
			t.fail("oracle gate Q%d: %v", q, err)
		} else {
			t.ok()
		}
	}
	return nil
}

func gateOne(db *database, ref oracle, q int, text string) error {
	node, err := planSQL(db, text)
	if err != nil {
		return err
	}
	res, err := runQuery(db, node, 0)
	if err != nil {
		return err
	}
	got, err := tableRows(res.table)
	if err != nil {
		return err
	}
	want, err := ref.rows(q)
	if err != nil {
		return err
	}
	return compareRows(got, want)
}

// compareRows checks engine rows against oracle rows with the numeric
// tolerance of the program's own oracle test (tpch/queries_test.go): the
// oracle sums in row order, the engine in morsel order.
func compareRows(got, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, oracle has %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !cellsEqual(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d column %d: %v, oracle has %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func cellsEqual(a, b any) bool {
	af, aNum := asFloat(a)
	bf, bNum := asFloat(b)
	if aNum && bNum {
		// Counts are int64 on one side and float sums of 0/1 on the other.
		ai, aInt := a.(int64)
		bi, bInt := b.(int64)
		if aInt && bInt {
			return ai == bi
		}
		return floatsClose(af, bf)
	}
	return a == b
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

func floatsClose(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= 1e-6 {
		return true
	}
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
