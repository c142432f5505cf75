package engine_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// TestQueriesLeaveBaseTablesUntouched guards the zero-copy paths: a
// single dense key is the column's own storage, and Arith overwrites its
// operands' fresh buffers. It checksums every column and dictionary of
// every registered table, runs all 22 queries at 1, 2 and 8 workers in
// both engines and under a spill budget, and requires every checksum to
// be unchanged.
func TestQueriesLeaveBaseTablesUntouched(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	before := tableChecksums(t, data)

	type config struct {
		mode    plan.ExecMode
		workers int
		budget  int64
	}
	var configs []config
	for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
		for _, w := range []int{1, 2, 8} {
			configs = append(configs, config{mode, w, 0})
		}
		configs = append(configs, config{mode, 2, spillBudgetBytes})
	}
	for _, c := range configs {
		db := engine.NewDB(engine.Config{Exec: c.mode, MemBudgetBytes: c.budget, SpillDir: t.TempDir()})
		data.RegisterAll(db)
		for _, q := range tpch.QueryNumbers() {
			label := fmt.Sprintf("Q%d %s workers=%d budget=%d", q, c.mode, c.workers, c.budget)
			p, err := tpch.Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			_, err = db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: c.workers})
			var mem *plan.MemLimitError
			if err != nil && !(c.budget > 0 && errors.As(err, &mem)) {
				t.Fatalf("%s: %v", label, err)
			}
		}
		for name, sum := range tableChecksums(t, data) {
			if sum != before[name] {
				t.Fatalf("a query at %s workers=%d budget=%d wrote into %s", c.mode, c.workers, c.budget, name)
			}
		}
	}
}

// tableChecksums hashes every column of every table, keyed "table.column";
// a string column hashes its codes and its dictionary's values.
func tableChecksums(t *testing.T, data *tpch.Dataset) map[string]uint64 {
	t.Helper()
	sums := map[string]uint64{}
	for _, tab := range data.Tables {
		for i, col := range tab.Cols {
			h := fnv.New64a()
			word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			switch c := col.(type) {
			case *colstore.Int64s:
				for _, v := range c.V {
					word(uint64(v))
				}
			case *colstore.Float64s:
				for _, v := range c.V {
					word(math.Float64bits(v))
				}
			case *colstore.Dates:
				for _, v := range c.V {
					word(uint64(v))
				}
			case *colstore.Bools:
				for _, v := range c.V {
					if v {
						word(1)
					} else {
						word(0)
					}
				}
			case *colstore.Strings:
				for _, v := range c.Codes {
					word(uint64(v))
				}
				for _, s := range c.Dict.Values() {
					word(uint64(len(s)))
					h.Write([]byte(s))
				}
			default:
				t.Fatalf("%s.%s: unexpected column type %T", tab.Name, tab.Schema[i].Name, col)
			}
			sums[tab.Name+"."+tab.Schema[i].Name] = h.Sum64()
		}
	}
	return sums
}
