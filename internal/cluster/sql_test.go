package cluster

import (
	"context"
	"strings"
	"testing"

	"wimpi/internal/engine"
	sqlpkg "wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// TestSQLDistributedMatchesSingleNode: every representative query, with
// random substitution parameters, run across a 3-node cluster — per-node
// partials planned from the shipped partial statements, coordinator
// merge planned from the merge statement — returns exactly the
// single-node answer, and every node makes the same planning decisions.
func TestSQLDistributedMatchesSingleNode(t *testing.T) {
	p := tpch.RandomParams(3)
	stmts := make(map[int]string, len(tpch.RepresentativeQueries))
	for _, q := range tpch.RepresentativeQueries {
		text, err := tpch.SQLP(q, p)
		if err != nil {
			t.Fatal(err)
		}
		stmts[q] = text
	}
	lc := startCluster(t, 3)
	if _, err := lc.Coordinator.LoadSQL(testSF, 42, stmts); err != nil {
		t.Fatal(err)
	}

	single := engine.NewDB(engine.Config{Workers: 2})
	tpch.Generate(tpch.Config{SF: testSF, Seed: 42}).RegisterAll(single)

	for _, q := range tpch.RepresentativeQueries {
		res, err := lc.Coordinator.RunSQL(q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		node, err := tpch.QueryP(single, q, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.RunQuery(context.Background(), node, engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d single: %v", q, err)
		}
		compareTables(t, q, res.Table, want.Table)
		wantNodes := 3
		if q == 13 {
			wantNodes = 1
		}
		if res.NodesUsed != wantNodes {
			t.Errorf("Q%d: used %d nodes, want %d", q, res.NodesUsed, wantNodes)
		}
		// Worker-independent planning: every node must make the same
		// decisions (join orders, strategies) for the same shipped text.
		// Cost *estimates* legitimately differ — each node prices against
		// its own partition's statistics — so compare with the numbers
		// stripped. (Exact byte identity holds when the partition is the
		// same: see TestSQLRedispatchPlansIdentical.)
		for i, np := range res.NodePlans {
			if stripEstimates(np) != stripEstimates(res.NodePlans[0]) {
				t.Errorf("Q%d: node %d plan decisions differ from node 0:\n%s\nvs\n%s",
					q, i, res.NodePlans[0], np)
			}
		}
	}
}

// stripEstimates removes the parenthesized cardinality/cost estimates
// from a rendered optimizer report, leaving only the decisions.
func stripEstimates(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '(':
			depth++
		case r == ')' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestSQLRunWithoutLoadSQLFails: RunSQL of a statement the last LoadSQL
// did not ship is a clear coordinator-side error, not a worker round
// trip.
func TestSQLRunWithoutLoadSQLFails(t *testing.T) {
	lc := startCluster(t, 2)
	if _, err := lc.Coordinator.LoadSQL(testSF, 42, tpchSQL(t, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Coordinator.RunSQL(1); err == nil || !strings.Contains(err.Error(), "no SQL loaded") {
		t.Fatalf("expected 'no SQL loaded' error, got %v", err)
	}
}

// TestSQLRedispatchPlansIdentical drives the re-dispatch path directly
// at the worker layer: a foreign partition's SQL query executed on a
// peer (ForNode pointing at another node's partition) must produce the
// same optimizer choices and a byte-identical partial to the partition's
// home node, because both plan the same shipped text against the same
// catalog statistics.
func TestSQLRedispatchPlansIdentical(t *testing.T) {
	full := tpch.Generate(tpch.Config{SF: testSF, Seed: 42})
	stmts := representativeSQL(t)
	partials := make(map[int]string, len(stmts))
	for id, text := range stmts {
		d, err := sqlpkg.Distribute(text)
		if err != nil {
			t.Fatalf("distribute %d: %v", id, err)
		}
		partials[id] = d.Partial
	}

	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{Source: SharedSource(full)})
		resp := workers[i].handle(&Request{Type: "load", ForNode: -1, Load: &LoadRequest{
			SF: testSF, Seed: 42, Node: i, NumNodes: 2, Workers: 2, SQL: partials,
		}})
		if resp.Err != "" {
			t.Fatalf("load node %d: %s", i, resp.Err)
		}
	}

	for _, q := range tpch.RepresentativeQueries {
		// Partition 1 at home (worker 1) vs re-dispatched to worker 0.
		home := workers[1].handle(&Request{Type: "query", Query: q, ForNode: -1})
		if home.Err != "" {
			t.Fatalf("Q%d home: %s", q, home.Err)
		}
		moved := workers[0].handle(&Request{Type: "query", Query: q, ForNode: 1})
		if moved.Err != "" {
			t.Fatalf("Q%d re-dispatched: %s", q, moved.Err)
		}
		if home.Plan != moved.Plan {
			t.Errorf("Q%d: re-dispatched plan choices differ:\nhome:\n%s\nmoved:\n%s", q, home.Plan, moved.Plan)
		}
		ht, err := home.Table.Table()
		if err != nil {
			t.Fatal(err)
		}
		mt, err := moved.Table.Table()
		if err != nil {
			t.Fatal(err)
		}
		compareTables(t, q, mt, ht)
	}
}
