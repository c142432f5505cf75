package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// TestHTTPQueryMetricsHealthz drives the HTTP front end-to-end: a SQL
// query (twice, to see the cache), the Prometheus export, health, and
// the bad-request paths.
func TestHTTPQueryMetricsHealthz(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, CacheEntries: 4, Registry: obs.NewRegistry()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	q6, err := tpch.SQL(6)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(queryRequest{Tenant: "web", SQL: q6, MaxRows: 5})

	var hits []bool
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query status = %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(qr.Columns) == 0 || qr.NumRows < 1 || len(qr.Rows) < 1 {
			t.Fatalf("empty Q6 response: %+v", qr)
		}
		hits = append(hits, qr.CacheHit)
	}
	if hits[0] || !hits[1] {
		t.Fatalf("cache hits = %v, want [false true]", hits)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `wimpi_serve_queries_total{tenant="web"}`) {
		t.Fatalf("metrics missing tenant series:\n%s", metrics)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Bad SQL is a 400, not a 500.
	resp, err = http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"tenant":"web","sql":"selectt nonsense"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPQueryQ13NeedsUniqueKeys pins Config.UniqueKeys: Q13's SQL text
// plans only when the planner knows customer's key, so POST /query
// rejects it by default (what the benchmark's serve workload relies on)
// and, with the keys declared, returns the rows `wimpi -sql` prints.
func TestHTTPQueryQ13NeedsUniqueKeys(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	q13, err := tpch.SQL(13)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(queryRequest{Tenant: "web", SQL: q13})
	post := func(cfg Config) (status int, body []byte) {
		t.Helper()
		cfg.DB, cfg.Registry = db, obs.NewRegistry()
		srv := httptest.NewServer(New(cfg).Handler())
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if status, _ := post(Config{}); status != http.StatusBadRequest {
		t.Fatalf("Q13 without UniqueKeys: status = %d, want 400", status)
	}
	status, body := post(Config{UniqueKeys: tpch.TableKeys()})
	if status != http.StatusOK {
		t.Fatalf("Q13 with UniqueKeys: status = %d: %s", status, body)
	}
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	// The CLI's path: sql.Plan with the TPC-H keys, then a plain run.
	planned, err := sql.Plan(db, q13, sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RunQuery(context.Background(), planned.Node, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows != want.Table.NumRows() || got.NumRows == 0 {
		t.Fatalf("Q13 rows = %d, want %d (non-zero)", got.NumRows, want.Table.NumRows())
	}
	if !reflect.DeepEqual(got.Columns, want.Table.Schema.Names()) {
		t.Fatalf("Q13 columns = %v, want %v", got.Columns, want.Table.Schema.Names())
	}
	for i, row := range got.Rows {
		for c, cell := range row {
			if w := cellString(want.Table.Col(c), i); cell != w {
				t.Fatalf("Q13 row %d col %d = %q, want %q", i, c, cell, w)
			}
		}
	}
}

// TestHTTPQueryJoinOverflow: a join with more matching pairs than int32
// row ids can address (10^10 here, on one constant key) is one
// statement's typed error — a 4xx carrying *exec.JoinOverflowError's
// message — not a garbage-sized allocation that takes the server down.
// The one key takes the positional layout, whose InnerJoin counts the
// total from its chain lengths before a single pair is emitted.
func TestHTTPQueryJoinOverflow(t *testing.T) {
	const n = 100_000
	constant := func(table, col string) *colstore.Table {
		v := make([]int64, n)
		for i := range v {
			v[i] = 7
		}
		return colstore.MustNewTable(table, colstore.Schema{{Name: col, Type: colstore.Int64}},
			[]colstore.Column{&colstore.Int64s{V: v}})
	}
	db := engine.NewDB(engine.Config{Workers: 2})
	db.Register(constant("a", "ak"))
	db.Register(constant("b", "bk"))
	srv := httptest.NewServer(New(Config{DB: db, Registry: obs.NewRegistry()}).Handler())
	defer srv.Close()

	post := func(sql string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(queryRequest{Tenant: "web", SQL: sql})
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}
	status, msg := post("select count(*) as c from a, b where ak = bk")
	want := (&exec.JoinOverflowError{Matches: n * n}).Error()
	if status < 400 || status > 499 || !strings.Contains(msg, want) {
		t.Fatalf("status %d, body %q; want a 4xx carrying %q", status, msg, want)
	}
	// The server is still there for the next statement.
	if status, msg := post("select count(*) as c from a"); status != http.StatusOK {
		t.Fatalf("follow-up query: status %d: %s", status, msg)
	}
}
