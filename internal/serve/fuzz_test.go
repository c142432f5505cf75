package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
)

// fuzzDB is a tiny hand-built catalog: two tables of six rows each, so
// no statement a mutation produces — a many-way cross join included —
// can outgrow memory.
func fuzzDB() *engine.DB {
	db := engine.NewDB(engine.Config{Workers: 2})
	items := colstore.NewTableBuilder("items", colstore.Schema{
		{Name: "ik", Type: colstore.Int64},
		{Name: "price", Type: colstore.Float64},
		{Name: "shipped", Type: colstore.Date},
		{Name: "tag", Type: colstore.String},
	})
	orders := colstore.NewTableBuilder("orders", colstore.Schema{
		{Name: "ok", Type: colstore.Int64},
		{Name: "item", Type: colstore.Int64},
		{Name: "qty", Type: colstore.Int64},
	})
	for i := 0; i < 6; i++ {
		items.Int(0, int64(i))
		items.Float(1, 1.5*float64(i))
		items.Date(2, int32(9000+30*i))
		items.Str(3, []string{"red", "green", "blue"}[i%3])
		items.EndRow()
		orders.Int(0, int64(100+i))
		orders.Int(1, int64(i%4))
		orders.Int(2, int64(i*i))
		orders.EndRow()
	}
	db.Register(items.Build())
	db.Register(orders.Build())
	return db
}

// FuzzServeQuery: POST /query answers any body the same way twice — the
// same status and the same rows, whether the second answer comes from
// the statement and result caches or, for a body that fails, from
// failing again — and never panics.
func FuzzServeQuery(f *testing.F) {
	for _, body := range []string{
		`{"tenant":"a","sql":"select tag, sum(price) as p from items group by tag order by tag"}`,
		`{"sql":"select ok, qty from orders, items where item = ik and tag = 'red' order by ok","max_rows":2}`,
		`{"sql":"select count(*) as c from orders where qty > 3"}`,
		`{"sql":"select ik from items where shipped < date '1995-01-01'"}`,
		`{"sql":"selectt nonsense"}`,
		`{"sql":"select nope from items"}`,
		`{"sql":""}`,
		`{"sql":`,
		`[]`,
	} {
		f.Add(body)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, body string) {
		h := New(Config{DB: db, CacheEntries: 4, Registry: obs.NewRegistry()}).Handler()
		post := func() (int, queryResponse) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(body))))
			var resp queryResponse
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("200 with an undecodable body: %v", err)
				}
			}
			return rec.Code, resp
		}
		status1, resp1 := post()
		status2, resp2 := post()
		if status1 != status2 {
			t.Fatalf("status %d, then %d", status1, status2)
		}
		if !reflect.DeepEqual(resp1.Rows, resp2.Rows) {
			t.Fatalf("rows differ:\n%v\n%v", resp1.Rows, resp2.Rows)
		}
	})
}
