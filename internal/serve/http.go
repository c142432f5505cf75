package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/plan"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	// Tenant attributes the query; empty selects the default tenant.
	Tenant string `json:"tenant"`
	// SQL is the statement to serve.
	SQL string `json:"sql"`
	// MaxRows truncates the response body (the query still computes
	// fully); <= 0 returns every row.
	MaxRows int `json:"max_rows"`
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	NumRows   int        `json:"num_rows"`
	Truncated bool       `json:"truncated,omitempty"`
	CacheHit  bool       `json:"cache_hit"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// Handler returns the server's HTTP front: POST /query serving SQL,
// GET /metrics in Prometheus text format, and GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "serve: bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.SQL == "" {
		http.Error(w, "serve: empty sql", http.StatusBadRequest)
		return
	}
	//lint:allow taintflow -- reported latency; results never depend on it
	start := time.Now()
	res, err := s.RunSQL(r.Context(), req.Tenant, req.SQL)
	if err != nil {
		var over *OverloadError
		var mem *plan.MemLimitError
		switch {
		case errors.As(err, &over):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.As(err, &mem):
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
		case r.Context().Err() != nil:
			http.Error(w, err.Error(), 499) // client closed request
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	resp := queryResponse{
		Columns:   res.Table.Schema.Names(),
		NumRows:   res.Table.NumRows(),
		CacheHit:  res.CacheHit,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	rows := res.Table.NumRows()
	if req.MaxRows > 0 && rows > req.MaxRows {
		rows, resp.Truncated = req.MaxRows, true
	}
	resp.Rows = make([][]string, rows)
	for i := 0; i < rows; i++ {
		row := make([]string, res.Table.NumCols())
		for c := 0; c < res.Table.NumCols(); c++ {
			row[c] = cellString(res.Table.Col(c), i)
		}
		resp.Rows[i] = row
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// cellString renders one cell for the JSON response.
func cellString(c colstore.Column, row int) string {
	switch col := c.(type) {
	case *colstore.Int64s:
		return fmt.Sprintf("%d", col.V[row])
	case *colstore.Float64s:
		return fmt.Sprintf("%.6g", col.V[row])
	case *colstore.Dates:
		return colstore.FormatDate(col.V[row])
	case *colstore.Strings:
		return col.Value(row)
	case *colstore.Bools:
		return fmt.Sprintf("%t", col.V[row])
	default:
		return "?"
	}
}
