// Package cluster implements the WimPi distributed execution layer: a
// coordinator/worker engine over real TCP connections (stdlib net),
// reproducing the paper's Section II-D.2 setup. Each worker holds one
// partition of the TPC-H dataset in memory (lineitem partitioned by
// l_orderkey, everything else replicated), executes per-node partial
// plans, and ships partial results to the coordinator, which merges them.
//
// Links are throttled to the Pi 3B+'s effective Ethernet bandwidth
// (~220 Mbit/s — the GbE port shares a USB 2.0 bus), and the iperf
// measurement of Section II-C.3 is reproduced by MeasureLinkBandwidth.
//
// The wire protocol is framed: every message is one self-contained
// gob-encoded payload behind a fixed header (magic, length, CRC32).
// Self-contained frames make the protocol restartable — after a
// timeout, reset, or corrupted frame the coordinator can reconnect and
// resume mid-session — and the checksum turns silent byte corruption
// into a typed, retryable error. See DESIGN.md "Fault model".
package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// wireColumn is the gob representation of one column.
type wireColumn struct {
	Type   colstore.Type
	Ints   []int64
	Floats []float64
	Dates  []int32
	Bools  []bool
	Codes  []int32
	Dict   []string
}

// WireTable is the gob representation of a table.
type WireTable struct {
	// Name and Fields mirror colstore.Table.
	Name   string
	Fields colstore.Schema
	Cols   []wireColumn
}

// ToWire converts a table for transmission.
func ToWire(t *colstore.Table) *WireTable {
	w := &WireTable{Name: t.Name, Fields: t.Schema, Cols: make([]wireColumn, t.NumCols())}
	for i, c := range t.Cols {
		wc := &w.Cols[i]
		wc.Type = c.Type()
		switch col := c.(type) {
		case *colstore.Int64s:
			wc.Ints = col.V
		case *colstore.Float64s:
			wc.Floats = col.V
		case *colstore.Dates:
			wc.Dates = col.V
		case *colstore.Bools:
			wc.Bools = col.V
		case *colstore.Strings:
			wc.Codes = col.Codes
			wc.Dict = col.Dict.Values()
		}
	}
	return w
}

// Table reconstructs the column-store table.
func (w *WireTable) Table() (*colstore.Table, error) {
	cols := make([]colstore.Column, len(w.Cols))
	for i := range w.Cols {
		wc := &w.Cols[i]
		switch wc.Type {
		case colstore.Int64:
			cols[i] = &colstore.Int64s{V: nilSafe(wc.Ints)}
		case colstore.Float64:
			cols[i] = &colstore.Float64s{V: nilSafe(wc.Floats)}
		case colstore.Date:
			cols[i] = &colstore.Dates{V: nilSafe(wc.Dates)}
		case colstore.Bool:
			cols[i] = &colstore.Bools{V: nilSafe(wc.Bools)}
		case colstore.String:
			d := colstore.NewDict()
			for j, v := range wc.Dict {
				if int(d.Add(v)) != j {
					return nil, fmt.Errorf("cluster: column %d: duplicate dictionary value %q", i, v)
				}
			}
			for _, c := range wc.Codes {
				if c < 0 || int(c) >= d.Len() {
					return nil, fmt.Errorf("cluster: column %d: dictionary code %d out of range", i, c)
				}
			}
			cols[i] = &colstore.Strings{Codes: nilSafe(wc.Codes), Dict: d}
		default:
			return nil, fmt.Errorf("cluster: unknown wire column type %d", wc.Type)
		}
	}
	return colstore.NewTable(w.Name, w.Fields, cols)
}

func nilSafe[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// Request is one coordinator-to-worker message.
type Request struct {
	// Type selects the operation: "ping", "load", "query", "iperf",
	// "shutdown".
	Type string
	// Load parameterizes a "load" request.
	Load *LoadRequest
	// Query names the statement a "query" request runs: the worker plans
	// the partial SQL text shipped with the load (LoadRequest.SQL[Query]).
	Query int
	// ForNode, when >= 0, asks the worker to run the query over
	// partition ForNode instead of its own — the straggler/failure
	// re-dispatch path. Workers regenerate (or fetch via their Source)
	// the foreign partition on first use and cache it, so the re-issued
	// partial is byte-identical to what the original node would have
	// produced. -1 (the coordinator's default) means "your partition".
	ForNode int
	// IperfBytes is the payload size for an "iperf" request.
	IperfBytes int64
}

// LoadRequest tells a worker which partition to generate.
type LoadRequest struct {
	// SF and Seed parameterize the dataset.
	SF   float64
	Seed uint64
	// Node and NumNodes identify the partition.
	Node, NumNodes int
	// Workers is the worker's intra-query parallelism (a Pi has 4 cores).
	Workers int
	// Exec is the execution mode ("vector" or "fused"; empty selects
	// vector — see plan.ParseExecMode). Shipped with the load so
	// every node, including one executing a re-dispatched foreign
	// partition, plans with the same mode.
	Exec string
	// MemBudgetBytes is the per-query memory budget each node enforces
	// (see engine.Config.MemBudgetBytes); zero means unbounded. Must be
	// identical cluster-wide: the spill decision depends only on the
	// budget and the partition's cardinalities, so a re-dispatched
	// partition spills the same way wherever it runs. Each worker spills
	// to its own local temp directory.
	MemBudgetBytes int64
	// SQL maps query ids to per-node partial SQL text (see
	// sql.Distribute). Shipping the text with the load — not with each
	// query — means every node holds the same statements up front, so a
	// re-dispatched partition is planned from identical text with the
	// same catalog-dependent optimizer and makes identical choices.
	SQL map[int]string
}

// Response is one worker-to-coordinator message.
type Response struct {
	// Err is non-empty on failure.
	Err string
	// Table carries a query's partial result.
	Table *WireTable
	// Counters is the work profile of the partial execution.
	Counters exec.Counters
	// Plan is the rendered optimizer report of the partial — the
	// coordinator compares these across nodes and re-dispatches to prove
	// planning is worker-independent.
	Plan string
	// DBBytes reports the worker's resident data size after a load.
	DBBytes int64
	// Payload carries iperf filler bytes.
	Payload []byte
}

// ---------------------------------------------------------------------------
// Framing

// frameMagic opens every frame ("WPF2" — WimPi Frame v2).
const frameMagic = 0x57504632

// frameHeaderLen is magic(4) + length(4) + crc32(4).
const frameHeaderLen = 12

// maxFrameBytes bounds a frame payload. A peer announcing more is
// rejected before any payload allocation happens.
const maxFrameBytes = 1 << 30

// Wire metrics, shared by coordinator and worker (a process embedding
// both, like the in-process test cluster, counts traffic from each
// side).
var (
	metricFramesSent     = obs.Default.Counter("wimpi_cluster_frames_sent_total")
	metricFramesReceived = obs.Default.Counter("wimpi_cluster_frames_received_total")
	metricFrameBytesSent = obs.Default.Counter("wimpi_cluster_frame_bytes_sent_total")
	metricFrameBytesRecv = obs.Default.Counter("wimpi_cluster_frame_bytes_received_total")
)

// writeFrame sends one framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	metricFramesSent.Inc()
	metricFrameBytesSent.Add(frameHeaderLen + int64(len(payload)))
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], frameMagic)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed payload. It validates magic and length
// before allocating, and the checksum after; corruption surfaces as
// ErrBadMagic/ErrFrameTooLarge/ErrChecksum, truncation as
// io.ErrUnexpectedEOF-wrapping errors — all retryable transport errors.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean close between frames
		}
		return nil, fmt.Errorf("cluster: truncated frame header: %w", err)
	}
	if m := binary.BigEndian.Uint32(hdr[0:4]); m != frameMagic {
		return nil, fmt.Errorf("%w: got 0x%08x", ErrBadMagic, m)
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Below the trust threshold allocate once; above it, grow the
	// buffer as bytes arrive instead of trusting the announced length
	// up front — a lying peer costs us at most ~2x what it actually
	// sends, not a 1 GB allocation for a 12-byte header.
	const trustBytes = 16 << 20
	var payload []byte
	if n <= trustBytes {
		payload = make([]byte, n)
		if m, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("cluster: mid-frame EOF after %d/%d bytes: %w", m, n, err)
		}
	} else {
		var buf bytes.Buffer
		buf.Grow(trustBytes)
		if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
			return nil, fmt.Errorf("cluster: mid-frame EOF after %d/%d bytes: %w", buf.Len(), n, err)
		}
		payload = buf.Bytes()
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.BigEndian.Uint32(hdr[8:12]) {
		return nil, fmt.Errorf("%w: payload crc 0x%08x", ErrChecksum, got)
	}
	metricFramesReceived.Inc()
	metricFrameBytesRecv.Add(frameHeaderLen + int64(len(payload)))
	return payload, nil
}

// writeMsg frames one gob-encoded message. Each frame carries its own
// gob stream so frames are self-contained and the session restartable.
func writeMsg(w io.Writer, v any) error {
	var b bytes.Buffer
	// Presize for bulk payloads so the encoder doesn't regrow the
	// buffer through megabytes of iperf filler.
	if r, ok := v.(*Response); ok && len(r.Payload) > 0 {
		b.Grow(len(r.Payload) + 512)
	}
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return fmt.Errorf("cluster: encode: %w", err)
	}
	return writeFrame(w, b.Bytes())
}

// readMsg reads one framed gob message into v.
func readMsg(r io.Reader, v any) error {
	payload, err := readFrame(r)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("cluster: decode: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Coordinator-side connection

// rpcConn is a mutex-serialized framed RPC session to one worker, with
// transfer accounting, per-call deadlines, and reconnect-on-failure.
// Any transport error marks the connection broken; the next call
// redials. Frames are self-contained, so a fresh TCP connection resumes
// the session with no handshake.
type rpcConn struct {
	addr        string
	dialTimeout time.Duration

	mu sync.Mutex // serializes calls

	sm     sync.Mutex // guards conn/cw/broken (also touched by abort)
	conn   net.Conn
	cw     *countingRW
	broken bool
}

func newRPCConn(addr string, dialTimeout time.Duration) *rpcConn {
	return &rpcConn{addr: addr, dialTimeout: dialTimeout}
}

// ensure returns a live connection, redialing if the previous one broke.
func (c *rpcConn) ensure(ctx context.Context) (net.Conn, *countingRW, error) {
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.conn != nil && !c.broken {
		return c.conn, c.cw, nil
	}
	if c.conn != nil {
		_ = c.conn.Close() // stale conn; its close error is uninteresting
		c.conn = nil
	}
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.cw = &countingRW{inner: conn}
	c.broken = false
	return c.conn, c.cw, nil
}

// abort breaks the connection from outside an in-flight call, unblocking
// any pending read/write immediately.
func (c *rpcConn) abort() {
	c.sm.Lock()
	defer c.sm.Unlock()
	c.broken = true
	if c.conn != nil {
		_ = c.conn.Close() // tearing down a conn we just declared broken
	}
}

// connected reports whether a healthy connection is open.
func (c *rpcConn) connected() bool {
	c.sm.Lock()
	defer c.sm.Unlock()
	return c.conn != nil && !c.broken
}

// call performs one request/response exchange under the deadline carried
// by ctx and reports the bytes read off the wire for it. Transport
// errors (including deadline expiry and checksum mismatches) break the
// connection; worker-reported errors come back as *WorkerError and leave
// the connection healthy.
func (c *rpcConn) call(ctx context.Context, req *Request) (*Response, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	conn, cw, err := c.ensure(ctx)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Time{}
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		// A conn that refuses a deadline cannot be bounded; treat it as
		// broken rather than risk an unbounded exchange.
		c.abort()
		return nil, 0, transportErr(ctx, "deadline", req.Type, err)
	}
	// Unblock the exchange promptly if ctx is canceled mid-IO.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.abort()
		case <-stop:
		}
	}()
	defer close(stop)

	before := cw.read
	if err := writeMsg(cw, req); err != nil {
		c.abort()
		return nil, 0, transportErr(ctx, "send", req.Type, err)
	}
	var resp Response
	if err := readMsg(cw, &resp); err != nil {
		c.abort()
		return nil, 0, transportErr(ctx, "recv", req.Type, err)
	}
	if resp.Err != "" {
		return nil, 0, &WorkerError{Msg: resp.Err}
	}
	return &resp, cw.read - before, nil
}

// transportErr prefers the context's error when the exchange died
// because the deadline passed or the call was canceled.
func transportErr(ctx context.Context, verb, typ string, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("cluster: %s %s: %w", verb, typ, ctx.Err())
	}
	return fmt.Errorf("cluster: %s %s: %w", verb, typ, err)
}

func (c *rpcConn) close() {
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.conn != nil {
		_ = c.conn.Close() // final teardown; nothing can act on the error
		c.conn = nil
	}
	c.broken = true
}

// countingRW tallies bytes moved through a connection.
type countingRW struct {
	inner net.Conn
	read  int64
	wrote int64
}

// Read counts bytes received.
//
//lint:allow ctxcheck -- counting wrapper: call() sets the deadline and aborts on cancellation before any I/O here
func (c *countingRW) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.read += int64(n)
	return n, err
}

// Write counts bytes sent.
//
//lint:allow ctxcheck -- counting wrapper: call() sets the deadline and aborts on cancellation before any I/O here
func (c *countingRW) Write(p []byte) (int, error) {
	n, err := c.inner.Write(p)
	c.wrote += int64(n)
	return n, err
}
