package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wimpi/internal/colstore"
)

// TestWireTableRoundTripProperty fuzzes the codec with random tables of
// mixed column types.
func TestWireTableRoundTripProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8) % 64
		b := colstore.NewTableBuilder("t", colstore.Schema{
			{Name: "i", Type: colstore.Int64},
			{Name: "f", Type: colstore.Float64},
			{Name: "d", Type: colstore.Date},
			{Name: "s", Type: colstore.String},
			{Name: "bo", Type: colstore.Bool},
		})
		words := []string{"", "a", "bb", "ccc", "dddd"}
		for i := 0; i < n; i++ {
			b.Int(0, rng.Int63()-rng.Int63())
			b.Float(1, rng.NormFloat64())
			b.Date(2, int32(rng.Intn(20000)-5000))
			b.Str(3, words[rng.Intn(len(words))])
			b.Bool(4, rng.Intn(2) == 0)
			b.EndRow()
		}
		orig := b.Build()
		got, err := ToWire(orig).Table()
		if err != nil {
			return false
		}
		if got.NumRows() != orig.NumRows() || got.NumCols() != orig.NumCols() {
			return false
		}
		for c := 0; c < orig.NumCols(); c++ {
			for r := 0; r < orig.NumRows(); r++ {
				if cell(orig, c, r) != cell(got, c, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWireTableRejectsCorruptDictionary: a repeated dictionary value
// would shift every later code by one, and a code outside the dictionary
// would panic at its first decode; both are decode errors instead.
func TestWireTableRejectsCorruptDictionary(t *testing.T) {
	for _, c := range []struct {
		name  string
		codes []int32
		dict  []string
	}{
		{"duplicate value", []int32{0, 1, 2, 3}, []string{"a", "b", "a", "c"}},
		{"code past the end", []int32{0, 2}, []string{"a", "b"}},
		{"negative code", []int32{0, -1}, []string{"a", "b"}},
	} {
		w := &WireTable{
			Name:   "t",
			Fields: colstore.Schema{{Name: "s", Type: colstore.String}},
			Cols:   []wireColumn{{Type: colstore.String, Codes: c.codes, Dict: c.dict}},
		}
		if _, err := w.Table(); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

func TestWorkerErrorPaths(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	if resp := w.handle(&Request{Type: "bogus"}); resp.Err == "" {
		t.Error("unknown request type should error")
	}
	if resp := w.handle(&Request{Type: "load"}); resp.Err == "" {
		t.Error("load without parameters should error")
	}
	if resp := w.handle(&Request{Type: "iperf", IperfBytes: 0}); resp.Err == "" {
		t.Error("zero iperf size should error")
	}
	if resp := w.handle(&Request{Type: "iperf", IperfBytes: 2 << 30}); resp.Err == "" {
		t.Error("oversized iperf should error")
	}
	if resp := w.handle(&Request{Type: "query", Query: 6}); resp.Err == "" {
		t.Error("query before load should error")
	}
	if resp := w.handle(&Request{Type: "ping"}); resp.Err != "" {
		t.Errorf("ping failed: %s", resp.Err)
	}
	// Load with invalid partition parameters.
	if resp := w.handle(&Request{Type: "load", Load: &LoadRequest{SF: 0.001, Node: 5, NumNodes: 2}}); resp.Err == "" {
		t.Error("invalid partition should error")
	}
}

func TestSharedSourceMismatch(t *testing.T) {
	full := tpchMini(t)
	src := SharedSource(full)
	if _, err := src(&LoadRequest{SF: 9, Seed: 42, Node: 0, NumNodes: 1}); err == nil {
		t.Error("SF mismatch should error")
	}
	if _, err := src(&LoadRequest{SF: full.Config.SF, Seed: 1, Node: 0, NumNodes: 1}); err == nil {
		t.Error("seed mismatch should error")
	}
	d, err := src(&LoadRequest{SF: full.Config.SF, Seed: full.Config.Seed, Node: 0, NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Tables["lineitem"].NumRows() >= full.Tables["lineitem"].NumRows() {
		t.Error("partition not smaller than whole")
	}
}

func TestThrottledConnPassthrough(t *testing.T) {
	// Zero bandwidth disables the wrapper entirely.
	if c := newThrottledConn(nil, 0); c != nil {
		if _, ok := c.(*throttledConn); ok {
			t.Error("zero rate should not wrap")
		}
	}
}

// ---------------------------------------------------------------------------
// Wire-protocol hardening: every malformed stream must produce a typed
// error — never a panic, a hang, or an unbounded allocation.

// frameHeader builds a raw header claiming n payload bytes with crc.
func frameHeader(magic, n, crc uint32) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint32(hdr[4:8], n)
	binary.BigEndian.PutUint32(hdr[8:12], crc)
	return hdr[:]
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Type: "query", Query: 6, ForNode: 2}
	if err := writeMsg(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := readMsg(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != "query" || got.Query != 6 || got.ForNode != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	// Frames are self-contained: two messages written back to back
	// decode independently.
	writeMsg(&buf, &Response{DBBytes: 7})
	writeMsg(&buf, &Response{Err: "boom"})
	var r1, r2 Response
	if err := readMsg(&buf, &r1); err != nil || r1.DBBytes != 7 {
		t.Fatalf("first frame: %v %+v", err, r1)
	}
	if err := readMsg(&buf, &r2); err != nil || r2.Err != "boom" {
		t.Fatalf("second frame: %v %+v", err, r2)
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	_, err := readFrame(bytes.NewReader([]byte{0x57, 0x50, 0x46}))
	if err == nil || !strings.Contains(err.Error(), "truncated frame header") {
		t.Fatalf("want truncated-header error, got %v", err)
	}
	// A cleanly closed stream between frames is io.EOF, not an error
	// dressed up as truncation.
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream should be io.EOF, got %v", err)
	}
}

func TestFrameOversizedRejectedBeforeAllocating(t *testing.T) {
	// Only the header is present: if readFrame tried to read (or
	// allocate) the announced 3 GB payload it would return a mid-frame
	// EOF instead of ErrFrameTooLarge.
	hdr := frameHeader(frameMagic, 3<<30, 0)
	_, err := readFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge before any payload read, got %v", err)
	}
}

func TestFrameMidEOF(t *testing.T) {
	payload := []byte("0123456789")
	hdr := frameHeader(frameMagic, 100, crc32.ChecksumIEEE(payload))
	_, err := readFrame(bytes.NewReader(append(hdr, payload...)))
	if err == nil || !strings.Contains(err.Error(), "mid-frame EOF") {
		t.Fatalf("want mid-frame EOF error, got %v", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	_, err := readFrame(bytes.NewReader([]byte("GET / HTTP/1.1\r\n")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestFrameChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[frameHeaderLen+3] ^= 0x40 // flip one payload bit
	_, err := readFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestFrameGarbagePayload(t *testing.T) {
	// A well-formed frame whose payload is not a gob Response: the
	// decode layer must reject it as a typed error.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	var buf bytes.Buffer
	if err := writeFrame(&buf, garbage); err != nil {
		t.Fatal(err)
	}
	var resp Response
	err := readMsg(&buf, &resp)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("want decode error for garbage payload, got %v", err)
	}
}

// TestWorkerSurvivesGarbageStream throws raw garbage at a serving
// worker: the connection must be dropped without a panic, and the
// worker must keep serving well-formed sessions.
func TestWorkerSurvivesGarbageStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewWorker(WorkerConfig{}).Serve(ln)

	for _, garbage := range [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		frameHeader(frameMagic, 3<<30, 0),                     // oversized claim
		append(frameHeader(frameMagic, 1<<20, 0), 0x01, 0x02), // mid-frame hangup
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(garbage)
		conn.Close()
	}

	// A clean session still works.
	coord, err := Dial(Config{Addrs: []string{ln.Addr().String()}, WorkersPerNode: 1,
		DialTimeout: 5 * time.Second, RPCTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("worker died after garbage: %v", err)
	}
	coord.Close()
}
