package cluster

import (
	"context"
	"net"
	"time"

	"wimpi/internal/flow"
)

// PiLinkBandwidthBps is the effective Ethernet bandwidth of a Raspberry
// Pi 3B+ in bits per second: the GbE port shares a USB 2.0 bus, leaving
// roughly 20% of line rate (~220 Mbit/s measured with iperf in
// Section II-C.3).
const PiLinkBandwidthBps = 220e6

// newLinkBucket builds the pacing bucket for one emulated link, timed by
// clock. The bucket lives in package flow: FIFO-fair under concurrent
// writers (a stream of small frames can no longer starve an older large
// write, which the previous sleep-and-re-race bucket allowed) and
// cancellable while queued.
func newLinkBucket(bitsPerSec float64, clock flow.Clock) *flow.TokenBucket {
	return flow.NewTokenBucketClock(bitsPerSec/8, 64<<10, clock)
}

// throttledConn rate-limits writes on a connection, emulating a slow
// NIC. Reads are untouched (the sender's throttle paces the link).
type throttledConn struct {
	net.Conn
	bucket *flow.TokenBucket
}

// newThrottledConn wraps conn with a write-side rate limit of
// bitsPerSec; bitsPerSec <= 0 disables throttling.
func newThrottledConn(conn net.Conn, bitsPerSec float64) net.Conn {
	if bitsPerSec <= 0 {
		return conn
	}
	return &throttledConn{Conn: conn, bucket: newLinkBucket(bitsPerSec, flow.RealClock)}
}

// Write paces p through the token bucket in link-MTU-sized chunks.
//
//lint:allow ctxcheck -- pacing wrapper: deadlines are inherited from the wrapped conn, cancellation via rpcConn.abort
func (t *throttledConn) Write(p []byte) (int, error) {
	const chunk = 32 << 10
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		if err := t.bucket.Wait(context.Background(), float64(n)); err != nil {
			return written, err
		}
		m, err := t.Conn.Write(p[:n])
		written += m
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// MeasureLinkBandwidth reproduces the paper's iperf check: it transfers
// payloadBytes from a worker over its throttled link and returns the
// observed bits per second. The exchange is not retried (a retry would
// skew the measurement) but is bounded by a generous deadline.
func MeasureLinkBandwidth(c *Coordinator, node int, payloadBytes int64) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	//lint:allow taintflow -- the iperf reproduction measures real elapsed transfer time by definition
	start := time.Now()
	resp, _, err := c.conns[node].call(ctx, &Request{Type: "iperf", IperfBytes: payloadBytes, ForNode: -1})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	return float64(len(resp.Payload)) * 8 / elapsed, nil
}
