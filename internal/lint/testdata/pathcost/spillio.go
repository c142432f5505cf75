// Spill-I/O and compressed-kernel loop shapes for pathcost: a spill
// drain or a coded-column unpack that loops without any Counters in
// scope makes disk bandwidth (or decode work) free in the simulated
// wimpy-node comparison, and every early exit out of a chunked spill
// write/read or a code-space scan must charge the work already done,
// or the hardware model prices the spill (and the coded scan) below
// what actually ran.
package fixture

import (
	"io"

	"wimpi/internal/exec"
)

// SpillFlushUncharged streams chunks to the spill area, but the error
// path returns without charging the bytes already flushed — those
// writes hit the disk yet never reach SpillWriteBytes.
func SpillFlushUncharged(w io.Writer, chunks [][]byte, ctr *exec.Counters) error {
	var written int64
	for _, c := range chunks {
		n, err := w.Write(c)
		written += int64(n)
		if err != nil {
			return err // want "returns here after touching column data without charging"
		}
	}
	ctr.SpillWriteBytes += written
	return nil
}

// SpillFlushCharged charges each chunk as it is flushed, so every exit
// — error or success — leaves the counters truthful. This is the spill
// package's segment-writer shape.
func SpillFlushCharged(w io.Writer, chunks [][]byte, ctr *exec.Counters) error {
	for _, c := range chunks {
		n, err := w.Write(c)
		ctr.SpillWriteBytes += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// CodedScanUncharged evaluates a predicate directly on packed code
// words, but the early match exit skips the charge for the words it
// already streamed through.
func CodedScanUncharged(words []uint64, code uint64, ctr *exec.Counters) bool {
	for i := range words {
		if words[i] == code {
			return true // want "returns here after touching column data without charging"
		}
	}
	ctr.SeqBytes += int64(len(words)) * 8
	return false
}

// CodedScanCharged charges the scanned prefix before the early exit:
// code-space evaluation still pays for every word it touched.
func CodedScanCharged(words []uint64, code uint64, ctr *exec.Counters) bool {
	for i := range words {
		if words[i] == code {
			ctr.SeqBytes += int64(i+1) * 8
			return true
		}
	}
	ctr.SeqBytes += int64(len(words)) * 8
	return false
}

// SpillDrainUncharged reads a spilled segment back with no counters.
func SpillDrainUncharged(r io.Reader, total int) ([]byte, error) { // want "loops over data but has no *exec.Counters"
	out := make([]byte, 0, total)
	buf := make([]byte, 64)
	for len(out) < total {
		n, err := r.Read(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, buf[:n]...)
	}
	return out, nil
}

// UnpackIgnored decodes bit-packed codes but drops its counters.
func UnpackIgnored(words []uint64, width uint, n int, ctr *exec.Counters) []uint64 { // want "never charges or forwards it"
	out := make([]uint64, 0, n)
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		bit := uint(i) * width
		w := words[bit/64] >> (bit % 64)
		out = append(out, w&mask)
	}
	return out
}

// SpillDrainCharged charges every chunk read: the segment-reader shape.
func SpillDrainCharged(r io.Reader, total int, ctr *exec.Counters) ([]byte, error) {
	out := make([]byte, 0, total)
	buf := make([]byte, 64)
	for len(out) < total {
		n, err := r.Read(buf)
		ctr.SpillReadBytes += int64(n)
		if err != nil {
			return nil, err
		}
		out = append(out, buf[:n]...)
	}
	return out, nil
}
