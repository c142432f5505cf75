package spill

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseByteSize parses a human byte size for the -mem-budget CLI flags:
// a plain integer is bytes, and a k/m/g suffix (case-insensitive,
// optionally followed by "b" or "ib") scales by the binary unit.
// "0" and "" mean unlimited.
//
//lint:allow pathcost -- flag parsing at startup, not per-query kernel work
func ParseByteSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, nil
	}
	shift := uint(0)
	for _, u := range []struct {
		suffix string
		shift  uint
	}{
		{"kib", 10}, {"kb", 10}, {"k", 10},
		{"mib", 20}, {"mb", 20}, {"m", 20},
		{"gib", 30}, {"gb", 30}, {"g", 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSuffix(t, u.suffix)
			shift = u.shift
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spill: bad byte size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("spill: negative byte size %q", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("spill: byte size %q overflows", s)
	}
	return n << shift, nil
}

// FormatByteSize renders a byte count the way ParseByteSize reads it,
// for logs and EXPLAIN output.
func FormatByteSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dg", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return strconv.FormatInt(n, 10)
	}
}
