//go:build race

package plan

// The race detector's runtime allocates on its own (sync.Pool drops
// items at random under it), so allocation bounds do not hold there.
func init() { raceEnabled = true }
