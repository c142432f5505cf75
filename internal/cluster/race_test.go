//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in: it slows
// every goroutine, so wall-clock lower bounds do not hold under it.
const raceEnabled = true
