package engine

// SetMorselRows sets the morsel size of every query that starts after it,
// and so the smallest input split across workers; 0 restores
// exec.DefaultMorselRows. Production code has no such switch.
func SetMorselRows(n int) { morselRows = n }
