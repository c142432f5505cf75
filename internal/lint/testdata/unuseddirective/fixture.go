// Package fixture holds one live allow directive, one stale one, one
// with a typo, and one naming a retired analyzer, for the
// unuseddirective audit.
package fixture

import "time"

// Live suppresses a real taintflow finding: no audit complaint.
func Live() int64 {
	//lint:allow taintflow -- fixture: measured timing section
	return time.Now().UnixNano()
}

// Stale allows an analyzer that finds nothing on the line below.
func Stale() int {
	//lint:allow taintflow -- fixture: nothing to suppress here // want "suppresses nothing; remove the stale directive"
	return 42
}

// Typo names an analyzer that does not exist.
func Typo() int {
	//lint:allow determinsm -- fixture: misspelled name // want "names unknown analyzer"
	return 7
}

// Retired names an analyzer the suite no longer has: its checks moved
// into pathcost, so the name is no longer known.
func Retired() int {
	//lint:allow costaccounting -- fixture: analyzer folded into pathcost // want "names unknown analyzer"
	return 8
}

// ScopedOut names a known analyzer that did not run on this package;
// the audit stays quiet rather than forcing directive churn when
// scopes change.
func ScopedOut() int64 {
	//lint:allow ctxcheck -- fixture: analyzer scoped to another subtree
	return 9
}
