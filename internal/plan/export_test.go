package plan

// SetClusteredGroupBy switches the order-aware group-by path on or off
// for the external end-to-end test; production code has no such switch.
func SetClusteredGroupBy(on bool) { clusteredOff = !on }

// SetLazyGathers switches lazy gathers on or off for the external
// lazy-against-eager test; off, every gather copies at once.
func SetLazyGathers(on bool) { lazyOff = !on }
