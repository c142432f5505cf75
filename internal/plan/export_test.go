package plan

// SetClusteredGroupBy switches the order-aware group-by path on or off
// for the external end-to-end test; production code has no such switch.
func SetClusteredGroupBy(on bool) { clusteredOff = !on }
