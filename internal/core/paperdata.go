// Package core is the paper's primary contribution as a library: the
// experimental-study harness. It regenerates every table and figure of
// the evaluation — hardware specs (Table I), microbenchmarks (Figure 2),
// single-node TPC-H (Table II), distributed WimPi TPC-H (Table III),
// speedups (Figure 3), execution strategies (Figure 4), and the
// cost/energy normalizations (Figures 5-7) — and renders each next to
// the values published in the paper.
package core

// PaperProfiles lists the comparison points in Table I/II column order.
var PaperProfiles = []string{
	"op-e5", "op-gold", "c4.8xlarge", "m4.10xlarge", "m4.16xlarge",
	"z1d.metal", "m5.metal", "a1.metal", "c6g.metal", "Pi 3B+",
}

// PaperTableII holds the paper's Table II: absolute runtimes in seconds
// for TPC-H SF 1, per query and comparison point. Two cells (marked in
// the paper extraction as ambiguous) are interpolated from their row
// neighbours: Q11/m4.16xlarge and Q4-SF10/m4.16xlarge.
var PaperTableII = map[int]map[string]float64{
	1:  row(0.161, 0.056, 0.054, 0.056, 0.043, 0.073, 0.034, 0.270, 0.049, 1.772),
	2:  row(0.008, 0.008, 0.008, 0.007, 0.007, 0.012, 0.010, 0.009, 0.005, 0.044),
	3:  row(0.080, 0.046, 0.021, 0.021, 0.023, 0.079, 0.033, 0.062, 0.045, 0.227),
	4:  row(0.061, 0.025, 0.016, 0.017, 0.015, 0.052, 0.023, 0.064, 0.026, 0.222),
	5:  row(0.082, 0.041, 0.020, 0.021, 0.021, 0.057, 0.026, 0.087, 0.047, 0.283),
	6:  row(0.028, 0.012, 0.006, 0.007, 0.006, 0.027, 0.008, 0.025, 0.011, 0.099),
	7:  row(0.052, 0.024, 0.022, 0.021, 0.023, 0.035, 0.025, 0.071, 0.038, 0.486),
	8:  row(0.116, 0.069, 0.037, 0.041, 0.043, 0.096, 0.053, 0.126, 0.079, 0.244),
	9:  row(0.116, 0.055, 0.033, 0.034, 0.032, 0.083, 0.043, 0.123, 0.057, 0.684),
	10: row(0.062, 0.031, 0.017, 0.019, 0.022, 0.054, 0.031, 0.053, 0.052, 0.221),
	11: row(0.017, 0.011, 0.006, 0.006, 0.006, 0.024, 0.010, 0.018, 0.011, 0.034),
	12: row(0.036, 0.020, 0.011, 0.013, 0.014, 0.032, 0.018, 0.046, 0.032, 0.154),
	13: row(0.196, 0.121, 0.097, 0.111, 0.116, 0.196, 0.135, 0.330, 0.204, 1.771),
	14: row(0.019, 0.011, 0.006, 0.007, 0.009, 0.018, 0.011, 0.015, 0.020, 0.076),
	15: row(0.034, 0.015, 0.011, 0.012, 0.012, 0.031, 0.017, 0.026, 0.018, 0.093),
	16: row(0.156, 0.084, 0.045, 0.048, 0.045, 0.167, 0.074, 0.190, 0.117, 0.302),
	17: row(0.101, 0.051, 0.022, 0.022, 0.016, 0.089, 0.027, 0.077, 0.040, 0.220),
	18: row(0.130, 0.063, 0.050, 0.057, 0.059, 0.084, 0.064, 0.135, 0.083, 0.394),
	19: row(0.027, 0.020, 0.018, 0.021, 0.029, 0.037, 0.031, 0.024, 0.017, 0.140),
	20: row(0.045, 0.022, 0.016, 0.018, 0.020, 0.047, 0.024, 0.032, 0.022, 0.141),
	21: row(0.155, 0.199, 0.068, 0.087, 0.237, 0.169, 0.248, 0.085, 0.620, 0.603),
	22: row(0.112, 0.063, 0.038, 0.044, 0.043, 0.094, 0.064, 0.143, 0.081, 0.269),
}

func row(vals ...float64) map[string]float64 {
	m := make(map[string]float64, len(vals))
	for i, v := range vals {
		m[PaperProfiles[i]] = v
	}
	return m
}

// PaperClusterSizes are the WimPi configurations of Table III.
var PaperClusterSizes = []int{4, 8, 12, 16, 20, 24}

// PaperTableIIIServers holds the paper's Table III server rows: absolute
// runtimes in seconds for TPC-H SF 10 on the nine server comparison
// points, for the eight representative queries.
var PaperTableIIIServers = map[int]map[string]float64{
	1:  srow(1.474, 0.482, 0.554, 0.566, 0.388, 0.600, 0.306, 2.972, 0.452),
	3:  srow(0.603, 0.341, 0.183, 0.201, 0.203, 0.364, 0.189, 0.692, 0.372),
	4:  srow(0.465, 0.212, 0.144, 0.154, 0.150, 0.225, 0.117, 0.620, 0.258),
	5:  srow(0.542, 0.278, 0.161, 0.167, 0.140, 0.300, 0.135, 0.925, 0.290),
	6:  srow(0.191, 0.086, 0.054, 0.054, 0.041, 0.105, 0.038, 0.219, 0.078),
	13: srow(2.405, 1.817, 1.897, 1.963, 1.644, 1.787, 1.351, 6.651, 3.505),
	14: srow(0.153, 0.055, 0.047, 0.045, 0.051, 0.082, 0.047, 0.132, 0.059),
	19: srow(0.131, 0.072, 0.063, 0.063, 0.065, 0.092, 0.065, 0.173, 0.077),
}

func srow(vals ...float64) map[string]float64 {
	m := make(map[string]float64, len(vals))
	for i, v := range vals {
		m[PaperProfiles[i]] = v
	}
	return m
}

// PaperTableIIIWimPi holds the paper's Table III WimPi rows: absolute
// runtimes in seconds at each cluster size, per query.
var PaperTableIIIWimPi = map[int]map[int]float64{
	1:  {4: 57.814, 8: 2.319, 12: 1.561, 16: 1.242, 20: 0.705, 24: 0.678},
	3:  {4: 53.424, 8: 5.920, 12: 0.813, 16: 0.761, 20: 0.562, 24: 0.538},
	4:  {4: 9.492, 8: 0.928, 12: 0.636, 16: 0.506, 20: 0.348, 24: 0.342},
	5:  {4: 47.147, 8: 12.165, 12: 1.999, 16: 1.730, 20: 1.143, 24: 0.868},
	6:  {4: 0.303, 8: 0.238, 12: 0.134, 16: 0.138, 20: 0.094, 24: 0.108},
	13: {4: 103.604, 8: 103.604, 12: 103.604, 16: 103.604, 20: 103.604, 24: 103.604},
	14: {4: 0.280, 8: 0.167, 12: 0.108, 16: 0.103, 20: 0.085, 24: 0.104},
	19: {4: 0.624, 8: 0.423, 12: 0.351, 16: 0.325, 20: 0.270, 24: 0.220},
}
