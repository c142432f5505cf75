#!/bin/sh
# alloc-gate: host allocations per TPC-H query against a committed
# baseline.
#
#   scripts/alloc-gate.sh          # compare with BENCH_alloc.txt
#   scripts/alloc-gate.sh update   # rewrite BENCH_alloc.txt
#
# Runs BenchmarkTableII once at WIMPI_BENCH_SF=0.1 with -benchtime 5x
# -benchmem at a fixed -cpu 2, and fails if any query's B/op or
# allocs/op is more than 3 % above the baseline's. It checks each line
# of the benchmark's three blocks: Q<n> runs the default engine,
# spill/Q<n> each query plan.Spillable accepts under a 64 KiB memory
# budget, and fused/Q<n> the fused engine, so code that only a budget or
# only fusion reaches is counted too. Allocations, unlike ns/op, repeat
# run to run: the scratch a kernel reuses belongs to the query's
# runners (exec.Scratch), recycled from query to query, never to a pool
# a GC empties. So one run is enough and the bound is tight.
# A change that moves the file says why in CHANGES.md.
set -eu

cd "$(git rev-parse --show-toplevel)"
base=BENCH_alloc.txt
bound=1.03
out=$(mktemp)
trap 'rm -f "$out"' EXIT

WIMPI_BENCH_SF=0.1 go test -run '^$' -bench '^BenchmarkTableII$' \
	-benchtime 5x -count 1 -benchmem -cpu 2 -timeout 20m . >"$out"

# One line per query, in run order: name, B/op, allocs/op.
table() {
	awk '$1 ~ /^BenchmarkTableII\/((spill|fused)\/)?Q[0-9]+-/ {
		name = $1; sub(/^BenchmarkTableII\//, "", name); sub(/-[0-9]+$/, "", name)
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "B/op") b = $i + 0
			if ($(i + 1) == "allocs/op") a = $i + 0
		}
		print name, b, a
	}' "$1"
}

if [ "${1:-}" = update ]; then
	{
		echo "# BenchmarkTableII host allocations (WIMPI_BENCH_SF=0.1, -benchtime 5x, -cpu 2),"
		echo "# one run. Q<n>: default engine; spill/Q<n>: 64 KiB memory budget,"
		echo "# plan.Spillable queries only; fused/Q<n>: fused engine."
		echo "# Written by scripts/alloc-gate.sh update; read by make alloc-gate."
		echo "# query B/op allocs/op"
		table "$out"
	} >$base
	echo "alloc-gate: wrote $base ($(table "$out" | wc -l) queries)"
	exit 0
fi

test -s $base || {
	echo "alloc-gate: no $base; run make alloc-gate UPDATE=1" >&2
	exit 2
}
table "$out" | awk -v bound=$bound '
	NR == FNR { if ($1 !~ /^#/) { b[$1] = $2; a[$1] = $3 }; next }
	{
		seen[$1] = 1
		if (!($1 in b)) { printf "%-8s not in the baseline\n", $1; bad = 1; next }
		verdict = "ok"
		if ($2 > b[$1] * bound || $3 > a[$1] * bound) { verdict = "WORSE"; bad = 1 }
		printf "%-8s B/op %10d -> %10d (%+6.1f%%)  allocs/op %7d -> %7d (%+6.1f%%)  %s\n",
			$1, b[$1], $2, 100 * ($2 / b[$1] - 1), a[$1], $3, 100 * ($3 / a[$1] - 1), verdict
	}
	END {
		for (q in b) if (!(q in seen)) { printf "%-8s in the baseline but not run\n", q; bad = 1 }
		if (bad) { print "alloc-gate: FAIL (bound +" (bound - 1) * 100 "% on B/op and allocs/op)"; exit 1 }
		print "alloc-gate: ok"
	}
' $base -
