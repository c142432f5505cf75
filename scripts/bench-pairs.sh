#!/bin/sh
# bench-pairs: section 8 of the choosing-metrics guide as one command.
#
#   scripts/bench-pairs.sh BASE [WORKLOAD] [N]
#
# Builds ./benchmark at revision BASE (in a throw-away git worktree under
# .bench_build/) and at the working tree, then runs N untraced pairs of
# WORKLOAD with seeds 1..N, alternating which side goes first. Every run
# is appended to BENCH_pairs_base.json / BENCH_pairs_head.json (started
# afresh each invocation); the script prints stream_ms per pair, the win
# count, and the benchmark's own -compare table over the two files.
# Nothing else on the machine should be running while it does.
set -eu

base=${1:?usage: bench-pairs.sh BASE [WORKLOAD] [N]}
workload=${2:-power}
n=${3:-10}

cd "$(git rev-parse --show-toplevel)"
build=.bench_build
src=$build/base-src
mkdir -p $build
if [ -d $src ]; then git worktree remove --force $src; fi
git worktree prune
git worktree add --detach --force $src "$base" >/dev/null
(cd $src && go build -o ../bench-base ./benchmark)
git worktree remove --force $src
go build -o $build/bench-head ./benchmark

base_out=BENCH_pairs_base.json
head_out=BENCH_pairs_head.json
rm -f $base_out $head_out

# run SIDE SEED: one untraced run, result appended to SIDE's file; prints
# the run's stream_ms.
run() {
	eval "out=\$${1}_out"
	$build/bench-$1 -workload "$workload" -seed "$2" -out "$out" |
		tail -n 1 | sed -n 's/.*"stream_ms":{"value":\([0-9.]*\).*/\1/p'
}

wins=0
losses=0
echo "pair  seed  first  base stream_ms  head stream_ms"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		first=base
		b=$(run base "$i")
		h=$(run head "$i")
	else
		first=head
		h=$(run head "$i")
		b=$(run base "$i")
	fi
	printf '%4d  %4d  %-5s  %14.1f  %14.1f\n' "$i" "$i" "$first" "$b" "$h"
	case $(echo "$h $b" | awk '{ print ($1 < $2) ? "win" : ($1 > $2) ? "loss" : "tie" }') in
	win) wins=$((wins + 1)) ;;
	loss) losses=$((losses + 1)) ;;
	esac
	i=$((i + 1))
done
echo "head lower than base in $wins of $n pairs ($losses higher, $((n - wins - losses)) tied)"
echo
$build/bench-head -compare $base_out $head_out
