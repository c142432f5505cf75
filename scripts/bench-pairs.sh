#!/bin/sh
# bench-pairs: section 8 of the choosing-metrics guide as one command.
#
#   scripts/bench-pairs.sh BASE [WORKLOAD] [N] [METRIC] [PREFIX] [SEED]
#
# Builds ./benchmark at revision BASE (from a throw-away `git archive`
# copy under .bench_build/) and at the working tree, then runs N
# untraced pairs of WORKLOAD with seeds SEED..SEED+N-1 (SEED defaults
# to 1; 11 starts the held-out seeds), alternating which side goes
# first. Every run is appended to PREFIX_base.json / PREFIX_head.json
# (PREFIX defaults to BENCH_pairs; the files are started afresh each
# invocation, so give each workload its own prefix to keep them); the script
# prints METRIC (default stream_ms) per pair, the win count, and the
# benchmark's own -compare table over the two files. A win is a pair in
# which the working tree's METRIC is better in the direction
# BENCHMARK.json's `better` gives it. The script exits 1 when a run
# fails (it names the side and the seed) and when -compare reads an
# end-to-end metric as regressed; `unresolved` passes.
# Nothing else on the machine should be running while it does.
set -eu

base=${1:?usage: bench-pairs.sh BASE [WORKLOAD] [N] [METRIC] [PREFIX] [SEED]}
workload=${2:-power}
n=${3:-10}
metric=${4:-stream_ms}
prefix=${5:-BENCH_pairs}
seed0=${6:-1}

cd "$(git rev-parse --show-toplevel)"
better=$(awk -v m="\"$metric\"," '$1 == "\"name\":" { hit = $2 == m } hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json)
case $better in
lower | higher) ;;
*)
	echo "bench-pairs.sh: BENCHMARK.json declares no metric $metric" >&2
	exit 2
	;;
esac
build=.bench_build
src=$build/base-src
rm -rf $src
mkdir -p $src
git archive "$base" | tar -x -C $src
(cd $src && go build -o ../bench-base ./benchmark)
rm -rf $src
go build -o $build/bench-head ./benchmark

base_out=${prefix}_base.json
head_out=${prefix}_head.json
rm -f $base_out $head_out

# run SIDE SEED: one untraced run, result appended to SIDE's file; sets v
# to the run's METRIC. The run's output stays in
# .bench_build/SIDE-seedSEED.log. A run that exits non-zero (the
# benchmark exits 1 when an answer fails its check) or reports no METRIC
# stops the script: read as an empty value it would print 0.0, and
# -compare skips runs that are not correct.
run() {
	eval "out=\$${1}_out"
	log=$build/$1-seed$2.log
	$build/bench-$1 -workload "$workload" -seed "$2" -out "$out" >"$log" 2>&1 || {
		status=$?
		tail -n 20 "$log" >&2
		echo "bench-pairs.sh: the $1 run at seed $2 failed (exit $status); its output is in $log" >&2
		exit 1
	}
	v=$(sed -n "s/^{\"correct\".*\"$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p" "$log")
	test -n "$v" || {
		echo "bench-pairs.sh: the $1 run at seed $2 reported no $metric; its output is in $log" >&2
		exit 1
	}
}

wins=0
losses=0
printf 'pair  seed  first  %14s  %14s\n' "base $metric" "head $metric"
i=1
while [ "$i" -le "$n" ]; do
	seed=$((seed0 + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		first=base
		run base "$seed"
		b=$v
		run head "$seed"
		h=$v
	else
		first=head
		run head "$seed"
		h=$v
		run base "$seed"
		b=$v
	fi
	printf '%4d  %4d  %-5s  %14.1f  %14.1f\n' "$i" "$seed" "$first" "$b" "$h"
	case $(echo "$h $b $better" | awk '{ d = ($3 == "lower") ? $2 - $1 : $1 - $2; print (d > 0) ? "win" : (d < 0) ? "loss" : "tie" }') in
	win) wins=$((wins + 1)) ;;
	loss) losses=$((losses + 1)) ;;
	esac
	i=$((i + 1))
done
echo "head better ($better $metric) than base in $wins of $n pairs ($losses worse, $((n - wins - losses)) tied)"
echo
$build/bench-head -compare $base_out $head_out
