GO ?= go

# Per-target fuzz budget for `make fuzz`. Keep it short by default; CI
# and soak runs override it (FUZZTIME=2m make fuzz).
FUZZTIME ?= 10s

.PHONY: build test test-procs vet cross lint lint-report race chaos fuzz explain-smoke serve-smoke spill-smoke examples check loc alloc-gate bench bench-compare bench-pairs bench-gate bench-scaling

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Tier-1 at three host shapes. Defaults such as engine.Config{Workers: 0}
# follow GOMAXPROCS, so a test that only passes on the author's core count
# fails here instead of on the next host. -count=1 because the test cache
# does not key on GOMAXPROCS; -p 1 because the go command reads GOMAXPROCS
# too, and eight test binaries at once on a small host starve the
# wall-clock assertions (link throttle, token bucket) of the CPU they time.
test-procs: build
	GOMAXPROCS=1 $(GO) test -p 1 -count=1 ./...
	GOMAXPROCS=2 $(GO) test -p 1 -count=1 ./...
	GOMAXPROCS=8 $(GO) test -p 1 -count=1 ./...

# Stock go vet passes.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; }

# The code, tests included, type-checks for the Raspberry Pi: the 3B+'s
# 64-bit ABI and its stock 32-bit one, where int is 32 bits wide. The
# kernels and the planner also run their tests with a 32-bit int (386
# executes on an amd64 host), where key-span and size arithmetic
# overflows first.
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=arm GOARM=7 $(GO) build ./...
	GOOS=linux GOARCH=arm GOARM=7 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/exec/ ./internal/plan/

# wimpi-lint: the custom invariant suite, five analyzers — the
# dataflow-backed taintflow (determinism) and pathcost (cost
# accounting), exhaustive, and the context-discipline and wire-protocol
# error-handling passes — plus the directive audit
# that fails on stale `//lint:allow` lines and on names no analyzer
# answers to. -novet because the stock passes run under `make vet`.
# The whole-tree run (type check + CFG construction + fixpoint solving
# for every function) must also finish inside LINT_DEADLINE, or the
# lint gate has become too slow to keep in the inner loop; override it
# for slow machines.
LINT_DEADLINE ?= 120s
lint:
	$(GO) run ./cmd/wimpi-lint -novet -deadline $(LINT_DEADLINE) ./...

# Machine-readable lint output for CI: JSON findings on stdout and a
# SARIF 2.1.0 log for code-scanning upload. Exit status still reflects
# findings (and the deadline), so `|| true` it when only the artifacts
# are wanted.
lint-report:
	$(GO) run ./cmd/wimpi-lint -novet -deadline $(LINT_DEADLINE) -json -sarif lint.sarif ./... > lint.json

# Race-detector pass over every package, then ten more rounds over what
# runs spilled partitions as concurrent morsels against one open segment,
# what composes and reads lazy gathers' views from concurrent morsels,
# over one planned SQL tree run from several goroutines at once, over
# the serve caches, where every hit writes its entry's count under the
# lock, and over the work golden, whose 1 Ki-row morsel block at eight
# workers runs the parallel paths of the scans, joins, gathers and
# group-bys on TPC-H data, and over the exec join conformance and radix
# partitioner suites, because every parallel in-memory join build runs
# the radix scatter's morsel-parallel first pass: the detector only sees
# the interleavings a run happens to produce.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Spill|JoinProber|Segment|Lazy' ./internal/plan ./internal/spill
	$(GO) test -race -count=10 -run 'Reus|Cache' ./internal/sql ./internal/serve
	$(GO) test -race -count=10 -run 'TestSpansGolden$$' ./internal/engine
	$(GO) test -race -count=10 -run 'JoinProber|Radix|Partition' ./internal/exec

# Fault-injection suite: chaos tests, wire-protocol hardening, and the
# faultconn package itself, all under the race detector; with -tags
# chaos, also the wall-clock soak of the throttled link
# (TestThrottledLinkBandwidth, which a starved host fails).
chaos:
	$(GO) test -race -tags chaos -timeout 120s -run 'Chaos|Fault|Frame|Close|Worker|ThrottledLink' ./internal/cluster/...

# Native Go fuzzing over the wire decoder, the fault-plan parser, the
# SQL lexer and parser, the string dictionary (against a map + slice oracle),
# the compiled LIKE matcher (against a backtracking reference), and
# POST /query (same answer twice through the serving caches). Targets
# run one at a time (the fuzz engine's requirement).
fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzReadMsg -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzLexer -fuzztime $(FUZZTIME) -run '^$$' ./internal/sql/
	$(GO) test -fuzz FuzzParser -fuzztime $(FUZZTIME) -run '^$$' ./internal/sql/
	$(GO) test -fuzz FuzzDict -fuzztime $(FUZZTIME) -run '^$$' ./internal/colstore/
	$(GO) test -fuzz FuzzLike -fuzztime $(FUZZTIME) -run '^$$' ./internal/exec/
	$(GO) test -fuzz FuzzServeQuery -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve/

# EXPLAIN ANALYZE smoke test: run Q1 with -explain and assert the span
# tree came back non-empty (the scan operator must appear with its sim
# column); then run Q3 with -explain under a 64 KB budget and assert the
# traced run went through the spill joiner (a spill-partition row,
# labelled "radix N-way, budget B") and left the spill directory empty.
# Catches wiring regressions between engine.RunTraced, the plan-layer
# spans, and the obs renderer that unit tests can miss. As in
# spill-smoke, each run lands in a file before it is filtered, so a run
# that fails stops the target.
explain-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/spill"; \
	$(GO) build -o "$$tmp/wimpi" ./cmd/wimpi; \
	"$$tmp/wimpi" -sf 0.01 -q 1 -explain > "$$tmp/q1.out"; \
	cat "$$tmp/q1.out"; \
	grep -q 'scan lineitem' "$$tmp/q1.out" || { echo "explain-smoke: Q1 trace has no scan lineitem row"; exit 1; }; \
	"$$tmp/wimpi" -sf 0.01 -q 3 -explain -mem-budget 64KB -spill-dir "$$tmp/spill" > "$$tmp/q3.out"; \
	cat "$$tmp/q3.out"; \
	grep -Eq 'radix [0-9]+-way, budget ' "$$tmp/q3.out" || { echo "explain-smoke: Q3 under -mem-budget has no spill-partition row"; exit 1; }; \
	test -z "$$(ls -A "$$tmp/spill")" || { echo "explain-smoke: Q3 left files in the spill directory"; exit 1; }; \
	echo "explain-smoke: Q1 traced; Q3 traced through the spill joiner; spill directory empty"

# Serving-path smoke test: a short closed-loop soak of the multi-tenant
# front door — 64 concurrent clients over the TPC-H mix, every result
# verified byte-identical to serial execution. The load generator exits
# non-zero on any query error or any divergence. Its timings are printed,
# not gated: the repository benchmark's serve workload times this path.
serve-smoke:
	$(GO) run ./cmd/wimpi-serve -load -sf 0.05 -clients 64 -queries 5

# Budget determinism smoke test: force an inner (Q3), a semi (Q4) and a
# left-count (Q13) join through the spill joiner with a budget below
# their build side's state, at one worker and at four (partitions are
# morsels), and require the same answer as the unlimited run, a
# spill-partition row (`radix N-way, budget`) in -explain, and an empty
# spill directory afterwards. Q8 is the negative case: every build side
# it has fits half the budget, so its probe streams — same answer, and
# no spill-partition row. The engine suite proves the answers across all
# 22 queries; this catches CLI-level wiring of -mem-budget, -workers and
# -spill-dir, and a change of the spill rule that would silently drop
# the coverage. Each run lands in a file before it is filtered, so a run
# that fails stops the target instead of diffing two empty outputs.
SPILL_SMOKE_FILTER = grep -v -e '(host)' -e '^generating'
spill-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/spill"; \
	$(GO) build -o "$$tmp/wimpi" ./cmd/wimpi; \
	for q in 3 4 13 8; do \
		"$$tmp/wimpi" -sf 0.01 -q $$q -rows 3 > "$$tmp/raw"; \
		$(SPILL_SMOKE_FILTER) "$$tmp/raw" > "$$tmp/free.out"; \
		want=yes; test $$q != 8 || want=no; \
		for w in 1 4; do \
			"$$tmp/wimpi" -sf 0.01 -q $$q -rows 3 -workers $$w -mem-budget 64KB -spill-dir "$$tmp/spill" > "$$tmp/raw"; \
			$(SPILL_SMOKE_FILTER) "$$tmp/raw" > "$$tmp/budget.out"; \
			diff "$$tmp/free.out" "$$tmp/budget.out"; \
			"$$tmp/wimpi" -sf 0.01 -q $$q -workers $$w -explain -mem-budget 64KB -spill-dir "$$tmp/spill" > "$$tmp/explain.out"; \
			spilled=no; grep -Eq 'radix [0-9]+-way, budget ' "$$tmp/explain.out" && spilled=yes; \
			test $$spilled = $$want || { echo "spill-smoke: Q$$q at $$w worker(s): spill-partition row in -explain: $$spilled, want $$want"; exit 1; }; \
			test -z "$$(ls -A "$$tmp/spill")" || { echo "spill-smoke: Q$$q at $$w worker(s) left files in the spill directory"; exit 1; }; \
		done; \
	done; \
	echo "spill-smoke: Q3, Q4, Q13 spilled and Q8 streamed under the budget at 1 and 4 workers, each identical to the unlimited run; spill directory empty"

# Every example runs to completion (a non-zero exit fails the target):
# they are the library's callers outside the tree's own packages.
examples:
	@for e in examples/*/; do \
		echo "examples: $$e"; \
		$(GO) run ./$$e > /dev/null || { echo "examples: $$e failed"; exit 1; }; \
	done

# The tier-1 gate: everything a change must pass before merging.
check: build test test-procs vet lint race explain-smoke serve-smoke spill-smoke examples

# The north star's "net line count goes down", as a number: non-test,
# non-generated Go lines per package group (internal/x, cmd/x, …), and —
# where origin/main is known — what the working tree adds and removes
# against the merge base, by the same grouping.
LOC_GROUP = n = split($$NF, p, "/"); g = n == 1 ? "." : (n > 2 && p[1] ~ /^(internal|cmd|examples)$$/ ? p[1] "/" p[2] : p[1])
loc:
	@git ls-files -- '*.go' ':!*_test.go' | xargs grep -L '^// Code generated' | xargs wc -l | \
		awk '$$NF != "total" { $(LOC_GROUP); l[g] += $$1; t += $$1 } \
			END { for (g in l) printf "%8d  %s\n", l[g], g; printf "%8d  total\n", t }' | sort -k2
	@base=$$(git merge-base HEAD origin/main 2>/dev/null) || exit 0; \
		echo "against merge base $$(git rev-parse --short $$base):"; \
		git diff --numstat $$base -- '*.go' ':!*_test.go' | \
		awk '{ $(LOC_GROUP); a[g] += $$1; d[g] += $$2; ta += $$1; td += $$2 } \
			END { for (g in a) printf "%+8d  %s (+%d -%d)\n", a[g] - d[g], g, a[g], d[g]; printf "%+8d  total (+%d -%d)\n", ta - td, ta, td }' | sort -k2

# Host allocations per TPC-H query against the committed BENCH_alloc.txt
# (scripts/alloc-gate.sh; BenchmarkTableII once at SF 0.1, -cpu 2, ~7 s),
# in its three blocks: the default engine, a 64 KiB memory budget and
# the fused engine. B/op or allocs/op more than 3 % above it fails.
# UPDATE=1 rewrites the file instead; a change that moves it says why
# in CHANGES.md.
alloc-gate:
	scripts/alloc-gate.sh $(if $(UPDATE),update)

# The repository benchmark (benchmark/README.md): four workloads, each
# untraced then traced, appended to BENCH_run.json (~2.5 min).
# bench-compare reads two such files, metric by metric:
#   make bench-compare A=BENCH_base.json B=BENCH_run.json
bench:
	$(GO) run ./benchmark -out BENCH_run.json

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# A performance claim, measured the way the choosing-metrics guide asks:
# N alternating pairs of BASE against the working tree on workload W
# (scripts/bench-pairs.sh has the details; ~1 min per pair on power).
# M names the metric whose wins are counted, in the direction
# BENCHMARK.json gives it; P prefixes the two output files (P_base.json,
# P_head.json), and S is the first seed (11 for the held-out pairs).
#   make bench-pairs BASE=HEAD~1 W=power N=10 M=throughput_qps
#   make bench-pairs BASE=HEAD~1 W=spill N=3 M=throughput_qps P=BENCH_pairs_spill S=11
W ?= power
N ?= 10
M ?= stream_ms
P ?= BENCH_pairs
S ?= 1
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [W=<workload>] [N=<pairs>] [M=<metric>] [P=<prefix>] [S=<first seed>]"; exit 2; }
	scripts/bench-pairs.sh $(BASE) $(W) $(N) $(M) $(P) $(S)

# The timing gate, and the repo's one timing record: three alternating
# pairs of BASE against the working tree on power and on spill, each
# with its own prefix (BENCH_pairs_gate_<w>_base.json / _head.json).
# BASE defaults to the merge base with origin/main. A failed run, or an
# end-to-end metric that -compare reads as regressed, fails the gate;
# `unresolved` passes. serve and cluster are left out: their stream_ms
# and query_geomean_ms spread as wide as their 15 % bounds.
#   make bench-gate BASE=HEAD
bench-gate:
	@set -e; base=$(or $(BASE),$$(git merge-base HEAD origin/main)); fail=; \
	for w in power spill; do \
		scripts/bench-pairs.sh $$base $$w 3 stream_ms BENCH_pairs_gate_$$w || fail="$$fail $$w"; \
	done; \
	test -z "$$fail" || { echo "bench-gate: against $$base, failed on:$$fail"; exit 1; }; \
	echo "bench-gate: power and spill hold against $$base"

# Parallel speedup on Q1/Q3/Q6/Q18 at 1/2/4/8 workers (SF via WIMPI_BENCH_SF).
bench-scaling:
	$(GO) test -run '^$$' -bench BenchmarkParallelScaling -benchtime 3x .
