GO ?= go

# Per-target fuzz budget for `make fuzz`. Keep it short by default; CI
# and soak runs override it (FUZZTIME=2m make fuzz).
FUZZTIME ?= 10s

.PHONY: build test test-procs vet cross lint lint-report lint-bench race chaos fuzz explain-smoke serve-smoke spill-smoke check loc bench bench-compare bench-pairs bench-scaling bench-smoke

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

# wimpi-lint: the custom invariant suite — the dataflow-backed v2
# analyzers (taintflow, pathcost, hotalloc, exhaustive) on top of the
# original passes (determinism, cost accounting, context discipline,
# goroutine hygiene, wire-protocol error handling), plus the directive
# audit that fails on stale `//lint:allow` lines.
# -novet because the stock passes run under `make vet`.
lint:
	$(GO) run ./cmd/wimpi-lint -novet ./...

# Machine-readable lint output for CI: JSON findings on stdout and a
# SARIF 2.1.0 log for code-scanning upload. Exit status still reflects
# findings, so `|| true` it when only the artifacts are wanted.
lint-report:
	$(GO) run ./cmd/wimpi-lint -novet -json -sarif lint.sarif ./... > lint.json

# Smoke-test the analyzer suite's own cost: the whole-tree run (type
# check + CFG construction + fixpoint solving for every function) must
# finish inside the budget, or the lint gate has become too slow to
# keep in the inner loop. LINT_DEADLINE override for slow machines.
LINT_DEADLINE ?= 120s
lint-bench:
	$(GO) run ./cmd/wimpi-lint -novet -deadline $(LINT_DEADLINE) ./...

# Race-detector pass over every package, then ten more rounds over what
# runs spilled partitions as concurrent morsels against one open segment:
# the detector only sees the interleavings a run happens to produce.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Spill|JoinProber|Segment' ./internal/plan ./internal/spill

# Fault-injection suite: chaos tests, wire-protocol hardening, and the
# faultconn package itself, all under the race detector.
chaos:
	$(GO) test -race -timeout 120s -run 'Chaos|Fault|Frame|Close|Worker' ./internal/cluster/...

# Native Go fuzzing over the wire decoder, the fault-plan parser, and
# the compressed int encodings. Targets run one at a time (the fuzz
# engine's requirement).
fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzReadMsg -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz FuzzLexer -fuzztime $(FUZZTIME) -run '^$$' ./internal/sql/
	$(GO) test -fuzz FuzzParser -fuzztime $(FUZZTIME) -run '^$$' ./internal/sql/
	$(GO) test -fuzz FuzzBitPackRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/colstore/
	$(GO) test -fuzz FuzzFoRRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/colstore/

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
# non-zero on any query error, any divergence, or a p99 above the bound,
# and leaves BENCH_serve.json (QPS, p50/p95/p99) behind.
SERVE_P99_MS ?= 20000
serve-smoke:
	$(GO) run ./cmd/wimpi-serve -load -sf 0.05 -clients 64 -queries 5 \
		-max-p99-ms $(SERVE_P99_MS) -bench-out BENCH_serve.json

# Budget determinism smoke test: force an inner (Q3), a semi (Q4) and a
# left-count (Q13) join through the spill joiner with a budget far below
# their join state, at one worker and at four (partitions are morsels),
# and require the same answer as the unlimited run and an empty spill
# directory afterwards (the engine suite proves the answers across all
# 22 queries; this catches CLI-level wiring of -mem-budget, -workers and
# -spill-dir). Each run lands in a file before it is filtered, so a run
# that fails stops the target instead of diffing two empty outputs.
SPILL_SMOKE_FILTER = grep -v -e '(host)' -e '^generating'
spill-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/spill"; \
	$(GO) build -o "$$tmp/wimpi" ./cmd/wimpi; \
	for q in 3 4 13; do \
		"$$tmp/wimpi" -sf 0.01 -q $$q -rows 3 > "$$tmp/raw"; \
		$(SPILL_SMOKE_FILTER) "$$tmp/raw" > "$$tmp/free.out"; \
		for w in 1 4; do \
			"$$tmp/wimpi" -sf 0.01 -q $$q -rows 3 -workers $$w -mem-budget 64KB -spill-dir "$$tmp/spill" > "$$tmp/raw"; \
			$(SPILL_SMOKE_FILTER) "$$tmp/raw" > "$$tmp/budget.out"; \
			diff "$$tmp/free.out" "$$tmp/budget.out"; \
			test -z "$$(ls -A "$$tmp/spill")" || { echo "spill-smoke: Q$$q at $$w worker(s) left files in the spill directory"; exit 1; }; \
		done; \
	done; \
	echo "spill-smoke: Q3, Q4, Q13 identical under the budget at 1 and 4 workers; spill directory empty"

# The tier-1 gate: everything a change must pass before merging.
check: build test test-procs vet lint race explain-smoke serve-smoke spill-smoke

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
#   make bench-pairs BASE=HEAD~1 W=power N=10
W ?= power
N ?= 10
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [W=<workload>] [N=<pairs>]"; exit 2; }
	scripts/bench-pairs.sh $(BASE) $(W) $(N)

# Parallel speedup on Q1/Q3/Q6/Q18 at 1/2/4/8 workers (SF via WIMPI_BENCH_SF).
bench-scaling:
	$(GO) test -run '^$$' -bench BenchmarkParallelScaling -benchtime 3x .

# Radix-partitioned vs chained hash join sweep (BENCH_join.json, with
# host and simulated-Pi speedups reported side by side), fused-vs-vector
# execution on Q1/Q6/Q14 (BENCH_fused.json), and the budget-bounded
# spill vs swap-thrash trajectory (BENCH_spill.json).
# WIMPI_BENCH_BIG=1 adds a join build side that also overflows a
# server-class host LLC.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkJoinRadixVsChained|BenchmarkFusedVsVector|BenchmarkSpill' -benchtime 3x .
