# CI and humans invoke the same targets: .github/workflows/ci.yml runs
# build, vet, fmt, test, cover, bench and perf-gate through this file.

GO ?= go

# COVERAGE_FLOOR is the minimum total statement coverage (percent)
# `make cover` accepts; CI fails below it. Raise it as coverage grows,
# never lower it to make a PR pass.
COVERAGE_FLOOR = 65

# Perf-gate knobs: the checked-in baseline and the tolerances CI
# compares with. Wall-clock tolerances are deliberately generous (CI
# machines are noisy): they catch step-change regressions, not jitter.
# Allocation counts are near-deterministic for the pinned op multiset,
# so allocs/op gets a tight 1.5x gate, and compare writes a
# benchstat-style old-vs-new summary CI uploads on every PR.
PERF_BASELINE = bench_baseline.json
PERF_REPORT   = bench_report.json
PERF_SUMMARY  = perf_summary.txt
PERF_FLAGS    = -max-p50-ratio 4 -max-p99-ratio 4 -min-throughput-ratio 0.2 -max-allocs-ratio 1.5 -summary $(PERF_SUMMARY)

# The bigtable leg of the perf gate: scan-heavy traffic over a pinned
# 100K-row table, gated on rows/sec (scan throughput) in addition to
# the usual latency/throughput tolerances. The rows/sec floor is a
# generous 0.5x for the same noisy-runner reasons as above.
# -min-morsels-skipped 1 additionally requires the run to prove
# zone-map data skipping engaged (the mix's big_selective family must
# book skipped morsels); SKIP_MIN_GAIN is the wall-clock floor the
# skipgain step enforces on the high-selectivity probes.
PERF_BASELINE_BIG = bench_baseline_big.json
PERF_REPORT_BIG   = bench_report_big.json
PERF_SUMMARY_BIG  = perf_summary_big.txt
BIG_ROWS          = 100000
SKIP_MIN_GAIN     = 3
PERF_FLAGS_BIG    = -max-p50-ratio 4 -max-p99-ratio 4 -min-throughput-ratio 0.2 -min-rows-ratio 0.5 -min-morsels-skipped 1 -summary $(PERF_SUMMARY_BIG)

.PHONY: all build test vet fmt cover bench baseline baseline-big perf-gate metrics-lint store-stress bigtable-stress crash-stress fault-stress fuzz-wal skipgain serve ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when any file needs reformatting (including -s
# simplifications), listing the offenders.
fmt:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# cover writes coverage.out (uploaded as a CI artifact) and enforces
# the COVERAGE_FLOOR on total statement coverage. It runs under the
# race detector, so `make ci` gets race checking and coverage from one
# test-suite execution instead of two.
cover:
	$(GO) test -race -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVERAGE_FLOOR)% floor"; exit 1; }

# bench smoke-runs every benchmark once; -benchtime=1x keeps it cheap
# enough for CI while still executing each pipeline end to end, and
# -benchmem records B/op + allocs/op for every benchmark (the
# allocation columns of BenchmarkPlanExec/BenchmarkPlanExecSQL/
# BenchmarkStoreSnapshot are the hot-path budget). The output lands in
# bench.out (gitignored) so CI can upload it as an artifact and the
# perf trajectory stays recorded.
bench:
	@$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./... > bench.out 2>&1 || { cat bench.out; exit 1; }
	@cat bench.out
	@echo "benchstat-friendly output written to $$(pwd)/bench.out"

# store-stress reruns the versioned-store concurrency suite (snapshot
# isolation, churn, eviction) plus the zone-map property tests and the
# segment footer round-trips under the race detector, twice, exactly
# as the dedicated CI shard does.
store-stress:
	$(GO) test -race -run 'Store|Zone|Segment' -count=2 ./internal/store/... ./internal/engine/... ./internal/table/... ./internal/segment/...

# bigtable-stress is the data-race gate for big-table execution: the
# plan-level NaN/tie, cancellation and zone-forced kernel tests, the
# zone-forced differential suites over the dcs and minisql corpora,
# and the engine-level hammer (8 query goroutines racing a store
# mutator over a pinned snapshot) all rerun under the race detector.
bigtable-stress:
	$(GO) test -race -run 'BigTable|Zone' -count=1 ./internal/plan/... ./internal/engine/...
	$(GO) test -race -run 'TestPlanDifferentialParallel|TestSQLPlanDifferentialParallel' -count=1 ./internal/dcs/... ./internal/minisql/...

# crash-stress is the durability gate: a real wtq-server (built -race)
# is SIGKILLed mid-churn in a loop, restarted on the same data
# directory, and every acknowledged mutation is checked to have
# survived with its content-hash version and generation intact. Set
# WTQ_CRASH_DIR to keep the data directory (CI uploads it as an
# artifact when the gate fails) and WTQ_CRASH_ITERS to change the kill
# count.
crash-stress:
	WTQ_CRASH=1 $(GO) test -race -run TestCrashRecovery -count=1 -timeout 10m -v ./cmd/wtq-server/

# fault-stress is the degraded-mode gate: the seeded chaos workload
# (50 cycles x -count=2 = 100 fault/recovery episodes under the race
# detector), the store's degraded-lifecycle suite, the HTTP 503
# envelope test, and the WAL/segment fault-schedule tests. Every
# episode must lose zero acked mutations, fail fast while degraded,
# and recover in bound. Set WTQ_CHAOS_CYCLES to change the episode
# count.
fault-stress:
	WTQ_CHAOS_CYCLES=$${WTQ_CHAOS_CYCLES:-50} $(GO) test -race -count=2 -timeout 10m \
		-run 'TestChaos|TestStoreDegraded|TestStoreClose|TestServerDegraded|TestWALFault|TestWALTorn|TestWALLying|TestSegmentWriteFault|TestSegmentZonesSurvive|TestManifestTorn' \
		./internal/workload/ ./internal/store/ ./internal/wal/ ./internal/segment/ ./cmd/wtq-server/

# fuzz-wal runs the WAL replay fuzzer for a bounded window: any input
# must either recover (torn tails truncated) or be rejected as corrupt
# — never panic, never mis-parse. The seed corpus plus 30s of mutation
# is cheap enough for every CI run; run with a longer -fuzztime
# locally when touching the framing code.
fuzz-wal:
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal/

# baseline regenerates the checked-in perf-gate baseline with the
# CI-canonical workload (seed 1, mixed traffic, op-count bound).
baseline:
	$(GO) run ./cmd/wtq-bench baseline -out $(PERF_BASELINE)

# baseline-big regenerates the bigtable-leg baseline: scan-heavy
# answer-only traffic over the pinned $(BIG_ROWS)-row table.
baseline-big:
	$(GO) run ./cmd/wtq-bench baseline -mix bigtable -big-rows $(BIG_ROWS) -ops 200 -out $(PERF_BASELINE_BIG)

# perf-gate reproduces the CI job locally: run the canonical workload,
# then diff the fresh report against the checked-in baseline.
# -require-metrics makes the run fail unless the target's /metrics
# scrape succeeds and is non-empty, so the observability surface is
# load-tested on every gate run. The second leg reruns the gate with
# the bigtable mix, whose compare additionally enforces the rows/sec
# scan-throughput floor. The skipgain step then proves the zone-map layer earns its keep:
# high-selectivity range counts must run >= $(SKIP_MIN_GAIN)x faster
# with skipping on than off, with identical answers and a moving
# skipped-morsel counter.
# Both run legs execute with -data-dir, so the gate measures the
# pipeline with durability on: the baselines' tolerances double as the
# budget for WAL group commit staying off the query hot path.
perf-gate:
	rm -rf perf_data && mkdir -p perf_data
	$(GO) run ./cmd/wtq-bench run -seed 1 -mix mixed -ops 600 -workers 4 -require-metrics -data-dir perf_data/mixed -out $(PERF_REPORT)
	$(GO) run ./cmd/wtq-bench compare $(PERF_FLAGS) $(PERF_BASELINE) $(PERF_REPORT)
	$(GO) run ./cmd/wtq-bench run -seed 1 -mix bigtable -big-rows $(BIG_ROWS) -ops 200 -workers 4 -data-dir perf_data/big -out $(PERF_REPORT_BIG)
	$(GO) run ./cmd/wtq-bench compare $(PERF_FLAGS_BIG) $(PERF_BASELINE_BIG) $(PERF_REPORT_BIG)
	$(GO) run ./cmd/wtq-bench skipgain -rows 1000000 -min-gain $(SKIP_MIN_GAIN) -summary $(PERF_SUMMARY_BIG)
	rm -rf perf_data

# skipgain runs selective range counts over the big table with
# zone-map skipping off vs on, verifies identical answers, and
# enforces the $(SKIP_MIN_GAIN)x floor on the high-selectivity probes.
skipgain:
	$(GO) run ./cmd/wtq-bench skipgain -rows 1000000 -min-gain $(SKIP_MIN_GAIN)

# metrics-lint verifies the metric namespace: every registered series
# name well-formed, collision-free and matching the canonical list in
# internal/metric/registry_test.go. Registration panics make collisions
# a wiring-time failure; this target makes them a reviewable diff.
metrics-lint:
	$(GO) test -run TestRegistryNames -count=1 ./internal/metric/

serve:
	$(GO) run ./cmd/wtq-server -demo

ci: build vet fmt cover bench metrics-lint bigtable-stress perf-gate
