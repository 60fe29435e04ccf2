GO ?= go

.PHONY: all fmt vet build test perfbench-check fuzz-smoke bench bench-throughput bench-geom bench-geo-geodesic bench-json bench-smoke bench-fed bench-fed-json bench-live bench-live-json bench-planner bench-planner-json bench-chaos bench-chaos-json bench-store bench-store-json

all: fmt vet build test

# fmt fails when any file is not gofmt-clean (the CI tidiness gate:
# wire-type churn must not accumulate formatting drift).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide.
test:
	$(GO) test -race -shuffle=on ./...

# perfbench-check runs the benchmark's self-check: a tiny scale of
# every perfbench workload, untraced and traced. perfbench is a nested
# module that ./... skips, so without this an internal API change could
# break the benchmark build unnoticed.
perfbench-check:
	cd perfbench && $(GO) test ./...

# fuzz-smoke runs every fuzz target for FUZZTIME each (go test
# accepts one -fuzz target per package run): the spec planner, the
# HTTP answer codec, the batch request bodies and the store's record
# and WAL frame decoders must survive arbitrary input.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanBatch$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzAnswerCodec$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzWALFrame$$' -fuzztime $(FUZZTIME) ./internal/store

# bench runs the estimation-session benchmarks; the Parallelism pair
# measures the wall-clock payoff of WithParallelism(8) over a
# 1 ms-latency Oracle.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelism' -benchtime 3x .

# bench-throughput load-tests the lbsserve HTTP stack: 8 concurrent
# clients against one server, per-point GETs versus batched POSTs.
# The batch=32 row should show a multiple of the batch=1 queries/s.
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkServeThroughput' -benchtime 2s ./internal/httpapi

# The geometry-engine benchmark suite: cell clipping, kd-tree search,
# the simulated oracle hot path, ground-truth diagram construction and
# one end-to-end estimator sample.
GEOM_BENCH = BenchmarkAddCut|BenchmarkReplaceCut|BenchmarkInsertSites|BenchmarkBuildTop|BenchmarkRandomPoint|BenchmarkSplit|BenchmarkEvalRange|BenchmarkKNN|BenchmarkBuild10k|BenchmarkCompute10k|BenchmarkQueryLR|BenchmarkLRSample|BenchmarkLRCellComputation
GEOM_PKGS = ./internal/geom ./internal/cell ./internal/kdtree ./internal/lbs ./internal/voronoi ./internal/core

bench-geom:
	$(GO) test -run '^$$' -bench '$(GEOM_BENCH)' -benchmem $(GEOM_PKGS)

# bench-geo-geodesic runs the geodesic twins once (kd-tree Haversine
# traversal, the geodesic oracle hot path, one geodesic LR estimator
# sample, a geodesic read over a dirty live overlay) — the CI smoke
# that keeps the Haversine path compiling and answering. The names
# also match GEOM_BENCH prefixes, so bench-json records them next to
# their Euclidean baselines.
bench-geo-geodesic:
	$(GO) test -run '^$$' -bench 'Geodesic' -benchtime 1x ./internal/kdtree ./internal/lbs ./internal/core ./internal/live

# bench-json runs the geometry suite and records it in BENCH_geom.json
# (ns/op, B/op, allocs/op, custom metrics like queries/sample and q/s).
# An existing file's baseline block is preserved, so the numbers
# recorded at the start of the perf trajectory remain the reference.
# The bench output goes through a file, not a pipe, so a failing
# benchmark fails the target instead of being masked by the pipeline.
bench-json:
	$(GO) test -run '^$$' -bench '$(GEOM_BENCH)' -benchmem $(GEOM_PKGS) > bench_geom.out
	$(GO) run ./cmd/benchjson -o BENCH_geom.json < bench_geom.out
	@rm -f bench_geom.out

# The federation benchmark suite (sibling of bench-geom): the
# scatter-gather query path at 1/2/4/8 in-process shards, serial and
# batched, with the effective fan-out reported per query.
FED_BENCH = BenchmarkFederatedQuery|BenchmarkFederatedBatch

bench-fed:
	$(GO) test -run '^$$' -bench '$(FED_BENCH)' -benchmem ./internal/shard

# bench-fed-json records the federation suite in BENCH_federation.json
# (same baseline-preserving layout as bench-json; the file self-primes
# on first run).
bench-fed-json:
	$(GO) test -run '^$$' -bench '$(FED_BENCH)' -benchmem ./internal/shard > bench_fed.out
	$(GO) run ./cmd/benchjson -o BENCH_federation.json < bench_fed.out
	@rm -f bench_fed.out

# The live-database benchmark suite: the immutable Service read
# baseline, the live read path at 0%/1%/10% churn (mutations
# interleaved per query), and raw mutation throughput. The Churn0 row
# measures the clean-overlay fast path against the immutable baseline.
LIVE_BENCH = BenchmarkImmutableQueryLR|BenchmarkLiveQueryLRChurn|BenchmarkLiveApply

bench-live:
	$(GO) test -run '^$$' -bench '$(LIVE_BENCH)' -benchmem ./internal/live

# bench-live-json records the live suite in BENCH_live.json (same
# baseline-preserving layout as bench-json; self-primes on first run).
bench-live-json:
	$(GO) test -run '^$$' -bench '$(LIVE_BENCH)' -benchmem ./internal/live > bench_live.out
	$(GO) run ./cmd/benchjson -o BENCH_live.json < bench_live.out
	@rm -f bench_live.out

# The multi-aggregate planner suite: batches of 1/4/16 aggregates
# sharing 4 selections, run to a fixed confidence target as one
# planned batch versus one independent run per aggregate. The
# queries/agg columns are the planner's sharing payoff (batch ≤ ~1/3
# of independent at 16 aggregates); aggs=1 must match exactly, the
# bit-identity sanity check.
PLANNER_BENCH = BenchmarkPlannerBatch|BenchmarkPlannerIndependent

bench-planner:
	$(GO) test -run '^$$' -bench '$(PLANNER_BENCH)' -benchtime 1x ./internal/core

# bench-planner-json records the planner suite in BENCH_planner.json
# (same baseline-preserving layout as bench-json; self-primes on first
# run). The query counts are seed-deterministic, so one iteration is a
# measurement, not noise.
bench-planner-json:
	$(GO) test -run '^$$' -bench '$(PLANNER_BENCH)' -benchtime 1x ./internal/core > bench_planner.out
	$(GO) run ./cmd/benchjson -o BENCH_planner.json < bench_planner.out
	@rm -f bench_planner.out

# The chaos suite: a full LR COUNT estimation over a faulted 4-shard
# federation at each injected fault rate (0 = clean baseline),
# reporting estimation error, p50/p99 per-query latency and the
# router's retry/partial totals. Wall time is sleep-dominated (the
# injected latency), not CPU.
CHAOS_BENCH = BenchmarkChaos

bench-chaos:
	$(GO) test -run '^$$' -bench '$(CHAOS_BENCH)' -benchtime 1x ./internal/experiments

# bench-chaos-json records the chaos suite in BENCH_chaos.json (same
# baseline-preserving layout as bench-json; self-primes on first run).
# Seeds are fixed, so -benchtime 1x is a measurement, not noise.
bench-chaos-json:
	$(GO) test -run '^$$' -bench '$(CHAOS_BENCH)' -benchtime 1x ./internal/experiments > bench_chaos.out
	$(GO) run ./cmd/benchjson -o BENCH_chaos.json < bench_chaos.out
	@rm -f bench_chaos.out

# The storage-engine suite: cold restart (re-parse the JSON export,
# rebuild the index from scratch) versus warm restart (paged scan of
# the .lbspack, O(n) preordered index rebuild) on the same 10k-tuple
# city — the warm row must come in well under the cold one (the
# acceptance floor is 5x) — plus a bounded-pool scan in the
# larger-than-RAM shape and the WAL append hot path.
STORE_BENCH = BenchmarkColdStartJSON10k|BenchmarkWarmStartPack10k|BenchmarkPackScanBoundedPool|BenchmarkWALAppend

bench-store:
	$(GO) test -run '^$$' -bench '$(STORE_BENCH)' -benchmem ./internal/store

# bench-store-json records the storage suite in BENCH_store.json (same
# baseline-preserving layout as bench-json; self-primes on first run).
bench-store-json:
	$(GO) test -run '^$$' -bench '$(STORE_BENCH)' -benchmem ./internal/store > bench_store.out
	$(GO) run ./cmd/benchjson -o BENCH_store.json < bench_store.out
	@rm -f bench_store.out

# bench-smoke compiles and runs every benchmark once — the CI guard
# that keeps bench code from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
