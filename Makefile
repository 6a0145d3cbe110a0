# Development targets for the icost repository. `make ci` is the gate
# the CI workflow runs; keep it green before pushing.

GO ?= go

.PHONY: build test race bench bench-batch bench-cold bench-fleet bench-graph bench-sens bench-smoke chaos fuzz fmt vet lint ci

# Seconds-per-target budget for the fuzz smoke; CI uses the default.
FUZZTIME ?= 5s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race: the whole suite under the race detector, then the analyzer
# memo's concurrency tests, the recycled trace stream's tests (their
# segment rings pass between streams) and the windowed sessions' tests
# (a build's pass records the session before it is published) ten
# times over — their interleavings differ from run to run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestSingleFlight|TestAnalyzerConcurrentUse|TestMemoConcurrentIdeals' ./internal/cost/
	$(GO) test -race -count=10 -run 'TestRecycled' ./internal/trace/ ./internal/workload/ ./internal/ooo/
	$(GO) test -race -count=10 -run 'TestWindowed' ./internal/engine/

# bench smoke: one iteration of every benchmark with allocation
# stats, just to prove they run. Kept to one iteration so CI stays
# under ~2 minutes.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# bench-batch: stable timings for the batched-evaluation hot paths;
# run before and after touching internal/depgraph/batch.go or
# internal/cost, and record results in BENCH_batch.json.
bench-batch:
	$(GO) test -run='^$$' -bench='BenchmarkICostPair|BenchmarkICostBatch|BenchmarkMatrixBatch|BenchmarkExecTimeWarm' -benchmem -benchtime=2s -count=3 .

# bench-cold: the cold-path numbers BENCH_coldpath.json tracks —
# pipelined session build, multisim fan-out, profiler fragment
# analysis — always with -benchmem, since the cold-path work is
# judged on bytes/op and allocs/op as much as on ns/op. CI runs it
# with COLD_BENCHTIME=1x as a smoke; use the 2s default for numbers
# worth recording.
COLD_BENCHTIME ?= 2s

bench-cold:
	$(GO) test -run='^$$' -bench=BenchmarkSessionBuild -benchmem -benchtime=$(COLD_BENCHTIME) ./internal/engine/
	$(GO) test -run='^$$' -bench=BenchmarkMultisimBreakdown -benchmem -benchtime=$(COLD_BENCHTIME) ./internal/multisim/
	$(GO) test -run='^$$' -bench=BenchmarkProfilerAnalyze -benchmem -benchtime=$(COLD_BENCHTIME) ./internal/profiler/

# bench-fleet: the ingestion-path benchmarks — merge throughput,
# memoized vs cold fleet queries — with -benchmem, since the
# aggregator is judged on retained bytes as much as on ns/op. The
# second step is the no-regression guard:
# the fleet's memoized query path must stay in the same performance
# class as the engine's warm (result-cached) query path. CI runs the
# benchmarks with FLEET_BENCHTIME=1x as a smoke; use the 2s default
# for numbers worth recording.
FLEET_BENCHTIME ?= 2s

bench-fleet:
	$(GO) test -run='^$$' -bench='BenchmarkFleet' -benchmem -benchtime=$(FLEET_BENCHTIME) ./internal/fleet/
	$(GO) test -run='TestMemoizedQueryTracksEngineWarmPath' -count=1 ./internal/fleet/

# bench-graph: the flat-CSR walk kernels against the legacy layout's
# reference implementations — forward walk, backward (slack) walk and
# the multi-lane batch kernel — always with -benchmem, since the CSR
# refactor is judged on bytes/op as much as ns/op. Numbers land in
# BENCH_graph.json. The second step is the warm-path no-regression
# guard CI leans on: relative CSR-vs-legacy timing in one process, so
# machine speed never matters. CI runs the benchmarks with
# GRAPH_BENCHTIME=1x as a smoke; use the 2s default for numbers worth
# recording.
GRAPH_BENCHTIME ?= 2s

bench-graph:
	$(GO) test -run='^$$' -bench='BenchmarkForwardWalk|BenchmarkBackwardWalk|BenchmarkBatchEval' -benchmem -benchtime=$(GRAPH_BENCHTIME) -count=3 ./internal/depgraph/
	$(GO) test -run='TestWarmPathNoRegression' -count=1 ./internal/depgraph/

# bench-sens: the parametric-sensitivity numbers BENCH_sens.json
# tracks — curve-evaluation throughput (all eight categories over the
# default α grid in one batched walk) plus the refutation harness's
# measured model-vs-simulator error envelope. The second step is the
# no-regression gate CI leans on: TestRefuteEnvelopeGuard re-runs the
# harness and fails if any knob's relative error exceeds the recorded
# envelope (regenerate deliberately with REFUTE_WRITE=1). CI runs the
# benchmark with SENS_BENCHTIME=1x as a smoke; use the 2s default for
# numbers worth recording.
SENS_BENCHTIME ?= 2s

bench-sens:
	$(GO) test -run='^$$' -bench='BenchmarkSensitivityCurves' -benchmem -benchtime=$(SENS_BENCHTIME) ./internal/cost/
	$(GO) test -run='TestRefuteEnvelopeGuard' -count=1 ./internal/refute/

# bench-smoke: the end-to-end benchmark harness (icostbench, its own
# module, so `go build ./...` and `go test ./...` never compile it)
# vetted and unit-tested, then both gated workloads run for two
# seconds each. A run whose answers fail the output or shape checks
# exits non-zero, and so does this target. Numbers from two-second
# runs prove only that the pipeline works; measure with the
# benchmark's own run length.
bench-smoke:
	cd icostbench && $(GO) vet ./... && $(GO) test ./...
	bash icostbench/run.sh --workload warm-serve --seed 1 --seconds 2 --trace 0
	bash icostbench/run.sh --workload long-trace --seed 1 --seconds 2 --trace 0

# chaos: the fault-injection suite (internal/faultinject + every
# TestChaos* test) under the race detector, once at GOMAXPROCS=1 and
# once at 2 (-cpu 1,2): the windowed fold's lane-group count follows
# GOMAXPROCS, and real parallelism schedules interleavings one CPU
# never does. Seeded fault plans make a failure replayable: rerun with
# the seed from the failure log. The router drills include the
# backend-kill storm: shards hard-killed mid-query while hedged reads
# ride replicas and writes re-route.
chaos:
	$(GO) test -race -cpu 1,2 ./internal/faultinject/
	$(GO) test -race -cpu 1,2 -run='TestChaos' ./internal/engine/ ./internal/fleet/ ./internal/router/ ./cmd/icostd/

# fuzz smoke: FUZZTIME per fuzz target (override: make fuzz FUZZTIME=1m).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzReadSamples -fuzztime=$(FUZZTIME) ./internal/profiler/
	$(GO) test -run='^$$' -fuzz=FuzzWindowFold -fuzztime=$(FUZZTIME) ./internal/window/
	$(GO) test -run='^$$' -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzReadStream -fuzztime=$(FUZZTIME) ./internal/fleet/

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint: go vet plus the repo's own analyzer suite (cmd/icostvet) —
# all ten analyzers. Zero unsuppressed findings is the bar;
# deliberate exceptions carry `//lint:ignore <analyzer> <reason>`
# annotations in the source. The hotalloc analyzer needs a toolchain
# whose `go build -gcflags=-m` emits parseable escape output; the
# driver probes for that and skips hotalloc with a stderr notice
# (never silently) when the probe fails, so `make lint` stays usable
# on exotic toolchains.
lint: vet
	$(GO) run ./cmd/icostvet ./...

# ci: everything above, then the no-regression guards. The shard
# topology guard (TestShardBenchGuard) skips under -race, so it gets
# its own non-race step.
ci: fmt lint build race chaos bench
	$(MAKE) bench-cold COLD_BENCHTIME=1x
	$(MAKE) bench-fleet FLEET_BENCHTIME=1x
	$(MAKE) bench-graph GRAPH_BENCHTIME=1x
	$(MAKE) bench-sens SENS_BENCHTIME=1x
	$(GO) test -run='TestShardBenchGuard' -count=1 ./internal/router/
	$(MAKE) bench-smoke
