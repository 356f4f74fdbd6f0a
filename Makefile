GO ?= go

.PHONY: build test bench bench-exec bench-stream bench-store bench-obs bench-fault soak soak-smoke vet docs-check clean

build:
	$(GO) build ./...

vet:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

# test also vets, builds and tests the benchmark harness (its own module
# under bench/), so an API change it depends on fails here rather than
# in a benchmark run.
test: vet
	$(GO) test -race ./...
	$(GO) -C bench vet ./... && $(GO) -C bench build ./... && $(GO) -C bench test ./...

# bench measures serving-engine throughput (1, 4, GOMAXPROCS workers)
# against the single-threaded baseline driver, then merges the
# engine.MatchBatch 1/2/4/GOMAXPROCS worker curve (with speedup_vs_1) as
# the "parallel" section, and records both in BENCH_engine.json, the
# repo's perf trajectory. BENCH_ENGINE_K overrides the corpus scale
# (default 4000 holders ≈ 10k+ queries).
bench:
	BENCH_ENGINE_OUT=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteBenchReport -count=1 -v ./internal/engine/
	BENCH_PARALLEL_ENGINE_OUT=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteParallelBenchReport -count=1 -timeout 30m -v ./internal/engine/
	@cat BENCH_engine.json

# bench-exec measures every execution path of the exec kernel against
# its pre-kernel (seed) implementation — enforcement chase (seed
# interpreted full scan vs compiled full scan vs worklist), rule-set
# matching, and engine serving — and records the result in
# BENCH_exec.json, including a values section with the interned-path
# timings and old-vs-new equivalence cross-checks (same matches as the
# string paths; same applications, passes and stable instance as
# seedref) and allocs_per_op for every measure. BENCH_EXEC_K overrides
# the dataset scale (default 1000 holders).
bench-exec:
	BENCH_EXEC_OUT=$(CURDIR)/BENCH_exec.json $(GO) test -run TestWriteExecBenchReport -count=1 -timeout 60m -v .
	@cat BENCH_exec.json

# bench-stream measures streaming-enforcement latency: per-insert cost
# of the incremental chase (internal/stream) across dataset sizes, for
# the full dedup rule set and the blockable-only subset, against the
# full-re-chase alternative, with batch-vs-stream bit-identity flags.
# Recorded in BENCH_stream.json. BENCH_STREAM_K overrides the largest
# corpus scale (default 2000 holders).
bench-stream:
	BENCH_STREAM_OUT=$(CURDIR)/BENCH_stream.json $(GO) test -run TestWriteStreamBenchReport -count=1 -timeout 30m -v ./internal/stream/
	@cat BENCH_stream.json

# bench-store measures durability (internal/store): WAL append
# throughput with and without the per-append fsync, snapshot size and
# write time, and what durability buys on restart — cold-start recovery
# from a snapshot against the full re-chase a stateless restart pays —
# with a recovered-state-equals-rechased-state cross-check. Recorded in
# BENCH_store.json. BENCH_STORE_K overrides the largest corpus scale
# (default 4000 holders).
bench-store:
	BENCH_STORE_OUT=$(CURDIR)/BENCH_store.json $(GO) test -run TestWriteStoreBenchReport -count=1 -timeout 30m -v ./internal/engine/
	@cat BENCH_store.json

# bench-obs measures what enabling the observability hooks costs on the
# two hot paths — engine.MatchBatch and the per-insert incremental chase
# — by running each with a nil observer (hooks compiled out at the call
# site, structurally zero cost) and again with the full obs stack
# attached, plus a traced-vs-untraced pass over the same paths (one
# request root span per op against the no-root-span baseline, where
# every trace.StartSpan is a single context lookup). Recorded in
# BENCH_obs.json; the test fails if enabled-hook or enabled-trace
# overhead exceeds 3% (BENCH_OBS_MAX_OVERHEAD overrides the gate,
# BENCH_OBS_K the corpus scale, default 2000 holders).
bench-obs:
	BENCH_OBS_OUT=$(CURDIR)/BENCH_obs.json $(GO) test -run TestWriteObsBenchReport -count=1 -timeout 30m -v ./internal/obs/
	@cat BENCH_obs.json

# bench-fault runs the robustness suite and records the admission gate:
# first the crash-point fault matrix + fault/retry unit tests under
# -race, then the admission-overhead report — MatchBatchCtx with a live
# cancellable context (every HTTP request's shape) versus a background
# context — merged as an "admission" section into BENCH_engine.json.
# The test FAILS if the hook costs more than 1%
# (BENCH_ADMISSION_MAX_OVERHEAD overrides the gate, BENCH_ENGINE_K the
# corpus scale).
bench-fault:
	$(GO) test -race -count=1 -run 'TestRecoveryEquivalenceUnderFaults' -v ./internal/engine/
	$(GO) test -race -count=1 ./internal/fault/ ./internal/retry/
	BENCH_ADMISSION_OUT=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteAdmissionBenchReport -count=1 -timeout 30m -v ./internal/engine/
	@cat BENCH_engine.json

# soak is the scale tier (build tag `scale`): SOAK_RECORDS synthesized
# credit records (default 1M) driven through the durable engine —
# InsertBatch bulk with timed single inserts — while a background
# snapshotter streams captures concurrently and two mid-soak crash
# faults force full recoveries. Asserts the bounded-memory contract
# (heap high-water mark < 3.25 GiB under a runtime soft memory limit,
# keeping process RSS under 4 GB), the snapshot non-stall contract
# (single-insert p99 < 50 ms even while a snapshot streams), and
# bit-identical kill recovery; merges a "scale"
# section into BENCH_store.json / BENCH_stream.json.
SOAK_RECORDS ?= 1000000
soak:
	SOAK_RECORDS=$(SOAK_RECORDS) SOAK_STORE_OUT=$(CURDIR)/BENCH_store.json SOAK_STREAM_OUT=$(CURDIR)/BENCH_stream.json \
		$(GO) test -tags scale -run TestSoakScale -count=1 -timeout 60m -v ./internal/engine/

# soak-smoke is the CI tier of the same harness: 50k records, no report
# rewrite, gated against the recorded 50k scale entry in
# BENCH_store.json (fails on a >10% stall-p99 or heap-watermark
# regression).
soak-smoke:
	SOAK_RECORDS=50000 SOAK_GATE=$(CURDIR)/BENCH_store.json \
		$(GO) test -tags scale -run TestSoakScale -count=1 -timeout 20m -v ./internal/engine/

# docs-check verifies the documentation layer: formatting, vet, a
# package comment on every package, and resolvable relative links in
# the markdown docs.
docs-check: vet
	$(GO) run ./cmd/docscheck

clean:
	$(GO) clean ./...
