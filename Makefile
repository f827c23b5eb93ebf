# Tier-1 gate: every change must keep this green (see README.md
# "Testing" and ROADMAP.md). `make check` is what CI runs.

GO ?= go

.PHONY: check fmt-check vet build test race fuzz bench bench-json bench-smoke bench-compare bench-compare-smoke bce-check metrics-smoke serve-smoke trace-overhead bench-serve bench-fastlane trace clean

check: fmt-check vet build race fuzz bce-check bench-smoke bench-compare-smoke metrics-smoke serve-smoke trace-overhead

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native Go fuzzing, 5 s per target (seed corpora in testdata/fuzz/).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzWaitParam$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTraceIDFrom$$' -fuzztime 5s ./internal/telemetry/flight
	$(GO) test -run '^$$' -fuzz '^FuzzCheckTraceJSON$$' -fuzztime 5s ./internal/telemetry/flight

# Telemetry overhead gate: telemetry-off must stay within noise of the
# pre-telemetry engine (nil-receiver hooks only).
bench:
	$(GO) test -bench BenchmarkGamma -benchtime 1x -run '^$$' .

# Machine-readable throughput baseline (BENCH_8.json at the repo root):
# engine MB/s and ns/value for Config1-4 on the block compute path, plus
# the parallel-scheduler and telemetry ablations.
bench-json:
	sh scripts/bench_json.sh

# Diff the committed baselines with per-benchmark % deltas
# (per-benchmark thresholds, default 5%).
bench-compare:
	sh scripts/bench_compare.sh BENCH_7.json BENCH_8.json

# The self-diff is deterministic and delta-free by construction, so the
# comparer itself can never silently rot.
bench-compare-smoke:
	sh scripts/bench_compare.sh BENCH_8.json BENCH_8.json

# Bounds-check-elimination gate: the marked kernel regions in the RNG
# packages must compile with zero IsInBounds/IsSliceInBounds checks
# (fresh GOCACHE, -gcflags=-d=ssa/check_bce).
bce-check:
	sh scripts/bce_check.sh

# One-iteration smoke run of the burst-stream, sharded-generation,
# compute-path and leaf-kernel benchmarks, so they can never silently
# rot.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkBatchedStream -benchtime 1x ./internal/hls
	$(GO) test -run '^$$' -bench BenchmarkGenerateParallel -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkBlockCompute -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkFillUint32 -benchtime 1x ./internal/rng/mt
	$(GO) test -run '^$$' -bench BenchmarkCycleBlock -benchtime 1x ./internal/rng/gamma
	$(GO) test -run '^$$' -bench BenchmarkHistogramRecord -benchtime 1x ./internal/telemetry

# Live metrics smoke: scrape a running decwi-gammagen -http server and
# validate the Prometheus exposition with the in-repo checker.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Service smoke: boot decwi-served, run a replay-determinism check and a
# risk batch through decwi-loadgen (with the per-phase breakdown),
# validate the live metrics plane and the /debug/jobs trace surface,
# render a job trace with decwi-trace -job, require a clean SIGTERM
# drain, and prove /healthz degrades under an injected slow executor.
serve-smoke:
	sh scripts/serve_smoke.sh

# Tracing non-perturbation gate: cache-hot throughput with the flight
# recorder + SLO plane on must hold ≥ 0.90x the tracing-off run.
trace-overhead:
	sh scripts/trace_overhead.sh

# Service latency/throughput baseline (BENCH_6.json at the repo root):
# p50/p99 job latency and saturation throughput across concurrency levels.
bench-serve:
	sh scripts/bench_serve.sh

# Serve fast-lane baseline (BENCH_9.json at the repo root): cache-cold
# vs cache-hot vs dedup-storm at concurrency 16; fails if the hot path
# is less than 5x the cold jobs/s.
bench-fastlane:
	sh scripts/bench_serve.sh BENCH_9.json fastlane

# Smoke-test the tracing CLI (artifacts land in the working directory).
trace:
	$(GO) run ./cmd/decwi-trace -config 3

clean:
	rm -f decwi-trace.json
