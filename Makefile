# Tier-1 gate: every change must keep this green (see README.md
# "Testing" and ROADMAP.md). `make check` is what CI runs.

GO ?= go

.PHONY: check fmt-check vet build test race fuzz bench-smoke bce-check metrics-smoke serve-smoke trace-overhead trace clean

check: fmt-check vet build race fuzz bce-check bench-smoke metrics-smoke serve-smoke trace-overhead

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

# Bounds-check-elimination gate: the marked kernel regions in the RNG
# packages must compile with zero IsInBounds/IsSliceInBounds checks
# (fresh GOCACHE, -gcflags=-d=ssa/check_bce).
bce-check:
	sh scripts/bce_check.sh

# One-iteration smoke run of the engine, burst-stream,
# sharded-generation, compute-path and leaf-kernel benchmarks, so they
# can never silently rot. Performance is measured by bench/run.sh.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkGamma -benchtime 1x .
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
# drain while a coalesced flight runs, and prove /healthz degrades
# under an injected slow executor.
serve-smoke:
	sh scripts/serve_smoke.sh

# Tracing non-perturbation gate: cache-hot HTTP jobs/s with the flight
# recorder + SLO plane on must hold a median >= 0.90x the tracing-off
# rate over 10 interleaved in-process pairs.
trace-overhead:
	$(GO) test -run '^TestTracingOverheadCacheHot$$' -count=1 -v ./internal/serve

# Smoke-test the tracing CLI (artifacts land in the working directory).
trace:
	$(GO) run ./cmd/decwi-trace -config 3

clean:
	rm -f decwi-trace.json
