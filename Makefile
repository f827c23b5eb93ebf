# Tier-1 gate: every change must keep this green (see README.md
# "Testing" and ROADMAP.md). `make check` is what CI runs.

GO ?= go

.PHONY: check fmt-check vet build bench-vet unlinked cross test race fuzz bench-smoke bce-check smoke trace-overhead trace clean

check: fmt-check vet build bench-vet unlinked cross race fuzz bce-check bench-smoke smoke trace-overhead

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The bench module imports internal/* directly: vetting compiles it, so
# a deletion it depends on fails here rather than in the benchmark.
bench-vet:
	cd bench && $(GO) vet ./...

# Every function declared outside cmd/, examples/ and bench/ must be
# linked into a shipped binary or be allowlisted test support.
unlinked:
	sh scripts/unlinked.sh

# Portable path: internal/rng/mt's AVX2 assembly is amd64-only, so the
# pure-Go path is vetted and built for arm64 and 386 (no emulator needed).
cross:
	GOARCH=arm64 $(GO) vet ./internal/rng/mt
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native Go fuzzing, 5 s per target (seed corpora in testdata/fuzz/).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzWaitParam$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzResultCache$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTraceIDFrom$$' -fuzztime 5s ./internal/telemetry/flight
	$(GO) test -run '^$$' -fuzz '^FuzzCheckTraceJSON$$' -fuzztime 5s ./internal/telemetry/flight
	$(GO) test -run '^$$' -fuzz '^FuzzPoissonLane$$' -fuzztime 5s ./internal/creditrisk
	$(GO) test -run '^$$' -fuzz '^FuzzFinishLane$$' -fuzztime 5s ./internal/rng/gamma
	$(GO) test -run '^$$' -fuzz '^FuzzFillUint32$$' -fuzztime 5s ./internal/rng/mt

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

# Service and metrics smokes: Go tests that run the real decwi-served
# and decwi-gammagen main() as child processes on ephemeral ports
# (golden-digest replay, traceparent echo, /debug/jobs, /healthz,
# /metrics, /snapshot, SIGTERM drain during a coalesced flight, SLO
# degradation). -count=1 so a cached pass cannot stand in for a run.
smoke:
	$(GO) test -count=1 -run '^TestSmoke' ./cmd/decwi-served ./cmd/decwi-gammagen

# Tracing non-perturbation gate: cache-hot HTTP jobs/s with the flight
# recorder + SLO plane on must hold a median >= 0.90x the tracing-off
# rate over 40 short interleaved in-process pairs.
trace-overhead:
	$(GO) test -run '^TestTracingOverheadCacheHot$$' -count=1 -v ./internal/serve

# Smoke-test the tracing CLI (artifacts land in the working directory).
trace:
	$(GO) run ./cmd/decwi-trace -config 3

clean:
	rm -f decwi-trace.json
