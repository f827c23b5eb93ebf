#!/bin/sh
# Tier-1 gate (same steps as `make check`): vet, build, race-enabled
# tests. Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

# Formatting gate: every tracked Go file must be gofmt-clean.
echo "== gofmt -l"
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# The bench module (bench/, its own go.mod) imports internal/* directly,
# so deleting something it uses would pass every step above and still
# break the benchmark. Vetting it compiles it and its tests. (Its tests
# are not run here: they assert per-layer figures, see ROADMAP.md.)
echo "== bench module vet (cd bench && go vet ./...)"
(cd bench && go vet ./...)

# Unlinked-code gate: every function declared outside cmd/, examples/
# and bench/ must be linked into a shipped binary, or be named on the
# script's allowlist of cross-package test support.
echo "== unlinked functions (scripts/unlinked.sh)"
sh scripts/unlinked.sh

echo "== go test -race ./..."
go test -race ./...

# Portable path: internal/rng/mt carries AVX2 assembly for amd64 and a
# pure-Go stub elsewhere. Vetting and building for arm64 and 386 proves,
# without an emulator, that the non-assembly path always compiles.
echo "== cross-build the portable path (GOARCH=arm64 vet, GOARCH=arm64 and 386 build)"
GOARCH=arm64 go vet ./internal/rng/mt
GOARCH=arm64 go build ./...
GOARCH=386 go build ./...

# Bounds-check-elimination gate: the marked Go lane kernels (mt fillSeg /
# fill521, normal PolarFill / radii / ICDFFPGAFill, gamma
# candidateBlockDense / logTest / FinishBlock) must compile
# with zero surviving IsInBounds/IsSliceInBounds checks — the fused
# pipe's single-core throughput depends on it. The AVX2 assembly lanes
# of fillSeg and fill521 (internal/rng/mt/fill_amd64.s) have no bounds
# checks to eliminate and sit outside the gate; the Go lanes beside
# them, the fallback and the tail, stay checked.
echo "== bounds-check elimination in marked kernel regions"
sh scripts/bce_check.sh

# Block compute equivalence under the race detector: the block path
# shares sync.Pool scratch across work-item goroutines, so its
# bitwise-equivalence proof against the gated scalar oracle must also
# hold with full synchronization checking (already part of the tree-wide -race run above, but named
# here so a narrowed test filter can never drop it).
echo "== block-compute equivalence under -race"
go test -race -run 'TestBlockCompute|TestBlockComputeQuotaSweep|TestCycleBlock|TestFillUint32|TestPropertyFillInterleaving' \
    ./internal/core ./internal/rng/gamma ./internal/rng/mt

# Fused-pipe equivalence under the race detector: the fused transport
# writes candidate blocks straight into the shared device buffer, and
# the gamma→loss pipe batches the creditrisk sector draws, so their
# bitwise-equivalence proofs (streamed Run vs fused RunChunk, the
# SimulateMC pipe against its golden digests) must also hold with full
# synchronization checking.
echo "== fused-pipe & gamma→loss pipe equivalence under -race"
go test -race -count=1 \
    -run 'TestFused|TestPropertyFused|TestSimulateMCPipeEquivalence|TestPipe|TestPipeQuotaSweep|TestConsumeBlock' \
    ./internal/core ./internal/creditrisk ./internal/rng/gamma

# Serve admission lanes under the race detector: cache semantics
# (eviction, per-tenant accounting, hit-after-evict, frequency-gated
# admission and its refused-but-answered flight), singleflight
# lifecycle (coalesce, waiter-cancel survival, last-waiter abort), the
# replay-tuple index's failure paths (abandoned flight, panic in a
# coalesced flight, completion race, drain with a live flight, each
# leak- and index-checked), settled-only Remove, digest-at-completion
# stability, the shared stored payload, a client disconnecting
# mid-download and an eviction during a download (each leak- and
# digest-checked), and the cached-vs-fresh byte
# equality of the HTTP replay and golden-digest tests. Named so a
# narrowed filter can never drop the determinism-safety proof the
# cache's correctness rests on.
echo "== serve admission lanes (cache hit, coalesce, queue) under -race"
go test -race -count=1 \
    -run 'TestResultCache|TestSchedulerCache|TestSchedulerSingleflight|TestIndexAbandonedFlight|TestIndexCoalescedPanic|TestIndexCompletionRace|TestIndexDrainCoalescedFlight|TestSchedulerRemoveUnsettled|TestResultDigest|TestPayloadSharesStoredBytes|TestServerClientDisconnectMidResult|TestServerEvictionDuringDownload|TestServerReplayDeterminism|TestServerResultDigestStability|TestServerGoldenDigests' \
    ./internal/serve

# Observability correctness under the race detector: flight-recorder
# ring wrap and slow/failed-job pinning under churn, per-lane span
# trees over HTTP, concurrent Submit vs /debug/jobs reads, the SLO
# burn-rate plane (degradation + recovery), the chunk-span hook in
# the parallel scheduler, the run trace's span budget and concurrent
# recording, decwi-trace's kernel mode (-config 3 -parallel
# -cosim-quota 256: a valid run trace, one Chrome process per clock,
# one span per chunk) and its -job mode against a live /debug/jobs
# listing; and the add-only counters: one name has one kind in the
# registry, the engine's cycle counters add up over two runs on one
# recorder, and no counter moves back between scrapes of a scheduler
# running jobs of different sizes; and decwi-trace's stall report ranks
# the co-simulation's cycle groups against its own clock, so their
# shares do not move when -parallel adds an engine pass. Named so a
# narrowed filter can never drop the tracing plane's consistency proofs.
echo "== job tracing, flight recorder, run trace, add-only counters & SLO plane under -race"
go test -race -count=1 \
    -run 'TestFlight|TestTrace|TestChrome|TestCheck|TestSLO|TestDebugJobs|TestTracing|TestGenerateParallelChunkSpans|TestGenerateParallelTelemetry|TestHealthAndSLOHooks|TestRunTraceBudget|TestConcurrentEmit|TestKernelModeTrace|TestJobModeTrace|TestRegistryOneKindPerName|TestTelemetryBlockCounters|TestSchedulerScrapeCountersOnlyAdd|TestStallReportSharesStableUnderParallel' \
    ./internal/telemetry ./internal/telemetry/flight ./internal/telemetry/slo \
    ./internal/telemetry/metricsrv ./internal/serve ./internal/core ./cmd/decwi-trace .

# Jump-ahead correctness under the race detector: the property suite
# (Jump(a+b) == Jump(a);Jump(b), Jump ≡ n×Advance, golden vectors, the
# independent F2 transition-matrix oracle for MT521) plus
# checkpoint/resume and the stream-offset equivalences. Named so a
# narrowed filter can never drop the stream seek's bitwise-exactness
# proof.
echo "== jump-ahead & stream-offset equivalence under -race"
go test -race -count=1 \
    -run 'TestJump|TestOffset|TestCheckpointResume|TestStreamOffset' \
    ./internal/rng/mt ./internal/rng/gamma ./internal/core

# Allocation gates (meaningful only without -race, whose instrumentation
# allocates): the steady-state block loops must not allocate at all, and
# neither may a histogram Record on the telemetry hot path.
echo "== zero-allocation gates (steady-state block loops, histogram Record)"
go test -run 'TestSteadyStateBlockZeroAllocs|TestFillUint32ZeroAlloc|TestFillNormalZeroAlloc' \
    ./internal/rng/gamma ./internal/rng/mt ./internal/rng/normal
go test -run 'TestHistogramRecordZeroAlloc' ./internal/telemetry

# Native Go fuzzing, 5 s per target: strict JobSpec decode + Validate
# (no panic; an accepted spec keeps a stable cache key that scheduling
# and accounting fields cannot move), the ?wait= long-poll parameter
# (200 or 400 with a JSON body, no panic), the result cache under
# random lookup/lead/release/put sequences (byte accounting, tenant and
# global caps, a refused put changes nothing, the LRU holds exactly the
# result entries), traceparent parsing (the id
# is "" or 32 lowercase hex), the /debug/jobs/{id} validator (no
# panic), the CreditRisk+ Poisson lane (same counts and stream
# position as the one-word Knuth oracle), the certified finish lane
# (FinishBlock equals Finish bit for bit) and the twister fills (any
# start index and run of fill lengths gives the one-word Uint32
# stream, on the AVX2 kernels and on the Go lanes). The committed seed
# corpora under testdata/fuzz/ also run as plain tests in every go test.
echo "== fuzz (FuzzJobSpec, FuzzWaitParam, FuzzResultCache, FuzzTraceIDFrom, FuzzCheckTraceJSON, FuzzPoissonLane, FuzzFinishLane, FuzzFillUint32; 5s each)"
go test -run '^$' -fuzz '^FuzzJobSpec$' -fuzztime 5s ./internal/serve
go test -run '^$' -fuzz '^FuzzWaitParam$' -fuzztime 5s ./internal/serve
go test -run '^$' -fuzz '^FuzzResultCache$' -fuzztime 5s ./internal/serve
go test -run '^$' -fuzz '^FuzzTraceIDFrom$' -fuzztime 5s ./internal/telemetry/flight
go test -run '^$' -fuzz '^FuzzCheckTraceJSON$' -fuzztime 5s ./internal/telemetry/flight
go test -run '^$' -fuzz '^FuzzPoissonLane$' -fuzztime 5s ./internal/creditrisk
go test -run '^$' -fuzz '^FuzzFinishLane$' -fuzztime 5s ./internal/rng/gamma
go test -run '^$' -fuzz '^FuzzFillUint32$' -fuzztime 5s ./internal/rng/mt

# Parallel-equivalence suite under both a single-core and a multicore
# scheduler: GOMAXPROCS=1 exercises the sequential claim order,
# GOMAXPROCS=4 multiplexes the work-stealing cursor so the race
# detector sees real chunk-claim interleavings. Both must reproduce
# the sequential bytes (the GenerateParallel == Generate contract) and
# the committed golden digests.
echo "== parallel equivalence & golden digests under GOMAXPROCS=1 and GOMAXPROCS=4 (-race)"
GOMAXPROCS=1 go test -race -count=1 \
    -run 'TestGenerateParallel|TestRunChunk|TestNormalize|TestGolden' . ./internal/core
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestGenerateParallel|TestRunChunk|TestNormalize|TestGolden' . ./internal/core

# Pinned seek window through the CLI: the same (seed, offset) window
# generated on a single-core and a multicore scheduler, with and without
# -parallel, must be byte-identical, and must equal the SHA-256 recorded
# when the O(n) word-by-word seek still existed beside the O(log n) jump
# and both produced these bytes. This is the end-to-end form of the
# Jump ≡ n×Advance proof, pinned against history.
echo "== gammagen pinned seek window (offset 4099, GOMAXPROCS 1 and 4, with and without -parallel)"
seekwant=d3d09875e67783f74dce0de5e0705ba34ee50cf1ce000fd32c83fff41995fbb5
seekdir="$(mktemp -d)"
trap 'rm -rf "$seekdir"' EXIT
go build -o "$seekdir/gammagen" ./cmd/decwi-gammagen
for procs in 1 4; do
    for par in false true; do
        GOMAXPROCS=$procs "$seekdir/gammagen" -config 2 -n 200000 -seed 7 -offset 4099 -parallel=$par \
            -validate=false -out "$seekdir/window.$procs.$par.bin"
        cmp "$seekdir/window.1.false.bin" "$seekdir/window.$procs.$par.bin"
    done
done
seekgot="$(sha256sum "$seekdir/window.1.false.bin" | cut -d' ' -f1)"
if [ "$seekgot" != "$seekwant" ]; then
    echo "gammagen offset-4099 window sha256 $seekgot, pinned $seekwant" >&2
    exit 1
fi

# Benchmark smoke run: one iteration each, so the engine, burst-stream,
# sharded-generation, compute-path and leaf-kernel benchmarks can never
# silently rot. Performance is measured by bench/run.sh.
echo "== bench smoke (BenchmarkGamma, BenchmarkBatchedStream, BenchmarkGenerateParallel, BenchmarkBlockCompute, BenchmarkFillUint32, BenchmarkCycleBlock, BenchmarkHistogramRecord)"
go test -run '^$' -bench BenchmarkGamma -benchtime 1x .
go test -run '^$' -bench BenchmarkBatchedStream -benchtime 1x ./internal/hls
go test -run '^$' -bench BenchmarkGenerateParallel -benchtime 1x .
go test -run '^$' -bench BenchmarkBlockCompute -benchtime 1x .
go test -run '^$' -bench BenchmarkFillUint32 -benchtime 1x ./internal/rng/mt
go test -run '^$' -bench BenchmarkCycleBlock -benchtime 1x ./internal/rng/gamma
go test -run '^$' -bench BenchmarkHistogramRecord -benchtime 1x ./internal/telemetry

# Service and metrics smokes: the real decwi-served and decwi-gammagen
# main() run as child processes of their test binaries on ephemeral
# ports. They pin HTTP replay to the committed golden digests (fresh
# and cache-hit), check the traceparent echo, the /debug/jobs span
# trees, /healthz, the /metrics exposition and /snapshot, require a
# clean SIGTERM drain while a coalesced flight runs (both clients get
# their results), and prove /healthz degrades under an injected slow
# executor. -count=1 so a cached pass cannot stand in for the run.
echo "== service and metrics smoke (TestSmoke* in cmd/decwi-served and cmd/decwi-gammagen)"
go test -count=1 -run '^TestSmoke' ./cmd/decwi-served ./cmd/decwi-gammagen

# Tracing non-perturbation: cache-hot HTTP jobs/s with the flight
# recorder and SLO plane on must hold a median >= 0.90x the tracing-off
# rate over 40 short interleaved in-process pairs (the test skips itself
# under -race, so it runs here by name).
echo "== tracing-overhead gate (flight recorder on vs off, cache-hot, interleaved)"
go test -run '^TestTracingOverheadCacheHot$' -count=1 -v ./internal/serve

echo "tier-1 gate: OK"
