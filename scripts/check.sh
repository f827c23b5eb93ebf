#!/bin/sh
# Tier-1 gate (same steps as `make check`): vet, build, race-enabled
# tests. Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# Bounds-check-elimination gate: the marked lane kernels (mt fillSeg /
# fill521, normal ICDFFPGAFill, gamma candidateBlockDense) must compile
# with zero surviving IsInBounds/IsSliceInBounds checks — the fused
# pipe's single-core throughput depends on it.
echo "== bounds-check elimination in marked kernel regions"
sh scripts/bce_check.sh

# Block/gated compute equivalence under the race detector: the block
# path shares sync.Pool scratch across work-item goroutines, so its
# bitwise-equivalence proof must also hold with full synchronization
# checking (already part of the tree-wide -race run above, but named
# here so a narrowed test filter can never drop it).
echo "== block-compute equivalence under -race"
go test -race -run 'TestBlockCompute|TestBlockComputeQuotaSweep|TestCycleBlock|TestFillUint32|TestPropertyFillInterleaving' \
    ./internal/core ./internal/rng/gamma ./internal/rng/mt

# Fused-pipe equivalence under the race detector: the fused transport
# writes candidate blocks straight into the shared device buffer, and
# the gamma→loss pipe batches the creditrisk sector draws, so their
# bitwise-equivalence proofs (streamed vs fused Run, gated vs piped
# SimulateMC, lane block phase vs gated walk) must also hold with full
# synchronization checking.
echo "== fused-pipe & gamma→loss pipe equivalence under -race"
go test -race -count=1 \
    -run 'TestFused|TestPropertyFused|TestRunItemPartBlockEquivalence|TestRunItemPartQuotaSweep|TestSimulateMCPipeEquivalence|TestPipe|TestPipeQuotaSweep|TestConsumeBlock' \
    ./internal/core ./internal/creditrisk ./internal/rng/gamma

# Serve fast-lane correctness under the race detector: cache semantics
# (eviction, per-tenant accounting, hit-after-evict), singleflight
# lifecycle (coalesce, waiter-cancel survival, last-waiter abort),
# fast-path admission, digest-at-completion stability, and the
# cached-vs-fresh byte equality of the HTTP replay tests. Named so a
# narrowed filter can never drop the determinism-safety proof the
# cache's correctness rests on.
echo "== serve fast lane (cache, singleflight, fast path) under -race"
go test -race -count=1 \
    -run 'TestResultCache|TestSchedulerCache|TestSchedulerSingleflight|TestSchedulerFastPath|TestResultDigest|TestServerReplayDeterminism|TestServerResultDigestStability' \
    ./internal/serve

# Observability correctness under the race detector: flight-recorder
# ring wrap and slow/failed-job pinning under churn, per-lane span
# trees over HTTP, concurrent Submit vs /debug/jobs reads, the SLO
# burn-rate plane (degradation + recovery), and the chunk-span hook in
# the parallel scheduler. Named so a narrowed filter can never drop
# the tracing plane's consistency proofs.
echo "== job tracing, flight recorder & SLO plane under -race"
go test -race -count=1 \
    -run 'TestFlight|TestTrace|TestChrome|TestCheck|TestSLO|TestDebugJobs|TestTracing|TestGenerateParallelChunkSpans|TestHealthAndSLOHooks' \
    ./internal/telemetry/flight ./internal/telemetry/slo \
    ./internal/telemetry/metricsrv ./internal/serve .

# Jump-ahead correctness under the race detector: the property suite
# (Jump(a+b) == Jump(a);Jump(b), Jump ≡ n×Advance, golden vectors) plus
# the stream-seek and substream equivalences. Named so a narrowed filter
# can never drop the tentpole's bitwise-exactness proof.
echo "== jump-ahead & substream equivalence under -race"
go test -race -count=1 \
    -run 'TestJump|TestOffset|TestCheckpoint|TestDecorrelate|TestStreamOffset|TestRunItemPart|TestSubstream' \
    ./internal/rng/mt ./internal/rng ./internal/rng/gamma ./internal/core

# Allocation gates (meaningful only without -race, whose instrumentation
# allocates): the steady-state block loops must not allocate at all, and
# neither may a histogram Record on the telemetry hot path.
echo "== zero-allocation gates (steady-state block loops, histogram Record)"
go test -run 'TestSteadyStateBlockZeroAllocs|TestFillUint32ZeroAlloc|TestFillNormalZeroAlloc' \
    ./internal/rng/gamma ./internal/rng/mt ./internal/rng/normal
go test -run 'TestHistogramRecordZeroAlloc' ./internal/telemetry

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

# Jump-vs-sequential seek smoke through the CLI: the same (seed, offset)
# window generated with the O(log n) jump and with the O(n) word-by-word
# walk must be byte-identical, on a single-core and a multicore
# scheduler. This is the end-to-end form of the Jump ≡ n×Advance proof.
echo "== gammagen jump-vs-sequential seek equivalence (offset 4099, GOMAXPROCS 1 and 4)"
seekdir="$(mktemp -d)"
trap 'rm -rf "$seekdir"' EXIT
go build -o "$seekdir/gammagen" ./cmd/decwi-gammagen
for procs in 1 4; do
    GOMAXPROCS=$procs "$seekdir/gammagen" -config 2 -n 200000 -seed 7 -offset 4099 \
        -validate=false -out "$seekdir/jump.$procs.bin"
    GOMAXPROCS=$procs "$seekdir/gammagen" -config 2 -n 200000 -seed 7 -offset 4099 -jump=false \
        -validate=false -out "$seekdir/seq.$procs.bin"
    cmp "$seekdir/jump.$procs.bin" "$seekdir/seq.$procs.bin"
done
cmp "$seekdir/jump.1.bin" "$seekdir/jump.4.bin"

# Benchmark smoke run: one iteration each, so the burst-transport,
# sharded-generation and compute-path benchmarks can never silently rot.
echo "== bench smoke (BenchmarkBatchedStream, BenchmarkGenerateParallel, BenchmarkBlockCompute, BenchmarkHistogramRecord)"
go test -run '^$' -bench BenchmarkBatchedStream -benchtime 1x ./internal/hls
go test -run '^$' -bench BenchmarkGenerateParallel -benchtime 1x .
go test -run '^$' -bench BenchmarkBlockCompute -benchtime 1x .
go test -run '^$' -bench BenchmarkHistogramRecord -benchtime 1x ./internal/telemetry

# Live metrics smoke: scrape a running decwi-gammagen -http server and
# validate the exposition with the in-repo checker.
echo "== live metrics smoke (decwi-gammagen -http + decwi-promcheck)"
sh scripts/metrics_smoke.sh

# Service smoke: boot decwi-served on ephemeral ports, prove replay
# determinism over HTTP, run a risk batch with the per-phase breakdown,
# validate the live metrics plane and the /debug/jobs trace surface,
# render a job trace to Chrome trace_event form, require a clean
# SIGTERM drain, and prove /healthz degrades under an injected slow
# executor.
echo "== service smoke (decwi-served + decwi-loadgen + decwi-promcheck + decwi-trace)"
sh scripts/serve_smoke.sh

# Tracing non-perturbation: the cache-hot fast lane with the flight
# recorder and SLO plane on must hold ≥ 0.90x the tracing-off
# throughput (TRACE_OVERHEAD_MIN_RATIO overrides).
echo "== tracing-overhead gate (flight recorder on vs off, cache-hot lane)"
sh scripts/trace_overhead.sh

# Baseline-diff smoke: the self-compare must always be delta-free and
# must satisfy the static substreams-vs-sharded bound, so the comparer
# itself can never silently rot; the BENCH_7 -> BENCH_8 cross-PR diff
# is informational (different machines, different trees).
echo "== bench_compare smoke (self-diff + informational cross-baseline diff)"
sh scripts/bench_compare.sh BENCH_8.json BENCH_8.json
BENCH_COMPARE_WARN_ONLY=1 sh scripts/bench_compare.sh BENCH_7.json BENCH_8.json

echo "tier-1 gate: OK"
