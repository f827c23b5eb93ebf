#!/bin/sh
# Machine-readable benchmark baseline: runs the engine-throughput and
# compute-path benchmarks and writes BENCH_8.json at the repository root
# (MB/s and ns per generated float32 value for Config1-4 on the block
# compute path, plus the telemetry-overhead and sharding ablations —
# including the work-item-sharded parallel scheduler variants).
# Committed baselines let later PRs diff throughput without re-running
# the old tree; diff two baselines with scripts/bench_compare.sh.
# Usage: scripts/bench_json.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_8.json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkBlockCompute|BenchmarkEngineThroughput|BenchmarkGamma$|BenchmarkGenerateParallel' \
    -benchtime 2s -timeout 30m . >"$raw"
go test -run '^$' -bench 'BenchmarkBatchedStream' -benchtime 1s ./internal/hls >>"$raw"
# Jump-ahead latency (Jump(1e9) vs a billion sequential Advance calls)
# and the scrambled-fill overhead of substream decorrelation.
go test -run '^$' -bench 'BenchmarkJump|BenchmarkSequentialAdvance|BenchmarkScrambledFill' \
    -benchtime 1s -timeout 30m ./internal/rng/mt >>"$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos|^goarch|^pkg:/ { next }
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu); next }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; mbps = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "MB/s")  mbps = $i
    }
    if (ns == "") next
    n++
    line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (mbps != "") {
        # 4 bytes per float32 value: ns/value = 4000 / (MB/s as bytes/ns)
        line = line sprintf(", \"mb_per_s\": %s, \"ns_per_value\": %.2f", mbps, 4000 / mbps)
    }
    line = line "}"
    lines[n] = line
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
    printf "  ]\n}\n"
}' "$raw" >"$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmark entries)"
