#!/bin/sh
# Bounds-check-elimination gate for the hot kernels.
#
# The unrolled Go lane kernels (mt fillSeg / fill521, normal PolarFill /
# radii / ICDFFPGAFill, gamma candidateBlockDense / logTest /
# FinishBlock) are written in the len-pinned
# subslice idiom precisely so the compiler's prove pass can discharge every
# bounds check; a refactor that silently reintroduces one costs real
# single-core throughput. This script compiles the RNG packages with
# -gcflags=-d=ssa/check_bce — which prints one diagnostic per surviving
# IsInBounds/IsSliceInBounds — and fails if any diagnostic lands inside
# a marked region (lines between "// bce:begin <name>" and
# "// bce:end" in the kernel sources). Checks outside the marked
# regions (setup code, guarded tails, APIs with caller-shaped slices)
# are expected and ignored. The AVX2 assembly lanes of fillSeg and
# fill521 (internal/rng/mt/fill_amd64.s) are not Go and sit outside this
# gate; the Go lanes keep their markers, since they are the fallback
# off AVX2 and finish every fill's tail.
#
# Usage: scripts/bce_check.sh
set -eu

cd "$(dirname "$0")/.."

files="internal/rng/mt/mt.go internal/rng/normal/batch.go internal/rng/gamma/gamma.go"
pkgs="./internal/rng/mt ./internal/rng/normal ./internal/rng/gamma ./internal/rng/xmath"

cache="$(mktemp -d)"
diag="$(mktemp)"
regions="$(mktemp)"
trap 'rm -rf "$cache" "$diag" "$regions"' EXIT

# The check_bce diagnostics are emitted at compile time; a warm build
# cache skips compilation and the gate would pass vacuously. A throwaway
# GOCACHE forces a real compile of every package, every run.
GOCACHE="$cache" go build -gcflags='-d=ssa/check_bce' $pkgs 2>"$diag" || {
    cat "$diag" >&2
    echo "bce_check: compilation failed" >&2
    exit 1
}

# Collect the marked regions. Each region is "file begin end name";
# a begin without an end (or vice versa) is a marker bug and fails.
for f in $files; do
    [ -f "$f" ] || { echo "bce_check: $f not found" >&2; exit 1; }
    awk -v f="$f" '
        /\/\/ bce:begin/ {
            if (start) { printf "bce_check: %s:%d: nested bce:begin\n", f, FNR > "/dev/stderr"; exit 1 }
            start = FNR
            name = $0
            sub(/.*bce:begin[ \t]*/, "", name)
        }
        /\/\/ bce:end/ {
            if (!start) { printf "bce_check: %s:%d: bce:end without begin\n", f, FNR > "/dev/stderr"; exit 1 }
            printf "%s %d %d %s\n", f, start, FNR, name
            start = 0
        }
        END {
            if (start) { printf "bce_check: %s:%d: unterminated bce:begin\n", f, start > "/dev/stderr"; exit 1 }
        }
    ' "$f"
done >"$regions"

nregions="$(wc -l <"$regions" | tr -d ' ')"
if [ "$nregions" -lt 10 ]; then
    echo "bce_check: found only $nregions marked regions, expected at least 10" >&2
    echo "  (fillSeg + fill521 in mt.go, PolarFill x2 + radii + ICDFFPGAFill in batch.go," >&2
    echo "   FinishBlock x2 + logTest + candidateBlockDense in gamma.go)" >&2
    cat "$regions" >&2
    exit 1
fi

echo "bce_check: $nregions marked regions:"
while read -r f b e name; do
    printf '  %-28s %s:%s-%s\n' "$name" "$f" "$b" "$e"
done <"$regions"

# Cross-reference: any Found IsInBounds / IsSliceInBounds diagnostic
# whose file:line falls inside a marked region is a regression.
bad="$(awk -v regions="$regions" '
    BEGIN {
        n = 0
        while ((getline line < regions) > 0) {
            split(line, r, " ")
            n++
            rf[n] = r[1]; rb[n] = r[2]; re[n] = r[3]
        }
    }
    /Found (IsInBounds|IsSliceInBounds)/ {
        split($1, loc, ":")
        for (i = 1; i <= n; i++) {
            if (index(loc[1], rf[i]) && loc[2] + 0 >= rb[i] && loc[2] + 0 <= re[i]) {
                print $0
                break
            }
        }
    }
' "$diag")"

if [ -n "$bad" ]; then
    echo "bce_check: bounds checks survive inside marked kernel regions:" >&2
    echo "$bad" >&2
    exit 1
fi

total="$(grep -c 'Found \(IsInBounds\|IsSliceInBounds\)' "$diag" || true)"
echo "bce_check: OK — zero bounds checks in marked regions ($total elsewhere, outside kernels)"
