#!/bin/sh
# Unlinked-code gate: every function declared outside cmd/, examples/
# and bench/ must be linked into at least one binary the project ships.
#
# It builds every cmd/*, every examples/* and the bench binary with
# -gcflags=all=-l (no inlining, so every function that is called keeps
# its own symbol), lists their text symbols with `go tool nm`, and
# compares them with the `func` declarations in the library packages'
# non-test files for this platform (`go list`'s GoFiles). A declared
# function that no binary links is either dead or reached only by
# tests: delete it, move it into a _test.go file, or, when tests in
# several packages share it, add it to the allowlist below with the
# reason.
#
# Usage: scripts/unlinked.sh
set -eu

cd "$(dirname "$0")/.."

# Allowed unlinked functions, one "<package>.<[Recv.]Name> <reason>" a line.
allow='
github.com/decwi/decwi/internal/telemetry/metricsrv.CheckExposition test support: the exposition validator of the metrics tests in the root package, cmd/decwi-served, cmd/decwi-gammagen, internal/serve and metricsrv
github.com/decwi/decwi/internal/telemetry/metricsrv.parseSample test support: the sample parser CheckExposition calls
github.com/decwi/decwi/internal/telemetry/metricsrv.CheckSnapshot test support: the /snapshot validator of the same tests
github.com/decwi/decwi/internal/telemetry/metricsrv.MangleName test support: the name-mangling rule the root package metrics lint checks
github.com/decwi/decwi/internal/rng.SplitMix64.Uint32 test support: the word-pattern fixture of the tests in the root package, internal/hls, internal/simt and internal/rng/normal
github.com/decwi/decwi/internal/rng/gamma.Generator.AdvanceStreams test support: the O(n) seek oracle of the jump tests in internal/rng/gamma and the gated oracle in internal/core
github.com/decwi/decwi/internal/rng/mt.Core.Offset test support: the word count the jump tests in internal/rng/mt and internal/rng/gamma and the Poisson lane tests in internal/creditrisk compare
'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mod="$(go list -m)"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

# Linked symbols, normalised to <package>.<[Recv.]Name>: generic shape
# arguments (which may hold spaces and nested brackets) are dropped, as
# are the pointer-receiver parentheses and the ABI suffix of assembly.
for b in "$tmp"/bin/*; do
    go tool nm "$b"
done | awk -v mod="$mod" '
    $2 != "T" && $2 != "t" { next }
    {
        s = $0
        sub(/^ *[0-9a-f]+ [Tt] /, "", s)
        if (index(s, mod) != 1) next
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "[") depth++
            else if (c == "]") depth--
            else if (depth == 0 && c != "(" && c != ")" && c != "*") out = out c
        }
        sub(/\.abi0$/, "", out)
        sub(/\.init\.[0-9]+$/, ".init", out)
        print out
    }' | sort -u >"$tmp/linked"

# Declared functions in the library packages' non-test files.
go list -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}
{{end}}{{end}}' ./... | while read -r pkg file; do
    awk -v pkg="$pkg" -v file="${file#"$PWD"/}" '
        /^func / {
            s = substr($0, 6); recv = ""
            if (substr(s, 1, 1) == "(") {
                r = substr(s, 2, index(s, ")") - 2)
                s = substr(s, index(s, ")") + 2)
                n = split(r, w, " "); recv = w[n]
                gsub(/\*/, "", recv); sub(/\[.*/, "", recv)
                recv = recv "."
            }
            match(s, /^[A-Za-z0-9_]+/)
            print pkg "." recv substr(s, 1, RLENGTH), file ":" NR
        }' "$file"
done | sort >"$tmp/declared"

echo "$allow" | awk 'NF { print $1 }' | sort -u >"$tmp/allowed"

# Declared, not linked, not allowed.
awk 'FILENAME == ARGV[1] { linked[$1] = 1; next }
     FILENAME == ARGV[2] { allowed[$1] = 1; next }
     !($1 in linked) && !($1 in allowed)' "$tmp/linked" "$tmp/allowed" "$tmp/declared" >"$tmp/unlinked"

# An allowlist entry that is linked, or no longer declared, is stale.
awk 'FILENAME == ARGV[1] { linked[$1] = 1; next }
     FILENAME == ARGV[2] { declared[$1] = 1; next }
     ($1 in linked) || !($1 in declared) { print $1 }' "$tmp/linked" "$tmp/declared" "$tmp/allowed" >"$tmp/stale"

status=0
if [ -s "$tmp/unlinked" ]; then
    echo "unlinked: $(wc -l <"$tmp/unlinked") declared functions are linked into no binary:" >&2
    cat "$tmp/unlinked" >&2
    status=1
fi
if [ -s "$tmp/stale" ]; then
    echo "unlinked: stale allowlist entries (linked, or no longer declared):" >&2
    cat "$tmp/stale" >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "unlinked: every declared function is linked (allowlist: $(wc -l <"$tmp/allowed"))"
exit "$status"
