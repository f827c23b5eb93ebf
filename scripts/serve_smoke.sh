#!/bin/sh
# Service smoke: boot decwi-served on ephemeral ports, drive it with
# decwi-loadgen (one generate replay-determinism check + a risk batch),
# validate its live /metrics exposition and /snapshot JSON with
# decwi-promcheck, then SIGTERM it while a coalesced flight is running
# and require a clean graceful drain (exit 0, both clients served). No
# curl/jq needed — the loadgen client is the harness.
set -eu

cd "$(dirname "$0")/.."

SERVE_TMP=$(mktemp -d)
SERVED_PID=""
CLIENT1=""
CLIENT2=""
cleanup() {
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true
    for pid in $CLIENT1 $CLIENT2; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$SERVE_TMP"
}
trap cleanup EXIT

go build -o "$SERVE_TMP/decwi-served" ./cmd/decwi-served
go build -o "$SERVE_TMP/decwi-loadgen" ./cmd/decwi-loadgen
go build -o "$SERVE_TMP/decwi-promcheck" ./cmd/decwi-promcheck
go build -o "$SERVE_TMP/decwi-trace" ./cmd/decwi-trace

"$SERVE_TMP/decwi-served" -addr 127.0.0.1:0 -http 127.0.0.1:0 \
    -executors 2 -drain-timeout 30s 2> "$SERVE_TMP/served.log" &
SERVED_PID=$!

# Both servers bind before jobs run and announce their resolved
# ephemeral addresses on stderr; poll the log until both appear.
API_URL=""
METRICS_URL=""
for _ in $(seq 1 100); do
    API_URL=$(sed -n 's#.*API on \(http://[^ ]*\) .*#\1#p' "$SERVE_TMP/served.log")
    METRICS_URL=$(sed -n 's#.*metrics on \(http://[^ ]*/metrics\).*#\1#p' "$SERVE_TMP/served.log")
    [ -n "$API_URL" ] && [ -n "$METRICS_URL" ] && break
    sleep 0.1
done
if [ -z "$API_URL" ] || [ -z "$METRICS_URL" ]; then
    echo "serve smoke: server addresses never appeared in served log" >&2
    cat "$SERVE_TMP/served.log" >&2
    exit 1
fi

# Replay determinism over the wire: the same (seed, config) tuple twice
# must return bitwise-identical payloads. With the result cache on by
# default, the second submission is also the cache-hit smoke — the
# snapshot assertion below requires the hit counter to have ticked.
"$SERVE_TMP/decwi-loadgen" -url "$API_URL" -replay -config 2 -scenarios 30000

# A small risk batch exercises the second workload end to end — with
# the per-phase breakdown on, which also verifies the server echoes the
# client-minted traceparent ids through the job status.
"$SERVE_TMP/decwi-loadgen" -url "$API_URL" -kind risk -requests 2 -concurrency 2 -scenarios 20000 -phases

# Observability surface: the flight recorder's /debug/jobs listing and
# every retained span tree must pass the strict schema/containment
# checks (monotone times, parent/child nesting), and the newest trace
# must render to a Chrome trace_event file.
"$SERVE_TMP/decwi-promcheck" -url "$API_URL/debug/jobs" -jobs -min-jobs 3
"$SERVE_TMP/decwi-trace" -job "$API_URL/debug/jobs" -trace "$SERVE_TMP/job-trace.json"
grep -q '"traceEvents"' "$SERVE_TMP/job-trace.json" || {
    echo "serve smoke: rendered job trace is not Chrome trace_event JSON" >&2
    exit 1
}

# Liveness while healthy: /healthz must answer exactly "ok".
HEALTHZ_URL=$(printf '%s' "$METRICS_URL" | sed 's#/metrics$#/healthz#')
"$SERVE_TMP/decwi-promcheck" -url "$HEALTHZ_URL" -healthz

# The serve.* instruments must be live on the same metrics plane the
# other CLIs use, and the /snapshot JSON must validate across scrapes.
# The replay above re-submitted one tuple, so serve.cache.hits ≥ 1 —
# a regression that silently disables the fast lane fails here.
"$SERVE_TMP/decwi-promcheck" -url "$METRICS_URL" \
    -min-counters 3 -min-gauges 2 -min-histograms 2
SNAPSHOT_URL=$(printf '%s' "$METRICS_URL" | sed 's#/metrics$#/snapshot#')
"$SERVE_TMP/decwi-promcheck" -url "$SNAPSHOT_URL" -snapshot \
    -min-counters 3 -min-gauges 2 -min-histograms 2 \
    -require-counter serve.cache.hits=1 -require-counter serve.cache.misses=1

# Graceful drain with a live coalesced flight: two clients submit the
# same ~1 s risk tuple, so one engine run carries both jobs. SIGTERM
# goes out only once the snapshot shows the second job coalesced onto
# the running flight. decwi-served must finish the flight, let both
# clients download their digest-checked payloads, and exit 0.
coalesce_client() {
    "$SERVE_TMP/decwi-loadgen" -url "$API_URL" -kind risk -same-seed -seed-base 77 \
        -requests 1 -concurrency 1 -scenarios 150000 > "$SERVE_TMP/client$1.log" 2>&1
}
coalesce_client 1 &
CLIENT1=$!
coalesce_client 2 &
CLIENT2=$!
coalesced=""
for _ in $(seq 1 200); do
    if "$SERVE_TMP/decwi-promcheck" -url "$SNAPSHOT_URL" -snapshot \
        -min-counters 0 -min-gauges 0 -min-histograms 0 \
        -require-counter serve.dedup.coalesced=1 > /dev/null 2>&1; then
        coalesced=1
        break
    fi
    sleep 0.02
done
kill -TERM "$SERVED_PID"
EXIT_CODE=0
wait "$SERVED_PID" || EXIT_CODE=$?
SERVED_PID=""
CLIENTS_OK=1
wait "$CLIENT1" || CLIENTS_OK=""
wait "$CLIENT2" || CLIENTS_OK=""
CLIENT1=""
CLIENT2=""
if [ -z "$CLIENTS_OK" ]; then
    echo "serve smoke: a client failed across the drain" >&2
    cat "$SERVE_TMP/client1.log" "$SERVE_TMP/client2.log" "$SERVE_TMP/served.log" >&2
    exit 1
fi
if [ -z "$coalesced" ]; then
    echo "serve smoke: the second client never coalesced onto the flight" >&2
    exit 1
fi
if [ "$EXIT_CODE" -ne 0 ]; then
    echo "serve smoke: decwi-served exited $EXIT_CODE after SIGTERM" >&2
    cat "$SERVE_TMP/served.log" >&2
    exit 1
fi
grep -q "drained, exiting" "$SERVE_TMP/served.log" || {
    echo "serve smoke: served log missing drain confirmation" >&2
    cat "$SERVE_TMP/served.log" >&2
    exit 1
}
# Both jobs must have gone terminal after the signal: the flight was
# live when the drain began.
after=$(sed -n '/signal received/,$p' "$SERVE_TMP/served.log" | grep -c '"msg":"job terminal"' || true)
if [ "$after" -ne 2 ]; then
    echo "serve smoke: $after jobs went terminal after SIGTERM, want the flight's 2" >&2
    cat "$SERVE_TMP/served.log" >&2
    exit 1
fi

# SLO degradation end to end: a fresh instance with an injected slow
# executor and a microscopic latency objective must flip /healthz to
# 503 "degraded: ..." after a few over-budget jobs burn both windows.
"$SERVE_TMP/decwi-served" -addr 127.0.0.1:0 -http 127.0.0.1:0 \
    -executors 2 -inject-exec-delay 20ms -slo-latency 1ms -cache-bytes 0 \
    2> "$SERVE_TMP/served-slow.log" &
SERVED_PID=$!
API_URL=""
METRICS_URL=""
for _ in $(seq 1 100); do
    API_URL=$(sed -n 's#.*API on \(http://[^ ]*\) .*#\1#p' "$SERVE_TMP/served-slow.log")
    METRICS_URL=$(sed -n 's#.*metrics on \(http://[^ ]*/metrics\).*#\1#p' "$SERVE_TMP/served-slow.log")
    [ -n "$API_URL" ] && [ -n "$METRICS_URL" ] && break
    sleep 0.1
done
if [ -z "$API_URL" ] || [ -z "$METRICS_URL" ]; then
    echo "serve smoke: slow-instance addresses never appeared" >&2
    cat "$SERVE_TMP/served-slow.log" >&2
    exit 1
fi
"$SERVE_TMP/decwi-loadgen" -url "$API_URL" -requests 4 -concurrency 2 -scenarios 20000
HEALTHZ_URL=$(printf '%s' "$METRICS_URL" | sed 's#/metrics$#/healthz#')
"$SERVE_TMP/decwi-promcheck" -url "$HEALTHZ_URL" -healthz -expect-degraded
kill -TERM "$SERVED_PID"
wait "$SERVED_PID" || {
    echo "serve smoke: slow instance failed to drain cleanly" >&2
    cat "$SERVE_TMP/served-slow.log" >&2
    exit 1
}
SERVED_PID=""

echo "serve smoke: OK"
