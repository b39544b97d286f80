#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving layer. Boots the symbreak
# daemon with a small generated corpus, drives it with symload for a few
# seconds at low QPS, verifies that symbreak_serve_requests_total and the
# scrape-time symbreak_serve_runs_total moved on /metrics and that the
# runtime gauges are exposed, and shuts the daemon down gracefully
# (SIGTERM + drain).
# symload itself fails the run on any status other than 200 or the
# intentional overload signals 429/503.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-19917}"
ADDR="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/symbreak" ./cmd/symbreak
go build -o "$BIN/symload" ./cmd/symload

"$BIN/symbreak" -serve "127.0.0.1:${PORT}" -corpus lp1,c-73 -corpus-scale 0.1 &
DAEMON_PID=$!

for _ in $(seq 1 50); do
    curl -fsS "${ADDR}/healthz" >/dev/null 2>&1 && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "serve-smoke: daemon exited before becoming healthy" >&2
        exit 1
    fi
    sleep 0.2
done
curl -fsS "${ADDR}/healthz" >/dev/null

"$BIN/symload" -addr "$ADDR" -qps 25 -duration 3s -seeds 4

METRICS="$(curl -fsS "${ADDR}/metrics")"
REQS="$(awk '$1 ~ /^symbreak_serve_requests_total/ { sum += $2 } END { printf "%d", sum }' <<<"$METRICS")"
if [ "$REQS" -lt 1 ]; then
    echo "serve-smoke: symbreak_serve_requests_total did not move (got ${REQS})" >&2
    exit 1
fi
# The Service's own counts and the runtime gauges are read at scrape time;
# a daemon that does not register them fails here.
RUNS="$(awk '$1 == "symbreak_serve_runs_total" { printf "%d", $2 }' <<<"$METRICS")"
if [ "${RUNS:-0}" -lt 1 ]; then
    echo "serve-smoke: symbreak_serve_runs_total did not move (got ${RUNS:-none})" >&2
    exit 1
fi
if ! grep -q '^go_gc_cycles_total ' <<<"$METRICS"; then
    echo "serve-smoke: /metrics has no go_gc_cycles_total sample" >&2
    exit 1
fi
echo "serve-smoke: ${REQS} requests served, ${RUNS} solver runs"

# The flight recorder must have recorded the symload traffic, and its
# detail + Chrome-trace views must serve. Dump all three into
# SERVE_SMOKE_ARTIFACTS (if set) so CI keeps an inspectable trace.
ART="${SERVE_SMOKE_ARTIFACTS:-$BIN/flight}"
mkdir -p "$ART"
curl -fsS "${ADDR}/debug/requests" > "$ART/requests.json"
if ! grep -q '"id":"' "$ART/requests.json"; then
    echo "serve-smoke: /debug/requests is empty after load" >&2
    exit 1
fi
# Pick a miss (a request that ran the solver): those carry span trees,
# so the Chrome export below has something to render. Field order in a
# record is id, …, cache, with no nested braces between the two.
REQ_ID="$(grep -o '"id":"[0-9a-f]*"[^{}]*"cache":"miss"' "$ART/requests.json" \
    | head -n 1 | sed 's/^"id":"\([0-9a-f]*\)".*/\1/')"
if [ -z "$REQ_ID" ]; then
    echo "serve-smoke: no cache-miss record in /debug/requests" >&2
    exit 1
fi
curl -fsS "${ADDR}/debug/requests/${REQ_ID}" > "$ART/request-${REQ_ID}.json"
grep -q '"phases"' "$ART/request-${REQ_ID}.json" || {
    echo "serve-smoke: request detail for ${REQ_ID} has no phases" >&2
    exit 1
}
curl -fsS "${ADDR}/debug/requests/${REQ_ID}?format=chrome" > "$ART/request-${REQ_ID}.chrome.json"
grep -q '"traceEvents"' "$ART/request-${REQ_ID}.chrome.json" || {
    echo "serve-smoke: chrome export for ${REQ_ID} is malformed" >&2
    exit 1
}
echo "serve-smoke: flight recorder populated (request ${REQ_ID}; artifacts in ${ART})"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
echo "serve-smoke: daemon drained cleanly"
