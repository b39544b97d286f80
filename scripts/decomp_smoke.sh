#!/usr/bin/env bash
# decomp-smoke: end-to-end check of cmd/decomp. Every technique must run
# on a small lp1 analog and print its inventory; an unknown technique and
# every out-of-range flag value must exit non-zero with a one-line
# "decomp:" error on stderr, never a panic.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
cleanup() {
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/decomp" ./cmd/decomp

for tech in bridge rand degk mpx multilevel; do
    if ! "$BIN/decomp" -technique "$tech" -scale 0.05 lp1 > "$BIN/out" 2> "$BIN/err"; then
        echo "decomp-smoke: -technique $tech failed:" >&2
        cat "$BIN/err" >&2
        exit 1
    fi
    if ! grep -q '^technique:' "$BIN/out"; then
        echo "decomp-smoke: -technique $tech printed no technique: line" >&2
        exit 1
    fi
done
echo "decomp-smoke: bridge, rand, degk, mpx and multilevel run"

while read -r args; do
    # shellcheck disable=SC2086 # args is a list of flags
    if "$BIN/decomp" $args -scale 0.05 lp1 > "$BIN/out" 2> "$BIN/err"; then
        echo "decomp-smoke: '$args' exited 0, want an error" >&2
        exit 1
    fi
    if grep -q 'panic:' "$BIN/err" || [ "$(grep -c '^decomp: ' "$BIN/err")" != 1 ]; then
        echo "decomp-smoke: '$args' did not fail with one decomp: line:" >&2
        cat "$BIN/err" >&2
        exit 1
    fi
done <<'EOF'
-technique labelprop
-technique rand -parts 0
-technique mpx -beta 0
-technique mpx -beta 1e-9
-technique mpx -beta NaN
-technique degk -k -1
-technique multilevel -parts 0
EOF
echo "decomp-smoke: bad techniques and flag values are rejected without a panic"
