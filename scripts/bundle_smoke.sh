#!/usr/bin/env bash
# Debug-bundle smoke test for dynplaced (the CI bundle-smoke job; run
# locally with `make bundle-smoke`).
#
# Starts a real daemon under wall time, loads a web app and a batch
# job plus one impossible job (so the explanation stream carries a
# denial), downloads /v1/debug/bundle, and asserts:
#
#   1. the response is a gzip tarball with the advertised Content-Type
#      and a .tar.gz attachment filename;
#   2. the archive lists and unpacks cleanly and contains every
#      advertised member (explanations, cycle traces, exposition,
#      config, state, health, placement);
#   3. metrics.prom is a non-empty exposition naming dynplace_ series
#      and carrying the build-info gauge;
#   4. explanations.json records at least one cycle, with the denied
#      job diagnosed as memory-bound;
#   5. config.json identifies the build (version + Go runtime) and the
#      effective cycle length.
#
# The deterministic SimClock tests (internal/daemon) pin the bundle's
# exact member contract; this script proves the same path end to end on
# the real binary: build, serve, curl, untar.
set -euo pipefail

PORT="${PORT:-18232}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
DPID=""
trap '{ [ -n "${DPID:-}" ] && kill -9 "$DPID" 2>/dev/null; } || true; rm -rf "$WORK"' EXIT

say() { echo "bundle-smoke: $*"; }

go build -o "$WORK/dynplaced" ./cmd/dynplaced

"$WORK/dynplaced" -listen "127.0.0.1:$PORT" -cluster 2x3000/4096 \
  -cycle 1 -quiet >>"$WORK/daemon.log" 2>&1 &
DPID=$!

wait_healthy() {
  for _ in $(seq 1 50); do
    status=$(curl -sf "$BASE/v1/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])' 2>/dev/null || echo down)
    [ "$status" = ok ] && return 0
    sleep 0.2
  done
  say "daemon never became healthy (last status: $status)"
  cat "$WORK/daemon.log" >&2
  return 1
}

say "starting daemon on port $PORT"
wait_healthy

curl -sf -X POST "$BASE/v1/apps" -d '{"app":{"name":"shop","arrivalRate":20,
  "demandPerRequest":50,"goalResponseTime":0.25,"memoryMB":800}}' >/dev/null
curl -sf -X POST "$BASE/v1/jobs" -d '{"relative":true,"job":{"name":"etl",
  "workMcycles":9e6,"maxSpeedMHz":3000,"memoryMB":1000,"deadline":7200}}' >/dev/null
# An 8 GB job on 4 GB nodes: guaranteed memory-bound denial in the
# explanation stream.
curl -sf -X POST "$BASE/v1/jobs" -d '{"relative":true,"job":{"name":"hog",
  "workMcycles":9e6,"maxSpeedMHz":3000,"memoryMB":8192,"deadline":7200}}' >/dev/null

say "letting a few cycles run"
sleep 3

say "downloading /v1/debug/bundle"
HEADERS="$WORK/headers.txt"
curl -sf -D "$HEADERS" -o "$WORK/bundle.tar.gz" "$BASE/v1/debug/bundle"

grep -qi '^content-type: application/gzip' "$HEADERS" \
  || { say "FAIL: Content-Type is not application/gzip"; cat "$HEADERS"; exit 1; }
grep -qi '^content-disposition: .*\.tar\.gz' "$HEADERS" \
  || { say "FAIL: no .tar.gz attachment filename"; cat "$HEADERS"; exit 1; }

say "archive listing:"
tar -tzf "$WORK/bundle.tar.gz"
mkdir "$WORK/bundle"
tar -xzf "$WORK/bundle.tar.gz" -C "$WORK/bundle"

for member in explanations.json cycles.json metrics.prom config.json \
              state.json health.json placement.json; do
  [ -s "$WORK/bundle/$member" ] \
    || { say "FAIL: bundle member $member missing or empty"; exit 1; }
done
say "all advertised members present"

grep -q '^dynplace_cycles_total' "$WORK/bundle/metrics.prom" \
  || { say "FAIL: metrics.prom lacks dynplace_cycles_total"; exit 1; }
grep -q '^dynplace_build_info{' "$WORK/bundle/metrics.prom" \
  || { say "FAIL: metrics.prom lacks dynplace_build_info"; exit 1; }

python3 -c '
import json, sys
root = sys.argv[1]
with open(root + "/explanations.json") as f:
    ex = json.load(f)["explanations"]
assert ex, "no explanations recorded"
last = ex[-1]
assert last["cycle"] > 0, "cycle counter never advanced"
apps = {a["app"]: a for a in last["explanation"]["apps"]}
hog = apps["hog"]
assert hog["outcome"] == "denied", "hog outcome = %s" % hog["outcome"]
assert hog["binding"] == "memory", "hog binding = %s" % hog["binding"]
assert hog["reasons"][-1] == "binding constraint: memory", hog["reasons"]
with open(root + "/config.json") as f:
    cfg = json.load(f)
assert cfg["version"] and cfg["goVersion"], "config lacks build identity"
assert cfg["cycleSeconds"] == 1, "cycleSeconds = %r" % cfg["cycleSeconds"]
print("bundle-smoke: %d explanation(s); hog denied (memory) at cycle %d; build %s / %s"
      % (len(ex), last["cycle"], cfg["version"], cfg["goVersion"]))' "$WORK/bundle"

kill -TERM "$DPID"
wait "$DPID" || true
DPID=""
say "PASS"
