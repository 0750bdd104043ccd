#!/usr/bin/env bash
# Restart-recovery smoke test for dynplaced (the CI restart-recovery
# job; run locally with `make recovery-smoke`).
#
# Starts a durable daemon with a temp state dir, loads a web app, batch
# jobs and an extra node, kills the process with SIGKILL, restarts it
# from the same state dir, and asserts:
#
#   1. the stable placement projection (app instance placements, job
#      set, node set+states) matches the pre-kill capture;
#   2. /v1/state shows exactly one restart with replayed WAL records;
#   3. no job was lost and completed work did not regress;
#   4. a SIGTERM shutdown flushes a final snapshot and exits 0.
#
# The byte-exact /v1/placement equality is pinned by the deterministic
# SimClock tests (internal/daemon, internal/experiments); this script
# proves the same path end to end on the real binary under wall time,
# so it compares the projection that is stable across an extra cycle.
set -euo pipefail

PORT="${PORT:-18231}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
DPID=""
trap '{ [ -n "${DPID:-}" ] && kill -9 "$DPID" 2>/dev/null; } || true; rm -rf "$WORK"' EXIT

say() { echo "recovery-smoke: $*"; }

go build -o "$WORK/dynplaced" ./cmd/dynplaced

start_daemon() {
  "$WORK/dynplaced" -listen "127.0.0.1:$PORT" -cluster 3x3000/4096 \
    -cycle 1 -state-dir "$WORK/state" -snapshot-every 5 -quiet \
    >>"$WORK/daemon.log" 2>&1 &
  DPID=$!
}

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

# Stable projection of /v1/placement: what must survive a restart even if
# an extra control cycle runs between capture and comparison.
project() {
  curl -sf "$BASE/v1/placement" | python3 -c '
import json, sys
p = json.load(sys.stdin)
print(json.dumps({
    "web": sorted((w["name"], sorted(i["node"] for i in w["instances"])) for w in p["web"]),
    "jobs": sorted(j["name"] for j in p["jobs"]),
    "nodes": sorted((n["name"], n["state"]) for n in p["nodes"]),
}, sort_keys=True))'
}

total_done() {
  curl -sf "$BASE/v1/placement" | python3 -c \
    'import json,sys; print(sum(j["doneMcycles"] for j in json.load(sys.stdin)["jobs"]))'
}

say "starting durable daemon on port $PORT"
start_daemon
wait_healthy

curl -sf -X POST "$BASE/v1/apps" -d '{"app":{"name":"shop","arrivalRate":20,
  "demandPerRequest":50,"goalResponseTime":0.25,"memoryMB":800}}' >/dev/null
for j in etl report; do
  curl -sf -X POST "$BASE/v1/jobs" -d '{"relative":true,"job":{"name":"'$j'",
    "workMcycles":9e6,"maxSpeedMHz":3000,"memoryMB":1000,"deadline":7200}}' >/dev/null
done
curl -sf -X POST "$BASE/v1/nodes" -d '{"name":"spare","cpuMHz":2500,"memMB":2048}' >/dev/null

say "letting cycles run (action costs delay first progress)"
sleep 6
PRE="$(project)"
PRE_DONE="$(total_done)"

say "kill -9"
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true

say "restarting from $WORK/state"
start_daemon
wait_healthy
POST="$(project)"
POST_DONE="$(total_done)"

if [ "$PRE" != "$POST" ]; then
  say "FAIL: placement diverged across kill -9"
  echo "pre:  $PRE"
  echo "post: $POST"
  exit 1
fi
say "placement projection intact"

curl -sf "$BASE/v1/state" | python3 -c '
import json, sys
s = json.load(sys.stdin)
restarts, replayed = s["restarts"], s["replayedRecords"]
assert s["enabled"], "durability disabled"
assert restarts == 1, "restarts = %d" % restarts
assert replayed > 0, "nothing replayed"
print("recovery-smoke: restarts=%d replayed=%d replay=%.4fs"
      % (restarts, replayed, s["replayDurationSeconds"]))'

python3 -c "
pre, post = float('$PRE_DONE'), float('$POST_DONE')
assert post >= pre, f'completed work regressed: {post} < {pre}'
print(f'recovery-smoke: completed work preserved ({pre:.0f} -> {post:.0f} Mcycles)')"

say "graceful SIGTERM"
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?   # capture under set -e so the FAIL branch stays reachable
if [ "$rc" -ne 0 ]; then
  say "FAIL: SIGTERM exit code $rc"
  exit 1
fi
grep -q "state flushed" "$WORK/daemon.log" || { say "FAIL: no final snapshot logged"; exit 1; }
say "PASS"
