#!/usr/bin/env bash
# Restart-recovery smoke test for dynplaced (the CI restart-recovery
# job; run locally with `make recovery-smoke`).
#
# Starts a durable daemon with a temp state dir, loads two web apps,
# batch jobs and an extra node, removes the second app once it is placed
# (right after a cycle, so the newest journaled placement still lists
# it), kills the process with SIGKILL, restarts it from the same state
# dir, and asserts:
#
#   1. the stable placement projection (registered apps' instance
#      placements, job set, node set+states) matches the pre-kill capture;
#   2. the router serves what the placement says: the removed app
#      answers 404 not_found, and shop routes only to its instances;
#   3. /v1/state shows exactly one restart with replayed WAL records;
#   4. no job was lost and completed work did not regress;
#   5. a SIGTERM shutdown flushes a final snapshot and exits 0.
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
# an extra control cycle runs between capture and comparison. A removed
# app's view lingers in the placement until the next cycle, so only the
# registered apps count.
project() {
  local apps
  apps="$(curl -sf "$BASE/v1/apps")"
  curl -sf "$BASE/v1/placement" | APPS="$apps" python3 -c '
import json, os, sys
p = json.load(sys.stdin)
apps = set(json.loads(os.environ["APPS"])["apps"])
print(json.dumps({
    "web": sorted((w["name"], sorted(i["node"] for i in w["instances"])) for w in p["web"] if w["name"] in apps),
    "jobs": sorted(j["name"] for j in p["jobs"]),
    "nodes": sorted((n["name"], n["state"]) for n in p["nodes"]),
}, sort_keys=True))'
}

cycles() {
  curl -sf "$BASE/v1/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["cycles"])'
}

instances_of() {
  curl -sf "$BASE/v1/placement" | python3 -c '
import json, sys
print(sum(len(w["instances"]) for w in json.load(sys.stdin)["web"] if w["name"] == sys.argv[1]))' "$1"
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
curl -sf -X POST "$BASE/v1/apps" -d '{"app":{"name":"ads","arrivalRate":5,
  "demandPerRequest":30,"goalResponseTime":0.5,"memoryMB":400}}' >/dev/null
for j in etl report; do
  curl -sf -X POST "$BASE/v1/jobs" -d '{"relative":true,"job":{"name":"'$j'",
    "workMcycles":9e6,"maxSpeedMHz":3000,"memoryMB":1000,"deadline":7200}}' >/dev/null
done
curl -sf -X POST "$BASE/v1/nodes" -d '{"name":"spare","cpuMHz":2500,"memMB":2048}' >/dev/null

say "letting cycles run (action costs delay first progress)"
sleep 6
if [ "$(instances_of ads)" -eq 0 ]; then
  say "FAIL: ads was never placed"
  exit 1
fi

# Remove ads just after a cycle ends and kill before the next one
# starts, so the newest journaled placement still lists ads.
c0="$(cycles)"
for _ in $(seq 1 100); do
  [ "$(cycles)" != "$c0" ] && break
  sleep 0.05
done
curl -sf -X DELETE "$BASE/v1/apps/ads" >/dev/null
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

status="$(curl -s -o "$WORK/route.json" -w '%{http_code}' -X POST "$BASE/v1/route/ads")"
code="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["error"]["code"])' "$WORK/route.json" 2>/dev/null || echo none)"
if [ "$status" != 404 ] || [ "$code" != not_found ]; then
  say "FAIL: removed app ads still routes after recovery: HTTP $status, code $code"
  cat "$WORK/route.json"
  exit 1
fi
curl -sf -X POST "$BASE/v1/route/shop" -d '{"n":1000}' >"$WORK/route.json"
curl -sf "$BASE/v1/placement" | python3 -c '
import json, sys
placed = {i["node"] for w in json.load(sys.stdin)["web"] if w["name"] == "shop" for i in w["instances"]}
routed = set(json.load(open(sys.argv[1]))["perNode"])
assert routed and routed <= placed, "shop routed to %s, placed on %s" % (sorted(routed), sorted(placed))
print("recovery-smoke: removed app answers 404; shop routes to %s of %s" % (sorted(routed), sorted(placed)))' "$WORK/route.json"

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
