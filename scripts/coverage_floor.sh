#!/usr/bin/env bash
# Enforce the statement-coverage floor on the paper's algorithm, the
# forecasting stack and the control step: internal/core (candidate search
# and max-min allocation), internal/flow (web routing), internal/rpf,
# internal/batch and internal/txn (the utility models) compute every
# placement; the demand estimator and the trace codec feed its inputs;
# internal/control and internal/daemon run every cycle of both the
# simulator and the live service; internal/scheduler (the job ledger's
# AdvanceTo, the only job clock) and internal/sim (the virtual time both
# hosts can run on) carry every job's progress; and internal/shard
# solves the sharded cycle. Untested branches in any of them turn
# directly into misplacements. internal/store journals every mutation
# and cycle, so an untested branch there loses or corrupts acknowledged
# state. internal/router dispatches every request, so an untested branch
# there misroutes traffic or miscounts it. The floor is per package,
# read from the standard `go test -cover` summary.
set -euo pipefail

FLOOR=85
PACKAGES=(./internal/core ./internal/flow ./internal/rpf ./internal/batch ./internal/txn
    ./internal/forecast ./internal/trace ./internal/control ./internal/daemon
    ./internal/scheduler ./internal/sim ./internal/shard ./internal/store ./internal/router)

fail=0
for pkg in "${PACKAGES[@]}"; do
    out=$(go test -cover "$pkg")
    echo "$out"
    pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage_floor: no coverage figure in output for $pkg" >&2
        fail=1
        continue
    fi
    below=$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN {print (p < f) ? 1 : 0}')
    if [ "$below" = "1" ]; then
        echo "coverage_floor: $pkg at ${pct}% is below the ${FLOOR}% floor" >&2
        fail=1
    fi
done
exit $fail
