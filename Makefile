# make check mirrors the CI pipeline (.github/workflows/ci.yml) so local
# runs and CI stay in lockstep.

GO ?= go

.PHONY: check fmt vet lint staticcheck docs build test shuffle bench dynbench dynbench-compare recovery-smoke bundle-smoke fuzz cover

check: fmt vet lint staticcheck docs build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The project's own analyzers (clockhygiene, detrange, lockguard,
# errwrap, nilsafe — see internal/analysis). Exceptions need a reasoned
# //dynplace:ignore <analyzer> <reason> directive; dynplacevet -list
# describes each analyzer.
lint:
	$(GO) run ./cmd/dynplacevet ./...

# staticcheck is optional locally (install with:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1)
# but always runs in CI.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Documentation integrity: every relative markdown link in README/docs/
# resolves and every package carries a package-level doc comment. Like
# the CI docs job, it also checks that internal/scheduler depends on
# neither internal/core nor internal/shard, and that internal/router
# depends on no other dynplace package.
docs:
	$(GO) run ./cmd/doccheck
	@if $(GO) list -deps ./internal/scheduler | grep -Ex 'dynplace/internal/(core|shard)'; then \
		echo "internal/scheduler must not depend on the optimizer; build placement problems in internal/control" >&2; exit 1; \
	fi
	@if $(GO) list -deps ./internal/router | grep -E '^dynplace(/|$$)' | grep -vx 'dynplace/internal/router'; then \
		echo "internal/router must stay dependency-free; export counts through router.Stats, not from the dispatch path" >&2; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Catch order-dependent tests the same way CI does.
shuffle:
	$(GO) test -count=2 -shuffle=on ./...

# The CI bench-smoke job: one run of the reactive-vs-forecast replay
# sweep, which gates forecast-driven control against reactive, and of
# the flat solve at 500-5 000 nodes in three shapes (one pass on
# identical nodes, the default passes the daemon runs, one pass on
# nodes of distinct CPU; TestFlatSolveWorkCounts pins all three at
# 1 000 nodes in tier-1); then the two solver
# micro-benchmarks (the allocation solver with one web app, and with two
# that share hosts, whose probes take the cut test). Each prints the solver's work counts (candidates,
# probes, flow solves per op) beside time; the flat solve and the
# micro-benchmarks also print bytes and objects per op. Then one
# GET /v1/placement on a 2 000-node placement: bytes and objects per
# read, which stay flat because a read serves the published encoding.
# Then the encode of a 10 000-node, 400-job placement beside
# json.Marshal of it: from scratch, and from the previous cycle's bytes
# with 50 nodes changed, which copies the other 9 950 node objects.
# Then one WAL append of a 10 000-node cycle record with a ~1 MB
# placement, fsync included: bytes per append stay about one frame,
# because the record is framed around the placement bytes. Then one
# recovery of a 10 000-node snapshot plus 24 cycle records: objects per
# recovery stay about one placement decode, because replay decodes
# only the newest placement. Last, the router's DispatchBatch of 10,
# 1 000 and 100 000 requests on 2 and 64 instances: time, bytes and
# objects per call do not grow with the batch size, because a batch is
# apportioned over the instances rather than picked request by request.
bench:
	$(GO) test -run '^$$' -bench BenchmarkReplaySweep -benchtime=1x .
	$(GO) test -run '^$$' -bench BenchmarkFlatSolve -benchmem -benchtime=1x ./internal/experiments
	$(GO) test -run '^$$' -bench 'BenchmarkOptimizerCycle|BenchmarkAllocationSolver' -benchmem -benchtime=5x .
	$(GO) test -run '^$$' -bench BenchmarkPlacementRead -benchmem ./internal/daemon
	$(GO) test -run '^$$' -bench BenchmarkPlacementEncode -benchmem ./internal/daemon
	$(GO) test -run '^$$' -bench BenchmarkAppendCycleRecord -benchmem ./internal/store
	$(GO) test -run '^$$' -bench BenchmarkRecover -benchmem ./internal/daemon
	$(GO) test -run '^$$' -bench BenchmarkDispatchBatch -benchmem ./internal/router

# The repository's benchmark (cmd/dynbench/README.md): the whole
# untraced set, each workload in a process of its own, into
# cmd/dynbench/out/results.json. A perf change is judged by running this
# on the parent commit and on the change and comparing the two files:
#   make dynbench-compare BASE=parent/results.json NEW=cmd/dynbench/out/results.json
dynbench:
	$(GO) run ./cmd/dynbench -out cmd/dynbench/out

dynbench-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make dynbench-compare BASE=a/results.json NEW=b/results.json" >&2; exit 2; }
	$(GO) run ./cmd/dynbench -compare $(BASE) $(NEW)

# The CI restart-recovery job: kill -9 a durable dynplaced and assert
# the restarted daemon serves the pre-kill placement.
recovery-smoke:
	./scripts/recovery_smoke.sh

# The CI bundle-smoke job: start a real dynplaced, download
# /v1/debug/bundle, and assert the archive unpacks with exposition,
# explanations, and config intact.
bundle-smoke:
	./scripts/bundle_smoke.sh

# The CI fuzz-smoke job: 20 s each of coverage-guided fuzzing of the
# replay-trace parser, of the store's WAL and snapshot loader, of the
# -cluster spec parser and of the incremental placement encoder against
# json.Marshal.
# Crashers become seed corpus entries under the package's
# testdata/fuzz. A FuzzLoad run fsyncs a fresh store, a few ms per
# input, so minimizing an input is capped at 5 s instead of the
# default 60 s that would take the whole run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 20s -fuzzminimizetime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzParseNodes -fuzztime 20s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzPlacementEncoding -fuzztime 20s ./internal/daemon

# The CI coverage job: statement-coverage floor (85%) on
# internal/core, flow, rpf, batch and txn (the paper's algorithm),
# internal/forecast, internal/trace, internal/control, internal/daemon,
# internal/scheduler, internal/sim, internal/shard, internal/store and
# internal/router.
cover:
	./scripts/coverage_floor.sh
