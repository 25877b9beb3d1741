#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Run via `make check` or directly: ./scripts/check.sh
#
# Steps (fail-fast; the failing step is named on exit):
#   gofmt        gofmt -l over the root module and perfbench/ — any
#                file it names is unformatted and fails the step
#   vet          go vet ./... — the default analyzer suite
#   vet-focus    go vet -copylocks -loopclosure -atomic ./... — the three
#                analyzers whose findings have historically been
#                correctness bugs in simulators (locks copied into
#                goroutines, loop variables captured by reference,
#                torn counter updates)
#   lint         go run ./cmd/jobschedlint ./... — the repo-specific
#                analyzers (determinism, wallclock hygiene, telemetry
#                guards, checked arithmetic, sim purity); see DESIGN.md §9
#   lint-protocol the protocol-aware contract analyzers run as their own
#                named step (passprotocol, streamcontract, journalsync,
#                errflow; see DESIGN.md §13) so a batch-pass or journal
#                contract break is named at the gate, not buried in the
#                full-suite output
#   lint-budget  scripts/lint-budget.sh — every //lint:ignore directive
#                must be ledgered with a justification, and each
#                analyzer's live suppression count must stay within its
#                budget line
#   build        go build ./... — every package compiles
#   test-race    go test -race ./... — full suite (incl. the differential
#                profile oracle and cross-worker determinism tests) under
#                the race detector
#   race-focus   go test -race -count=2 over the failure-injection path
#                (sim, eval, faults, serve): the packages where goroutines
#                meet shared state (parallel grids, journal, watchdog
#                timers, interrupt flags, the daemon's session workers)
#                get a second run to shake out order-dependent races the
#                single pass can miss
#   fuzz-smoke   fixed-budget runs of the fuzz targets: the SWF reader
#                (trace.FuzzReadSWF), the availability-profile
#                differential oracle (profile.FuzzProfileOps), the tree
#                kernel's structural invariants under the same oracle
#                (profile.FuzzProfileTree) and the fault-schedule
#                generator/simulator invariants
#                (faults.FuzzFailureSchedule). A short deterministic
#                budget — regressions on the seeded corpus and shallow
#                mutations fail here; deep exploration is for manual
#                `make fuzz` sessions
#   perfbench    (cd perfbench && go vet . && go test .) — the benchmark
#                is its own module, so `./...` above never compiles it;
#                this step catches an internal API change that would
#                break the benchmark (well under a second)
#   stream-smoke scripts/stream-smoke.sh — a ~1M-job synthetic trace
#                simulated end-to-end under a GOMEMLIMIT heap ceiling
#                (the bounded-memory streaming path), plus a 2-shard
#                grid evaluation merged and compared byte-for-byte
#                against a single-process run
#   serve-smoke  scripts/serve-smoke.sh — boot the jobschedd daemon,
#                push 10k submissions through cmd/schedload, SIGTERM
#                drain (must exit 0), restart on the same data directory
#                and require a byte-identical recovered fingerprint
set -eu
cd "$(dirname "$0")/.."

step=startup
trap 'st=$?; if [ "$st" -ne 0 ]; then echo "FAIL: tier-1 step \"$step\" (exit $st)" >&2; fi' EXIT

run() {
	step=$1
	shift
	echo "==> $step: $*"
	"$@"
}

step=gofmt
echo "==> gofmt: gofmt -l *.go cmd examples internal perfbench"
unformatted=$(gofmt -l *.go cmd examples internal perfbench)
if [ -n "$unformatted" ]; then
	echo "$unformatted" >&2
	exit 1
fi

run vet go vet ./...
run vet-focus go vet -copylocks -loopclosure -atomic ./...
run lint go run ./cmd/jobschedlint ./...
run lint-protocol go run ./cmd/jobschedlint -analyzers passprotocol,streamcontract,journalsync,errflow ./...
run lint-budget ./scripts/lint-budget.sh
run build go build ./...
run test-race go test -race ./...
run race-focus go test -race -count=2 ./internal/sim ./internal/eval ./internal/faults ./internal/serve
run fuzz-smoke go test -run='^$' -fuzz='^FuzzReadSWF$' -fuzztime=500x ./internal/trace
run fuzz-smoke go test -run='^$' -fuzz='^FuzzProfileOps$' -fuzztime=500x ./internal/profile
run fuzz-smoke go test -run='^$' -fuzz='^FuzzProfileTree$' -fuzztime=500x ./internal/profile
run fuzz-smoke go test -run='^$' -fuzz='^FuzzFailureSchedule$' -fuzztime=500x ./internal/faults

step=perfbench
echo "==> perfbench: go vet . && go test . (in perfbench/)"
(cd perfbench && go vet . && go test .)

run stream-smoke ./scripts/stream-smoke.sh
run serve-smoke ./scripts/serve-smoke.sh

echo "OK: all tier-1 checks passed"
