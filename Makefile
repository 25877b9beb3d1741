GO ?= go

.PHONY: check build test vet lint fuzz-smoke race bench stream-smoke serve-smoke

# Tier-1 gate: vet + lint + lint-budget + build + race-enabled tests +
# fuzz smoke + perfbench build/test + gofmt (see scripts/check.sh for
# the step list).
check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint, DESIGN.md §9 and §13):
# the full analyzer suite — including the protocol-aware contract
# analyzers (passprotocol, streamcontract, journalsync, errflow) — then
# the suppression-budget audit with its per-analyzer ceilings.
lint:
	$(GO) run ./cmd/jobschedlint ./...
	./scripts/lint-budget.sh

# Fixed-budget fuzz runs of the SWF reader, the availability-profile
# differential oracle, the tree-kernel structural invariants and the
# fault-schedule invariants — the same budgets the tier-1 gate uses.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadSWF$$' -fuzztime=500x ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzProfileOps$$' -fuzztime=500x ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzProfileTree$$' -fuzztime=500x ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzFailureSchedule$$' -fuzztime=500x ./internal/faults

race:
	$(GO) test -race ./...

# The repo's benchmark (BENCHMARK.json): paper-grid, swf-stream and
# serve-replay, each with its output checks and end-to-end metrics; the
# last stdout line is one JSON object. perfbench has no default workload,
# so this names all three and keeps every other option at its default
# (see perfbench/main.go for --seed, --seconds and --trace).
bench:
	bash perfbench/run.sh --workload all

# Million-job streaming run under a GOMEMLIMIT ceiling + 2-shard merge
# cross-check against single-process output (see DESIGN.md §12).
stream-smoke:
	./scripts/stream-smoke.sh

# Boot the jobschedd daemon, drive 10k submissions through schedload,
# SIGTERM drain, restart, assert a byte-identical recovered fingerprint
# (see DESIGN.md §15).
serve-smoke:
	./scripts/serve-smoke.sh
