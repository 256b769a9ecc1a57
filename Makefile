GO ?= go

.PHONY: build test check bench bench-json race obs loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-test the packages that own goroutines: the parallel substrate and its
# users, plus the network layer (scanner retries, server accept loops, the
# faults clock) that runs goroutines against real sockets, certmodel,
# whose process-wide signature memo every grading goroutine shares, core,
# whose verdict memo every grader shares, the run harness, whose record
# path a pipeline's sink feeds, and rootstore and pathbuild, whose sealed
# stores every builder reads without a lock.
RACE_PKGS = ./internal/certmodel/... ./internal/rootstore/... ./internal/pathbuild/... ./internal/core/... ./internal/pipeline/... ./internal/run/... ./internal/difftest/... ./internal/parallel/... ./internal/experiments/... ./internal/study/... ./internal/population/... ./internal/faults/... ./internal/tlsserve/... ./internal/tlsscan/... ./internal/aia/... ./internal/obs/... ./internal/verdictcache/... ./internal/chainserved/... ./internal/divfuzz/... ./internal/ledger/... ./internal/grid/...

race:
	$(GO) test -race $(RACE_PKGS)

# obs race-tests the metrics registry alone (counter/histogram hammering from
# parallel workers, snapshot determinism) and runs the instrumentation
# overhead guard.
obs:
	$(GO) test -race -count=1 ./internal/obs/...
	$(GO) test -run xxx -bench ObsOverheadGuard -benchtime 1x .

# check is the pre-commit gate: vet everything, race-test the concurrent core.
check:
	$(GO) vet ./...
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-json writes BENCH_<pr>.json (PR=pr10 by default) by driving cmd/grid
# over the committed spec in scripts/grids/<pr>.json. PR=pr6 reproduces the
# dedup-off/on and 10M-site record; PR=pr8 the chainserved sustained-load +
# graceful-drain record; PR=pr9 the divergence-fuzzer campaign record
# (worker-invariant manifest, ledgered divergence records, scenario replay);
# PR=pr10 the Merkle-ledger overhead record (off vs on, audited roots, <5%
# wall gate).
bench-json:
	bash scripts/bench_json.sh

# loadtest sustains QPS (default 200) for DURATION seconds (default 5)
# against an in-process chainserved and writes the latency record to OUT.
loadtest:
	bash scripts/loadtest.sh
