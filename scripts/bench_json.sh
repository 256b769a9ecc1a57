#!/usr/bin/env bash
# bench_json.sh — emits BENCH_<pr>.json, the PR performance record.
#
# This is a thin wrapper over cmd/grid: each historical PR mode maps onto a
# committed grid spec under scripts/grids/, and the env knobs below map onto
# -set variable overrides. The grid runner builds the tools, sweeps the
# spec's cells sequentially, audits ledgered outputs, enforces the
# byte-identity and JSON gates the old shell encoded as cmp/jq pipelines,
# and writes BENCH_<pr>.json plus a per-(cell, repeat, step) CSV beside it.
#
# Modes (env PR, default pr10):
#
#   PR=pr6   harness benchmark + 100k-site dedup off/on study + 10M-site
#            study under GOMEMLIMIT=64MiB       (knobs: STUDY_SITES,
#            BIG_SITES, REUSE, POOL)
#   PR=pr8   chainserved daemon under sustained load, SIGTERM drain with
#            admitted == completed              (knobs: LOAD_QPS,
#            LOAD_SECONDS)
#   PR=pr9   fixed-seed fuzz campaign with worker-invariance gate, ledgered
#            divergence records, and scenario replay through a streamed
#            study                              (knobs: FUZZ_GENS,
#            FUZZ_MUTANTS, FUZZ_DOMAINS)
#   PR=pr10  ledger overhead: the 100k-site dedup study with the Merkle
#            ledger off vs on, audited roots, <5% wall gate
#                                               (knobs: STUDY_SITES, REUSE,
#            POOL)
#
# Shared knobs: OUT (default BENCH_<pr>.json), REPEATS, CELLS (regex over
# cell names), GRID_WORK (keep the work tree at this path).
set -euo pipefail
cd "$(dirname "$0")/.."

PR=${PR:-pr10}
OUT=${OUT:-BENCH_${PR}.json}
SPEC=scripts/grids/${PR}.json
[ -f "$SPEC" ] || { echo "bench-json: unknown PR mode '$PR' (no $SPEC)" >&2; exit 1; }

SETS=()
map() { # map <spec-var> <env-name>: add -set when the env knob is set
  local var=$1 env=$2
  [ -n "${!env:-}" ] && SETS+=(-set "$var=${!env}")
  return 0
}

case "$PR" in
  pr6)
    map sites STUDY_SITES
    map big_sites BIG_SITES
    map reuse REUSE
    map pool POOL
    ;;
  pr8)
    map qps LOAD_QPS
    map seconds LOAD_SECONDS
    ;;
  pr9)
    map gens FUZZ_GENS
    map mutants FUZZ_MUTANTS
    map domains FUZZ_DOMAINS
    ;;
  pr10)
    map sites STUDY_SITES
    map reuse REUSE
    map pool POOL
    ;;
esac

go run ./cmd/grid -spec "$SPEC" -out "$OUT" \
  ${REPEATS:+-repeats "$REPEATS"} \
  ${CELLS:+-cells "$CELLS"} \
  ${GRID_WORK:+-work "$GRID_WORK"} \
  ${SETS[@]+"${SETS[@]}"}

echo "bench-json: wrote $OUT" >&2
if command -v jq >/dev/null 2>&1; then jq . "$OUT"; else cat "$OUT"; fi
