#!/usr/bin/env bash
# Build the ledger benchmark from source and run one measurement.
#
#   bash ledger/run.sh --workload cold_plan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The last line of standard output is the
# result object; build output goes to standard error. Exits non-zero,
# without a result, when the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pin the ambient knobs every measured run must share: one search domain,
# and none of the overrides that change what is measured (the search
# subsample cap, the experiment scale, tuning overrides, the trace and
# telemetry exporters). ledger.exe refuses to run otherwise and records
# the knobs it saw with each result.
export ISAAC_DOMAINS=1
unset ISAAC_SEARCH_CAP REPRO_SCALE ISAAC_TRACE ISAAC_TELEMETRY
for var in $(compgen -e); do
  case "$var" in ISAAC_TUNE_*) unset "$var" ;; esac
done

# Build inside this checkout only.
export DUNE_CACHE=disabled
dune build --root . --display quiet ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
