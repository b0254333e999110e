#!/usr/bin/env bash
# Build the campaign benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to standard error, so
# the benchmark's last line of standard output stays its JSON result.  A
# failed build exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
