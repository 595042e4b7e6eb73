#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the JSON summary.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: no dune-project here; run from a checkout of the repository" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
