#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.  Run from the
# repository root; arguments go to `main.exe run` (see README.md), e.g.
#   bash bench/e2e/run.sh --workload msgq-paper --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe run "$@"
