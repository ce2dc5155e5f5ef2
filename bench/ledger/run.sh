#!/usr/bin/env bash
# Build the ledger from source, then run it with the given arguments.
# Run from the repository root, e.g.
#   bash bench/ledger/run.sh --workload null-small --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the ledger's result is the last line of stdout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
