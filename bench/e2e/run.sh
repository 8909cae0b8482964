#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.  Run from the
# repository root; every argument is passed on to rsmr_bench.exe (see
# README.md).  The build stays inside the checkout: dune's shared cache is
# off, the compiler's temporary files go under _build, and build output
# goes to stderr so that the benchmark's result is the last line of stdout.
set -euo pipefail
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./bench/e2e/rsmr_bench.exe >&2
exec ./_build/default/bench/e2e/rsmr_bench.exe "$@"
