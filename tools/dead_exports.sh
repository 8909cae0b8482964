#!/usr/bin/env bash
# Dead-export scan: list every value exported from lib/ that no other
# compilation unit references.
#
# Builds the .cmt/.cmti typedtrees (dune build @check) and the scanner,
# then reads the typedtrees with tools/dead_exports/dead_exports.exe,
# which resolves every value reference under lib bin test bench
# examples tools the way the compiler does (aliases, opens, library
# wrappers, functor applications).  Each export nothing else uses is
# printed as `FILE:LINE: NAME`.  A clean tree prints nothing; the exit
# status is 0 either way, so a caller decides what output means (CI
# fails on any).
#
# Run from the repository root:  bash tools/dead_exports.sh
set -eu

dune build @check ./tools/dead_exports/dead_exports.exe
./_build/default/tools/dead_exports/dead_exports.exe _build/default
