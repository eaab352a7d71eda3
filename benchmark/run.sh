#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one workload:
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Build messages go to stderr, so the last line of stdout stays the
# result object.  dune's shared cache is disabled and its build directory
# is the checkout's own _build, so nothing is written outside the
# checkout.  A failed build (for instance a directory holding only the
# benchmark, without the simulator it measures) exits 3 with no result.
set -u
cd "$(dirname "$0")/.." || exit 3
command -v dune > /dev/null 2>&1 || eval "$(opam env 2> /dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/src/esrbench.exe 1>&2 || exit 3
exec ./_build/default/benchmark/src/esrbench.exe run "$@"
