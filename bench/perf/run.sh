#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#  bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of the repository.  Build output goes to stderr,
# so the last line on stdout is the run's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perf: run from the root of the repository (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; the benchmark builds
# without it.
dune build --root . --cache=disabled --display=quiet \
  ./bench/perf/perf.exe 1>&2

exec ./_build/default/bench/perf/perf.exe run "$@"
