#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see perfbench/README.md). Run from the checkout root:
#   bash perfbench/run.sh --workload long-chain --seed 1 --seconds 30 --trace 0
# The build goes to .bench_build/; nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune > /dev/null 2>&1 && command -v opam > /dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
mkdir -p .bench_build
dune build --root . --build-dir "$PWD/.bench_build/dune" --profile release \
  ./perfbench/main.exe 1>&2
exe=.bench_build/dune/default/perfbench/main.exe
# The run gets one CPU, the last one it may use: the host reference that
# normalizes every time (README.md, "Host speed") tracks only the speed of
# the CPU it runs on, and the flows then run at jobs = nproc = 1.
if command -v taskset > /dev/null 2>&1; then
  cpus=$(taskset -pc $$ | sed 's/.*: *//')
  exec taskset -c "${cpus##*[,-]}" "$exe" "$@"
fi
exec "$exe" "$@"
