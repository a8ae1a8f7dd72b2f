#!/usr/bin/env bash
# Build the benchmark (first call only; later calls are an up-to-date
# check) and run one workload:
#
#   bash benchmark/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR when
# set, else build-benchmark/; build output goes to stderr, so the last
# stdout line is the run's JSON result. Any further arguments (--record
# FILE) pass through to `dhisq_benchmark run`.
set -euo pipefail

build="${CARGO_TARGET_DIR:-build-benchmark}"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

{
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target dhisq_benchmark -j "$jobs"
} >&2

exec "$build/dhisq_benchmark" run --out "$build/out" "$@"
