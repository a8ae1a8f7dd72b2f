#!/usr/bin/env bash
# Run every workload N times, each run a fresh process, alternating the
# workload order between repeats; then print every end-to-end metric by
# name with its unit and sample count. --trace adds one traced run per
# workload and prints its per-layer table.
#
#   bash benchmark/run.sh [--repeats N] [--seed S] [--trace] OUT_DIR
#
# Run from the repository root. Each run measures for BENCHMARK.json's
# run_seconds, so two commits are measured with the same run length.
# OUT_DIR receives one record per run (<workload>.rNN.run.json, plus the
# run's stdout as .log), the Chrome traces (<workload>.trace.json), build
# and error output (stderr.log) and report.txt. Compare two such
# directories, e.g. of a parent and a change, with
#
#   build-benchmark/dhisq_benchmark compare PARENT_DIR CHANGE_DIR
set -euo pipefail

repeats=5
seed=2025
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
trace=0
out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --repeats) repeats="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        -*) echo "unknown option: $1" >&2; exit 2 ;;
        *) out="$1"; shift ;;
    esac
done
if [ -z "$out" ]; then
    echo "usage: $0 [--repeats N] [--seed S] [--trace] OUT_DIR" >&2
    exit 2
fi
mkdir -p "$out"

workloads=(fig15_paper compile_placed service_zipf vqe_dense)
status=0
one() { # workload, trace flag, file stem
    bash benchmark/bench.sh --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace "$2" --out "$out" \
        --record "$out/$3.run.json" >"$out/$3.log" 2>>"$out/stderr.log" ||
        { echo "run failed: $3 (see $out/$3.log, $out/stderr.log)" >&2; status=1; }
}

for ((r = 0; r < repeats; r++)); do
    order=("${workloads[@]}")
    if ((r % 2)); then
        order=()
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
            order+=("${workloads[i]}")
        done
    fi
    for w in "${order[@]}"; do
        one "$w" 0 "$(printf '%s.r%02d' "$w" "$r")"
    done
done
if ((trace)); then
    for w in "${workloads[@]}"; do
        one "$w" 1 "$w.traced"
    done
fi

"${CARGO_TARGET_DIR:-build-benchmark}/dhisq_benchmark" report "$out" |
    tee "$out/report.txt" || status=1
exit "$status"
