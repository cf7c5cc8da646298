#!/usr/bin/env bash
# Build the benchmark, warm the host, run, verify, print.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process: the command BENCHMARK.json names.
#       The last line of standard output is the JSON result.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--layers] [--smoke] [--label L]
#       all five workloads, tracing off, each in a process of its own;
#       --layers adds the traced pass (per-layer account, trace files);
#       --smoke uses toy sizes and checks schema and correctness only.
#       Results are appended to benchmark/out/<label>.jsonl.
#
# Exits non-zero when the build fails, a result is wrong, or a metric
# the contract lists is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver points CARGO_TARGET_DIR at a directory inside the checkout;
# by hand the build lands in benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/msc-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        # A sandbox core that sat idle stays slow for the whole life of the
        # next process that lands on it; let that process be this one.
        "$bin" warmup 2
        exec "$bin" run "$@"
    fi
done

seed=42
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
label=run
layers=0
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --layers) layers=1; shift ;;
        --smoke) smoke=(--smoke); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p benchmark/out
out="benchmark/out/$label.jsonl"
rm -f "$out"
if [ ${#smoke[@]} -eq 0 ]; then
    "$bin" warmup 10
fi
for trace in $(seq 0 "$layers"); do
    for workload in stream3d dense2d halo2r compile_many mscd_mix; do
        echo
        "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" "${smoke[@]}"
    done
done
echo
echo "results appended to $out"
