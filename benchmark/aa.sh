#!/usr/bin/env bash
# A/A: run the suite twice on the same code and compare the two
# recordings against the bounds in BENCHMARK.json. Any `worse` row means
# the benchmark, not the program, is too noisy on this host.
#
#   bash benchmark/aa.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
bash benchmark/run.sh --seed "$seed" --label "aa_${seed}_A"
bash benchmark/run.sh --seed "$seed" --label "aa_${seed}_B"
"${CARGO_TARGET_DIR:-benchmark/target}/release/msc-benchmark" compare "benchmark/out/aa_${seed}_A.jsonl" "benchmark/out/aa_${seed}_B.jsonl"
