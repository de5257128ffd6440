#!/usr/bin/env bash
# The benchmark's one entry point. Run from anywhere; works from the
# repository root it belongs to.
#
#   benchmark/run.sh                      every workload, both modes, results.json
#   benchmark/run.sh --quick              10 passes per phase, correctness only
#   benchmark/run.sh --workload NAME --seed N --seconds T --trace 0|1
#                                         one workload, one result line (BENCHMARK.json's command)
#   benchmark/run.sh compare A.json B.json | self-test | manifest
#
# Builds offline first; the build time is reported as harness.build_s.
set -euo pipefail
cd "$(dirname "$0")/.."

build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"

case " $* " in
  *" --workload "*) exec "$bench" "$@" --build-s "$build_s" ;;
esac
case "${1:-}" in
  "" | --*) exec "$bench" all "$@" --build-s "$build_s" ;;
  *) exec "$bench" "$@" ;;
esac
