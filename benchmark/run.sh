#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the benchmark package
# (release, offline) and runs it; see README.md beside this file.
#
#   benchmark/run.sh [--seed N] [--quick] [--check-repeat]     every workload, tables + out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one pass, one JSON line last
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
export ENOKI_BENCHMARK_OUT="$here/out"
exec "${CARGO_TARGET_DIR:-$here/target}/release/enoki-benchmark" "$@"
