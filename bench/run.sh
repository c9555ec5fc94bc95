#!/usr/bin/env bash
# The benchmark's one command. Builds `ocas-perf` (release) and hands it
# every argument; see bench/README.md.
#
#   bench/run.sh                               every workload, each in a fresh process
#   bench/run.sh --verify-repeat               two sets, held to the bounds of BENCHMARK.json
#   bench/run.sh --workload real-spill --seed 7 --seconds 20 --trace 0
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/ocas-perf" "$@"
