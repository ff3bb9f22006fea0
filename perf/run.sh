#!/usr/bin/env bash
# What BENCHMARK.json's `command` runs, from the repository root:
#
#   bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds xtract-perf (release) and hands it the arguments; with none, every
# workload runs (README, "Running"). One build, the one `perf/Cargo.toml`
# describes; it needs no network and nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --quiet --offline --manifest-path perf/Cargo.toml
exec "$CARGO_TARGET_DIR/release/xtract-perf" "$@"
