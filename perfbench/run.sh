#!/usr/bin/env bash
# Builds the program under test (`profirt`) and the benchmark from source,
# offline, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build products go to
# $CARGO_TARGET_DIR (default .bench_build), outputs to .bench_out.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the root of a profirt checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --bin profirt
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --profirt "$CARGO_TARGET_DIR/release/profirt" "$@"
