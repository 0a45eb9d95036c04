#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash benchmark/run.sh --workload fig3_paper --seed 1 --seconds 30 --trace 0
# Run from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --bins --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/morpheus-benchmark" "$@"
