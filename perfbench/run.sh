#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it:
#   bash perfbench/run.sh --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/soccar-perfbench" "$@"
