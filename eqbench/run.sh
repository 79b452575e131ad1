#!/usr/bin/env bash
# Build eqbench from source, then run it with the given arguments, e.g.
#   bash eqbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/eqbench" "$@"
