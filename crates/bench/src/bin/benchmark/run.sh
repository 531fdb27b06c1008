#!/usr/bin/env bash
# Builds the benchmark package — the `benchmark` binary and the
# `msplit-worker` binary that `grid_factor` spawns — and runs `benchmark`
# with the arguments given.  Run it from the root of the repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark-build}"
# Standard output carries the result line and nothing of the build's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
