#!/usr/bin/env bash
# The benchmark's one entry point (BENCHMARK.json's `command`): builds the
# harness from source, then runs the binary `--trace` selects. Only the
# traced binary installs the counting allocator, so end-to-end numbers
# never pay for it.
#
#   bash benchmark/run.sh --workload cold_sweep --seed 3 --seconds 30 --trace 0
#
# Builds into $CARGO_TARGET_DIR when set, else benchmark/target. Fails
# (non-zero, no result) where the repo's crates are absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's diagnostics go to stderr: stdout carries only the result.
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2

bin=clientmap-benchmark
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
    bin=clientmap-benchmark-traced
  fi
  prev="$arg"
done
exec "$target/release/$bin" "$@"
