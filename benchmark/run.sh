#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark crate from source, then
# run it with the arguments given.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check
#
# Run from the root of a checkout. Everything it writes stays inside the
# checkout: the build under $CARGO_TARGET_DIR (default benchmark/target),
# the file log, probe files and span dumps under benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

export LOB_BENCH_OUT="$here/out"
export LOB_BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export LOB_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
exec "$target/release/lob-benchmark" "$@"
