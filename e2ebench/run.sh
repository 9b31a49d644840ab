#!/usr/bin/env bash
# Builds edf-serve and the benchmark driver from source, then runs one
# benchmark from the root of a checkout:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); journals
# and span dumps go to its e2ebench-work subdirectory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p edf-serve --bin edf-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" --serve "$target/release/edf-serve" \
    --work-dir "$target/e2ebench-work" "$@"
