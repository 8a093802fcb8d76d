#!/usr/bin/env bash
# The product-path benchmark, one command:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
#
# Builds teeperfd and the harness in release mode, runs the workload (all
# four without --workload), prints every metric by name with its unit,
# writes benchmark/out/result.json (trace.json with --trace 1), and ends
# with the one-line JSON result. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# teeperfd is built from its own manifest, so the child under test is the
# binary the repository ships, with the repository's lock file.
cargo build --release --offline --quiet --manifest-path crates/teeperf-daemon/Cargo.toml --bin teeperfd
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Sessions register where deployed ones do: on tmpfs. Without a writable
# /dev/shm the registration directory falls back to benchmark/out.
parent=/dev/shm
if ! { [ -d "$parent" ] && [ -w "$parent" ]; }; then
    parent=benchmark/out
    mkdir -p "$parent"
fi
free_kib=$(df -Pk "$parent" | awk 'NR == 2 { print $4 }')
if [ "${free_kib:-0}" -lt 1048576 ]; then
    echo "refusing to start: $parent has less than 1 GiB free" >&2
    exit 3
fi

exec "$CARGO_TARGET_DIR/release/teeperf-benchmark" --shm-parent "$parent" "$@"
