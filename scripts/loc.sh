#!/usr/bin/env bash
# Non-test lines of Rust per crate: every `.rs` file under `crates/*/src`,
# each counted up to its first `#[cfg(test)]` line, then the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  n=$(find "$src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
  printf '%-20s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
