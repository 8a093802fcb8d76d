#!/usr/bin/env bash
# Byte-compare two builds of `teeperf live` — the check behind a "same
# outputs" claim for the in-process tier (driver, registry, sessions,
# rotating live logs).
#
#   scripts/cmp_live.sh <parent teeperf> <change teeperf>
#
# Writes a small Mini-C program of its own and profiles it three ways:
#
#   rotating  one process, --max-entries 16 --frames yes --refresh 200
#             (a rotation every few events, a frame every 200)
#   fleet     --follow-pids 3 --max-entries 32 --watermark 50
#             --overhead-budget 5 --window-interval 500 --retain 4
#   batched   one process, --batch-slots 8
#
# Each run's stdout, its --out `.live` file and its --svg file are
# compared with cmp, together with the exit code. Both sides write to the
# same paths, one after the other, so the file names they print agree.
# The host pid is the only thing that differs from run to run: a
# simulated process is numbered from the pid of the `teeperf` that runs
# it, so every pid is replaced by its rank (`<pid0>`, `<pid1>`, …) before
# the comparison. Prints a count and exits 0 iff all are equal.
set -euo pipefail
parent=$1 change=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cat > "$out/app.mc" <<'EOF'
fn leaf(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
fn mid(n: int) -> int {
    let t: int = 0;
    for (let j: int = 0; j < 4; j = j + 1) { t = t + leaf(n + j); }
    return t;
}
fn main() -> int {
    let r: int = 0;
    for (let k: int = 0; k < 100; k = k + 1) { r = r + mid(k); }
    print_int(r);
    return 0;
}
EOF

declare -A runs=(
  [rotating]="--max-entries 16 --frames yes --refresh 200"
  [fleet]="--follow-pids 3 --max-entries 32 --watermark 50 --overhead-budget 5 --window-interval 500 --retain 4"
  [batched]="--batch-slots 8"
)

compared=0 status=0
for name in rotating fleet batched; do
  read -ra flags <<< "${runs[$name]}"
  pids=1
  [ "$name" = fleet ] && pids=3
  for side in parent change; do
    bin=${!side} run=$out/run
    rm -rf "$run"; mkdir "$run"
    code=0
    "$bin" live "$out/app.mc" "${flags[@]}" --out "$run/snap" --svg "$run/flame.svg" \
      > "$run/stdout" 2> /dev/null &
    pid=$!
    wait "$pid" || code=$?
    echo "$code" > "$run/code"
    # A file a failed run never wrote compares as empty.
    touch "$run/snap.live" "$run/flame.svg"
    rank=()
    for i in $(seq 0 $((pids - 1))); do rank+=(-e "s/\\b$((pid + i))\\b/<pid$i>/g"); done
    for label in stdout snap.live flame.svg code; do
      sed "${rank[@]}" "$run/$label" > "$out/$side.$name.$label"
    done
  done
  for label in stdout snap.live flame.svg; do
    compared=$((compared + 1))
    if ! cmp -s "$out/parent.$name.$label" "$out/change.$name.$label" \
       || ! cmp -s "$out/parent.$name.code" "$out/change.$name.code"; then
      echo "differs: $name $label"
      status=1
    fi
  done
done
echo "cmp_live: $compared outputs compared, $([ $status = 0 ] && echo all equal || echo some differ)"
exit $status
