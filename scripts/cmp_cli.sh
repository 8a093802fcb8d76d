#!/usr/bin/env bash
# Byte-compare two builds of the batch analyzer's CLI over a directory of
# recordings — the check behind a "same outputs" claim for `teeperf
# analyze`, `query`, `flamegraph` and `diff`.
#
#   scripts/cmp_cli.sh <parent teeperf> <change teeperf> <dir>
#
# <dir> holds <name>.tplog + <name>.sym pairs, e.g. the seven Phoenix
# recordings `cargo run --release --example record_phoenix <dir>` writes.
# Per recording, eleven commands — `analyze`, a methods `query`, an events
# `query` (it names the `tid` column), `flamegraph` as text and as SVG;
# `analyze`, the methods `query` and the text `flamegraph` again with
# `--salvage yes` (the log drained by the salvaging file reader); and
# those three over a copy of the log cut at half its length, mid-slot,
# so the salvage report has something to account: 11 outputs a recording
# (stdout, or the SVG file), each compared with cmp together with the
# command's exit code. Each recording but the first (in name order) is
# also `diff`ed against the one before it, as text and with `--svg`: 2
# more outputs a recording. Prints a count and exits 0 iff all are
# equal (89 over the seven Phoenix recordings).
set -euo pipefail
parent=$1 change=$2 dir=$3
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
shopt -s nullglob
logs=("$dir"/*.tplog)
[ ${#logs[@]} -gt 0 ] || { echo "cmp_cli: no .tplog in $dir" >&2; exit 2; }

compared=0 status=0 before=()
for log in "${logs[@]}"; do
  name=$(basename "$log" .tplog)
  operands=("$log" "$dir/$name.sym")
  labels=(analyze methods events folded svg salvage.analyze salvage.methods salvage.folded
    cut.analyze cut.methods cut.folded)
  [ ${#before[@]} = 0 ] || labels+=(diff diff.svg)
  size=$(stat -c %s "$log")
  head -c $((size / 2 / 24 * 24 + 12)) "$log" > "$out/$name.cut.tplog"
  cut=("$out/$name.cut.tplog" "$dir/$name.sym")
  for side in parent change; do
    bin=${!side} at="$out/$side.$name"
    # Each output, then its command's exit code, under one label.
    run() {
      local label=$1 code=0
      shift
      "$bin" "$@" > "$at.$label" 2> /dev/null || code=$?
      echo "$code" > "$at.$label.code"
    }
    run analyze analyze "${operands[@]}"
    run methods query "${operands[@]}" 'select method, calls, incl, excl, threads sort excl desc'
    run events query "${operands[@]}" 'select tid, kind, method where counter > 0 sort seq asc limit 500'
    run folded flamegraph "${operands[@]}"
    : > "$at.svg" # an SVG a failed command never wrote compares as empty
    run svg.log flamegraph "${operands[@]}" --svg "$at.svg" --title "$name"
    run salvage.analyze analyze "${operands[@]}" --salvage yes
    run salvage.methods query "${operands[@]}" 'select method, calls, incl, excl, threads sort excl desc' --salvage yes
    run salvage.folded flamegraph "${operands[@]}" --salvage yes
    run cut.analyze analyze "${cut[@]}" --salvage yes
    run cut.methods query "${cut[@]}" 'select method, calls, incl, excl, threads sort excl desc' --salvage yes
    run cut.folded flamegraph "${cut[@]}" --salvage yes
    if [ ${#before[@]} != 0 ]; then
      run diff diff "${before[@]}" "${operands[@]}"
      : > "$at.diff.svg"
      run diff.svg.log diff "${before[@]}" "${operands[@]}" --svg "$at.diff.svg"
    fi
  done
  for label in "${labels[@]}"; do
    p="$out/parent.$name.$label" c="$out/change.$name.$label"
    code=${label/svg/svg.log}
    compared=$((compared + 1))
    if ! cmp -s "$p" "$c" || ! cmp -s "$out/parent.$name.$code.code" \
                                      "$out/change.$name.$code.code"; then
      echo "differs: $name $label"
      status=1
    fi
  done
  before=("${operands[@]}")
done
echo "cmp_cli: $compared outputs compared, $([ $status = 0 ] && echo all equal || echo some differ)"
exit $status
