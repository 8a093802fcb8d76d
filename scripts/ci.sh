#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 build + tests, workspace tests.
#
#   scripts/ci.sh             # everything
#   scripts/ci.sh quick       # skip the release build (lints + debug tests)
#   scripts/ci.sh exhaustive  # everything, model check at full depth
#
# The build environment has no route to crates.io (see EXPERIMENTS.md,
# "Seed-test triage"), so everything runs --offline against the vendored
# third_party/ shims.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

run() {
  echo "==> $*"
  "$@"
}

# Like `run`, but under a hard wall-clock limit. SIGKILL, not the default
# SIGTERM: a consumer wedged in a spin loop (or a test harness stuck in a
# mutex) can shrug off TERM and hang CI anyway.
tmo() {
  local limit="$1"
  shift
  echo "==> [timeout ${limit}s] $*"
  timeout --signal=KILL "$limit" "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings \
  -D clippy::undocumented_unsafe_blocks -D clippy::dbg_macro

# API docs must build warning-free (broken intra-doc links, missing docs
# on public items surfaced by the crates' own lint settings, etc.).
# --lib: the `teeperf` CLI bin collides with the root facade lib's doc
# output path; library APIs are what the docs gate is for.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --lib

# Tier-1 (ROADMAP.md): the root facade build + tests must stay green.
if [ "$mode" != "quick" ]; then
  run cargo build --release --offline
fi
# Tier-1 and the rest of the workspace (every member but the root package,
# whose tests the tier-1 stage runs) each run under a temp dir of their
# own, and must leave no `teeperf-*` entry in it: every scratch dir a test
# makes is its own and removed when the test ends.
tests_in_own_tmp() {
  local what="$1" test_tmp leftover
  shift
  test_tmp="$(mktemp -d)"
  run env TMPDIR="$test_tmp" "$@"
  leftover="$(find "$test_tmp" -mindepth 1 -maxdepth 1 -name 'teeperf-*' -printf '%f\n')"
  if [ -n "$leftover" ]; then
    echo "the $what tests left these in TMPDIR:"
    echo "$leftover"
    exit 1
  fi
  rm -rf "$test_tmp"
}
tests_in_own_tmp tier-1 cargo test -q --offline
tests_in_own_tmp workspace cargo test -q --workspace --exclude teeperf --offline

# Fault-injection matrix (ISSUE 5): every FaultPlan fault kind crossed with
# both consumers (live LiveLogSource, and a persisted log file drained by
# FileShmSource, the one salvaging file reader), plus the registry crash
# acceptance test and the writer-crash salvage proptest. Each test binary
# runs under a hard 60s timeout so a salvage regression that hangs a
# consumer fails the gate instead of wedging CI (the tests also carry an
# in-process hang guard that aborts after 60s of no exit).
tmo 60 cargo test -q --offline -p teeperf-live --test fault_matrix
tmo 60 cargo test -q --offline -p teeperf-core faults::
tmo 60 cargo test -q --offline -p teeperf-core source::tests
tmo 60 cargo test -q --offline -p teeperf-core shm_file::

# Protocol lint (ISSUE 6): no raw atomics outside the SharedMem/MemModel
# seam, every Ordering choice justified with an `// ord:` comment, no
# wall-clock or OS randomness in protocol modules, no `unsafe` anywhere.
run cargo run -q --offline -p teeperf-check --bin teeperf-lint -- .

# Model check (ISSUE 6, split at ISSUE 21). `--smoke`: exhaustive DFS over
# the two small configs (2 writers, with and without the observer), 200
# seeded PCT schedules each on the classic, batched and regime-flipping
# clean protocol, then all four known mutation classes must be found and
# their schedules must replay — ~90 s on this 2-vCPU host. `--exhaustive`
# adds the two large clean DFS runs (batched 80 752 executions, regime
# 68 652), which are seven eighths of the ~715 s total, and runs when the
# commit under test (HEAD and the working tree against HEAD~1) touches the
# shared-memory protocol, its memory model or the checker, or when asked
# for (`scripts/ci.sh exhaustive`); if git cannot say, it runs. Built
# untimed (compile cost is not the budget), then run under a hard KILL
# timeout: a scheduler bug that deadlocks the virtual fleet must fail the
# gate, not hang it. The limits are deadlock detectors, not performance
# gates — the host's single-thread speed drifts by 40 % between runs
# (758–1050 s for the whole set at ISSUE 14, ~530–600 s at ISSUE 13) — so
# each is more than three times the slowest run seen.
run cargo build -q --release --offline -p teeperf-check --bin teeperf-check
protocol='^crates/(teeperf-core/src/(layout|log|batch|fidelity|source)\.rs|tee-sim/src/(shm|memmodel)\.rs|teeperf-check/)'
if [ "$mode" = exhaustive ] \
  || ! touched="$(git diff --name-only HEAD~1 && git ls-files --others --exclude-standard)" \
  || echo "$touched" | grep -Eq "$protocol"; then
  tmo 3600 cargo run -q --release --offline -p teeperf-check --bin teeperf-check -- --exhaustive
else
  tmo 300 cargo run -q --release --offline -p teeperf-check --bin teeperf-check -- --smoke
fi

# The smokes below drive the debug binaries, built once and outside their
# timers.
run cargo build -q --offline -p teeperf-cli -p teeperf-daemon

# A debug teeperfd with `--pump-ms 5` and any extra flags, over a fresh
# scratch registration directory. Sets the caller's dir, out (its stdout),
# pid and addr (from its listen banner). Its stdin is a fifo held open on
# FD 3; closing FD 3 is the shutdown signal (the stdin-EOF contract,
# DESIGN.md §12).
start_daemon() {
  dir="$(mktemp -d)"
  out="$dir/out.log"
  mkfifo "$dir/stdin"
  target/debug/teeperfd --dir "$dir/reg" --listen 127.0.0.1:0 --pump-ms 5 "$@" \
    < "$dir/stdin" > "$out" &
  pid=$!
  exec 3> "$dir/stdin"
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^teeperfd listening on //p' "$out" | head -1)"
    [ -n "$addr" ] && return 0
    sleep 0.1
  done
  echo "start-daemon: no listen banner"
  return 1
}

# Daemon smoke: start a real teeperfd over a scratch registration
# directory, run a scripted writer process through the file-backed shared
# log, then curl /healthz and /snapshot off the live HTTP listener and
# assert the merged totals are non-empty. Shutdown is the stdin-EOF
# contract: the daemon's stdin pipe is closed and it must exit 0 on its
# own. The whole stage runs under a hard KILL timeout so a wedged loop
# fails the gate instead of hanging CI.
daemon_smoke() {
  local dir out pid addr snap
  start_daemon || return 1
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 7
  [ "$(curl -sf "http://$addr/healthz")" = "ok" ] \
    || { echo "daemon-smoke: /healthz failed"; return 1; }
  for _ in $(seq 1 100); do
    snap="$(curl -sf "http://$addr/snapshot" || true)"
    echo "$snap" | grep -q "^events 30$" && break
    sleep 0.1
  done
  echo "$snap" | grep -q "^events 30$" \
    || { echo "daemon-smoke: merged events never reached 30"; echo "$snap"; return 1; }
  echo "$snap" | grep -q "^total_ticks 85$" \
    || { echo "daemon-smoke: wrong merged totals"; echo "$snap"; return 1; }
  echo "$snap" | grep -q "^work 7 70 42$" \
    || { echo "daemon-smoke: method table missing"; echo "$snap"; return 1; }
  exec 3>&- # stdin EOF: the graceful-shutdown trigger
  wait "$pid" || { echo "daemon-smoke: daemon did not exit 0"; return 1; }
  grep -q "teeperfd: shut down" "$out" \
    || { echo "daemon-smoke: no closing report"; cat "$out"; return 1; }
  rm -rf "$dir"
  echo "==> daemon-smoke ok"
}
tmo 120 bash -c "$(declare -f daemon_smoke start_daemon run); daemon_smoke"

# Query smoke (ISSUE 9): teeperfd with short retention windows over a
# scratch registration directory, two real writer processes, then the
# windowed query engine must answer off the live HTTP listener: /windows
# lists both pids' retained windows, /query serves a last-5 top-N and a
# two-window diff. Same stdin-EOF shutdown contract and hard KILL timeout
# as the daemon smoke.
query_smoke() {
  local dir out pid addr listing q
  start_daemon --window-interval 12 --retain 16 || return 1
  # Two writers, distinct pids: 7 iterations puts main's exit in window 7,
  # 5 iterations in window 5 (12 virtual ticks per iteration, interval 12).
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 7
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 5
  for _ in $(seq 1 100); do
    listing="$(curl -sf "http://$addr/windows" || true)"
    echo "$listing" | grep -qF "window 7..=7" \
      && echo "$listing" | grep -qF "window 5..=5" && break
    sleep 0.1
  done
  echo "$listing" | grep -qF "window 7..=7" \
    || { echo "query-smoke: writer 1 windows never appeared"; echo "$listing"; return 1; }
  echo "$listing" | grep -qF "window 5..=5" \
    || { echo "query-smoke: writer 2 windows never appeared"; echo "$listing"; return 1; }
  [ "$(echo "$listing" | grep -c "interval 12")" = 2 ] \
    || { echo "query-smoke: expected two pid listings"; echo "$listing"; return 1; }
  q="$(curl -sf "http://$addr/query?windows=last:5&top=10")" \
    || { echo "query-smoke: last-5 query failed"; return 1; }
  echo "$q" | grep -q "^work " \
    || { echo "query-smoke: last-5 top-N missing work"; echo "$q"; return 1; }
  # `tid=` matches a thread of any pid: the writers run on tid 0 only.
  q="$(curl -sf "http://$addr/query?windows=all&tid=0")" \
    || { echo "query-smoke: tid=0 query failed"; return 1; }
  echo "$q" | grep -q "^work " \
    || { echo "query-smoke: tid=0 missing work"; echo "$q"; return 1; }
  q="$(curl -sf "http://$addr/query?windows=all&tid=1")" \
    || { echo "query-smoke: tid=1 query failed"; return 1; }
  [ -z "$(echo "$q" | sed -n '/^\[methods\]$/,$p' | sed 1d)" ] \
    || { echo "query-smoke: tid=1 listed methods"; echo "$q"; return 1; }
  q="$(curl -sf "http://$addr/query?diff=2,3")" \
    || { echo "query-smoke: diff query failed"; return 1; }
  echo "$q" | grep -qF "diff 2 vs 3" \
    || { echo "query-smoke: diff header missing"; echo "$q"; return 1; }
  # Both windows hold a work and a leaf call: the table joins their rows.
  [ "$(echo "$q" | sed -n '/^\[diff\]$/,$p' | grep -cE '^(work|leaf) ')" = 2 ] \
    || { echo "query-smoke: diff table misses work or leaf"; echo "$q"; return 1; }
  q="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/query?diff=2,99")"
  [ "$q" = 404 ] \
    || { echo "query-smoke: diff with an unheld window answered $q, not 404"; return 1; }
  exec 3>&- # stdin EOF: the graceful-shutdown trigger
  wait "$pid" || { echo "query-smoke: daemon did not exit 0"; return 1; }
  rm -rf "$dir"
  echo "==> query-smoke ok"
}
tmo 120 bash -c "$(declare -f query_smoke start_daemon run); query_smoke"

# CLI smoke (ISSUE 15): one flag grammar behind every front-end. The
# command list comes from `teeperf help`; every command in it, `teeperfd`
# and `teeperf-shm-writer` must refuse an undeclared flag (non-zero exit)
# and answer --help with exit 0 and a usage line per flag it declares.
cli_smoke() {
  local cmds cmd
  cmds="$(target/debug/teeperf help | sed -n '/^commands:$/,$p' | awk 'NR > 1 { print $1 }')"
  [ "$(echo "$cmds" | wc -w)" -ge 12 ] \
    || { echo "cli-smoke: short command list: $cmds"; return 1; }
  check() { # <label> <expect-flag-lines: yes|no> <argv...>
    local label="$1" flags="$2" help
    shift 2
    if "$@" --no-such-flag x > /dev/null 2>&1; then
      echo "cli-smoke: $label accepted --no-such-flag"; return 1
    fi
    help="$("$@" --help)" || { echo "cli-smoke: $label --help failed"; return 1; }
    echo "$help" | head -1 | grep -q "^usage: " \
      || { echo "cli-smoke: $label --help has no usage line"; echo "$help"; return 1; }
    if [ "$flags" = yes ] && ! echo "$help" | grep -q "^  --"; then
      echo "cli-smoke: $label --help lists no flags"; echo "$help"; return 1
    fi
  }
  for cmd in $cmds; do
    if [ "$cmd" = archs ]; then
      check "teeperf $cmd" no target/debug/teeperf "$cmd" || return 1
    else
      check "teeperf $cmd" yes target/debug/teeperf "$cmd" || return 1
    fi
  done
  check teeperfd yes target/debug/teeperfd || return 1
  check teeperf-shm-writer yes target/debug/teeperf-shm-writer || return 1
  # The misspelling that used to run on the default architecture, silently.
  if target/debug/teeperf phoenix --bench histogram --arhc native > /dev/null 2>&1; then
    echo "cli-smoke: phoenix accepted --arhc"; return 1
  fi
  # A retired mode: finished logs are a daemon post-mortem (below).
  if target/debug/teeperf live --logs x > /dev/null 2>&1; then
    echo "cli-smoke: live accepted --logs"; return 1
  fi
  # A retired flag: a session ends when its medium says so, not after a
  # count of progress-free pumps.
  if target/debug/teeperfd --watchdog-timeout 4 < /dev/null > /dev/null 2>&1; then
    echo "cli-smoke: teeperfd accepted --watchdog-timeout"; return 1
  fi
  # The fleet post-mortem: recordings saved as <dir>/<pid> are a
  # registration directory, which teeperfd with stdin at EOF attaches,
  # drains and writes out as one snapshot.
  local pm p
  pm="$(mktemp -d)"
  mkdir "$pm/reg"
  printf '%s\n' 'fn f(x: int) -> int { return x * 2; }' \
    'fn main() -> int { print_int(f(21)); return 0; }' > "$pm/p.mc"
  for p in 71 72; do
    target/debug/teeperf record "$pm/p.mc" --pid "$p" --out "$pm/reg/$p" > /dev/null \
      || { echo "cli-smoke: record --pid $p failed"; return 1; }
  done
  target/debug/teeperfd --dir "$pm/reg" --listen 127.0.0.1:0 --snapshot-out "$pm/final.live" \
    < /dev/null > "$pm/out" \
    || { echo "cli-smoke: post-mortem teeperfd failed"; cat "$pm/out"; return 1; }
  grep -qx "attached pids: 71, 72" "$pm/out" \
    || { echo "cli-smoke: post-mortem attached the wrong pids"; cat "$pm/out"; return 1; }
  [ "$(sed -n '/^\[processes\]$/,/^\[/p' "$pm/final.live" | grep -c '^pid 7[12]$')" = 2 ] \
    || { echo "cli-smoke: post-mortem [processes] lacks a pid"; cat "$pm/final.live"; return 1; }
  rm -rf "$pm"
  echo "==> cli-smoke ok"
}
tmo 60 bash -c "$(declare -f cli_smoke); cli_smoke"

# Live determinism: `teeperf live` over one program, run twice by the same
# debug binary — rotating every few events, three budgeted processes with
# retention, batched slots — must print and write the same bytes, host
# pids aside. Keeps scripts/cmp_live.sh (the parent-vs-change check of the
# in-process tier) from rotting.
tmo 60 scripts/cmp_live.sh target/debug/teeperf target/debug/teeperf

# Batch determinism: the seven Phoenix programs recorded once, then every
# batch output scripts/cmp_cli.sh names (89: analyze, query, flamegraph
# and diff, salvaged and cut) made twice by the release `teeperf` and
# compared byte for byte. Keeps the parent-vs-change check of the batch
# analyzer from rotting.
if [ "$mode" != "quick" ]; then
  run cargo build -q --release --offline -p teeperf-cli
  run cargo build -q --release --offline --example record_phoenix
  recordings="$(mktemp -d)"
  tmo 120 target/release/examples/record_phoenix "$recordings" > /dev/null
  tmo 120 scripts/cmp_cli.sh target/release/teeperf target/release/teeperf "$recordings"
  rm -rf "$recordings"
fi

# Regime smoke (ISSUE 10): a calm -> storm -> recovery overload ramp
# through the budgeted fidelity controller. The bin exits non-zero unless
# the budgeted session degrades into Sampled during the storm, settles
# within its loss budget (where the unbudgeted full run blows it),
# accounts for every offered event, and returns to Full during recovery.
# Results go to a scratch dir so the checked-in full-scale JSON stays
# untouched.
if [ "$mode" != "quick" ]; then
  TEEPERF_RESULTS="$(mktemp -d)" \
    tmo 120 cargo run --release --offline -p bench --bin regime_bench -- --smoke
fi

# Paper artifacts: every `crates/bench` bin but fig4_phoenix_overhead
# (about 70 of the 77 s the nine take, and not yet pinned) reruns into a
# scratch dir, which must then hold exactly the other files under
# results/, each equal byte for byte. The bins compute on the virtual
# clock, so a second run writes the same bytes; the one host reading,
# `wall_ms` in BENCH_regime_overhead.json, is masked on both sides. A
# number that moves fails here: regenerate its file in the same commit
# and say why it moved.
if [ "$mode" != "quick" ]; then
  run cargo build -q --release --offline -p bench --bins
  fresh="$(mktemp -d)"
  for bin in ablation_counter_source ablation_epc_paging ablation_reservation \
    ablation_sampling_bias ablation_selective fig5_rocksdb_flamegraph fig6_spdk_casestudy \
    regime_bench; do
    TEEPERF_RESULTS="$fresh" tmo 120 "target/release/$bin" > /dev/null
  done
  diff <(ls "$fresh") <(ls results | grep -vx fig4_phoenix_overhead.txt) \
    || { echo "results: the bins wrote other files than results/ holds"; exit 1; }
  unwalled() { sed -E 's/"wall_ms": [0-9]+/"wall_ms": -/' "$1"; }
  for file in "$fresh"/*; do
    name="$(basename "$file")"
    if [ "$name" = BENCH_regime_overhead.json ]; then
      cmp <(unwalled "$file") <(unwalled "results/$name") \
        || { echo "results: $name moved"; exit 1; }
    else
      cmp "$file" "results/$name" || { echo "results: $name moved"; exit 1; }
    fi
  done
  rm -rf "$fresh"
  echo "==> results ok"
fi

# Product-path benchmark (ISSUE 11/13): `benchmark/` is its own workspace
# building against crates/* by path, so the workspace stages above never
# compile it — a public-API change in a crate it imports would only
# surface when the benchmark driver runs. Build + test the harness and run
# every workload once at smoke length (real teeperfd child, oracle
# checked; non-zero exit on any mismatch). The perf gate below reads the
# run's printed output.
perf="$(mktemp -d)"
tmo 600 cargo test -q --offline --manifest-path benchmark/Cargo.toml
tmo 600 benchmark/run.sh --smoke | tee "$perf/untraced"

# Perf gate: every row of scripts/perf_gate.table — a count or a same-run
# ratio, so host speed cancels — over the output above plus one traced
# smoke run of each workload a traced row names. A run that ends
# incorrect fails here through its exit status. First the evaluator's
# self-check over a canned two-workload output: a row whose metric sits
# under the other workload, a row over its bound and a row whose value is
# not a number must each fail by name, beside a row that holds.
printf '%s\n' '== a ==' 'metric x 2.0 ms' 'observation y 4 ms' '== b ==' 'metric w NaN ms' \
  > "$perf/canned"
printf '%s\n' 'r a y x 2.5 holds' 'r b x 1 9 absent' 'r a x 1 2 over' 'r b w 1 9 nan' \
  > "$perf/rows"
if awk -f scripts/perf_gate.awk "$perf/rows" run=r "$perf/canned" > "$perf/self"; then
  cat "$perf/self"; echo "perf-gate self-check: a table with failing rows passed"; exit 1
fi
for want in '^ok   r a y / x ' '^FAIL r b x / 1 ' '^FAIL r a x / 1 ' '^FAIL r b w / 1 '; do
  grep -q "$want" "$perf/self" \
    || { cat "$perf/self"; echo "perf-gate self-check: no line $want"; exit 1; }
done
for workload in $(awk '$1 == "traced" { print $2 }' scripts/perf_gate.table | sort -u); do
  tmo 120 benchmark/run.sh --workload "$workload" --smoke --trace 1 | tee -a "$perf/traced"
done
run awk -f scripts/perf_gate.awk scripts/perf_gate.table \
  run=untraced "$perf/untraced" run=traced "$perf/traced"

echo "==> ci ok"
