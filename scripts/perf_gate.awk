# The perf gate's evaluator: checks every row of a gate table (see
# scripts/perf_gate.table) against the benchmark output the row names.
#
#   awk -f scripts/perf_gate.awk scripts/perf_gate.table \
#       run=untraced <output> run=traced <output>
#
# The table comes first and is read while `run` is unset; each output file
# is read under the `run` assigned before it. A value is keyed by its run,
# the `== <workload> ==` header above it and the name of its `metric` or
# `observation` line. Prints every row with its value, `ok` or `FAIL`, and
# exits 1 if any row fails. It fails closed: a metric or divisor that is
# missing or not a number, a zero divisor, a row without a bound or a
# reason, and an empty table all fail.

function numeric(s) {
  return s ~ /^[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$/
}

# `name` under `run` and `workload`: a constant, or the number on that
# metric's line in the run's output; "" when there is none.
function lookup(run, workload, name,    v) {
  v = numeric(name) ? name : value[run, workload, name]
  return numeric(v) ? v + 0 : ""
}

# Why the row split into f[1..n] fails, or "" when it holds; sets `shown`
# to its ratio.
function check(f, n,    m, d) {
  shown = "?"
  if (n < 6 || !numeric(f[5])) return "want run, workload, metric, divisor, bound and reason"
  if ((m = lookup(f[1], f[2], f[3])) == "") return f[3] " is missing or not a number"
  if ((d = lookup(f[1], f[2], f[4])) == "" || d == 0) return f[4] " is missing, zero or not a number"
  shown = sprintf("%.6g", m / d)
  return m / d < f[5] + 0 ? "" : "over its bound"
}

run == "" && $0 !~ /^[ \t]*(#|$)/ { rows[++n] = $0 }
run == "" { next }
FNR == 1 { workload = "" }
/^== [^ ]+ ==$/ { workload = $2; next }
workload != "" && ($1 == "metric" || $1 == "observation") { value[run, workload, $2] = $3 }

END {
  if (n == 0) {
    print "FAIL the gate table has no rows"
    exit 1
  }
  for (i = 1; i <= n; i++) {
    k = split(rows[i], f)
    why = check(f, k)
    failed += why != ""
    printf "%s %s %s %s / %s = %s < %s%s\n", why == "" ? "ok  " : "FAIL", f[1], f[2], f[3], f[4],
      shown, f[5], why == "" ? "" : ": " why
  }
  exit failed > 0
}
