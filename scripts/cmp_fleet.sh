#!/usr/bin/env bash
# Byte-compare two builds of teeperfd over ONE fleet — the check behind a
# "responses are byte-identical" claim (first used for ISSUE 17).
#
#   scripts/cmp_fleet.sh <parent teeperfd> <change teeperfd> <teeperf-shm-writer>
#
# Both daemons watch the same registration directory, so they attach the
# same <pid>.tplog files of the same five teeperf-shm-writer processes
# (four finish, one is SIGKILLed and quarantined), with retention on. One
# log holds 80 002 entries, which a daemon's first pump drains in twenty
# bulk reads.
# Every body — /snapshot, fleet and per-pid /query spans and diffs,
# /windows, /pid/<n> and /flame.svg?pid=<n> of a live and of the retired
# pid, /flame.svg, /metrics, the --snapshot-out file — must compare equal
# with cmp, and the change must answer 200 on the three retired-pid routes:
# /pid/<n>, /flame.svg?pid=<n> and /query?windows=all&pid=<n>. The /query
# bodies cover every clause a ranked query takes: windows= last, a range
# (read off /windows) and all; pid= of a live and of the retired pid;
# tid=, method=, by= each column, and top= N and 0. The diff= bodies
# cover two windows either way round, a window against itself, a window
# no session holds (404: the change must answer it), pid= of a live and
# of the retired pid, and a diff carrying ranked clauses, which the change
# must refuse (400): by= and top=, and tid= and method= as well. A parent
# that answered `diff=1,2&by=calls&top=1` (200: it ignored by= and top=)
# is the one difference allowed. Exit 0 iff all of that holds.
set -euo pipefail
parent=$1 change=$2 writer=$3
dir=$(mktemp -d /dev/shm/cmp-fleet.XXXXXX)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$dir"' EXIT
reg=$dir/reg; mkdir "$reg"
get() { curl -s -o "$2" -w '%{http_code}' "http://$1$3"; }

# The fleet first, so both daemons meet all of it in their first scan.
"$writer" --dir "$reg" --iterations 7 --interval-ms 2
"$writer" --dir "$reg" --iterations 5
"$writer" --dir "$reg" --iterations 9
"$writer" --dir "$reg" --iterations 20000 --capacity 81920
"$writer" --dir "$reg" --iterations 3 --hold & doomed=$!
while [ ! -e "$reg/$doomed.tplog" ]; do sleep 0.05; done; sleep 0.3

declare -A addr
for side in parent change; do
  mkfifo "$dir/$side.stdin"
  "${!side}" --dir "$reg" --listen 127.0.0.1:0 --pump-ms 5 \
      --window-interval 12 --retain 16 --snapshot-out "$dir/$side.final" \
      < "$dir/$side.stdin" > "$dir/$side.out" &
  if [ "$side" = parent ]; then exec 3> "$dir/$side.stdin"; else exec 4> "$dir/$side.stdin"; fi
  until grep -q 'listening on' "$dir/$side.out"; do sleep 0.05; done
  addr[$side]=$(sed -n 's/.*listening on //p' "$dir/$side.out")
done

want=$(( (2 + 4*7) + (2 + 4*5) + (2 + 4*9) + (2 + 4*20000) + (2 + 4*3) ))
for side in parent change; do
  until get "${addr[$side]}" "$dir/$side.body" /snapshot >/dev/null \
        && grep -q "^events $want\$" "$dir/$side.body"; do sleep 0.05; done
done
kill -9 "$doomed"; wait "$doomed" 2>/dev/null || true
for side in parent change; do
  until get "${addr[$side]}" "$dir/$side.body" /metrics >/dev/null \
        && grep -q '^teeperf_quarantined_total 1$' "$dir/$side.body"; do sleep 0.05; done
done

status=0
alive=$(basename "$(ls "$reg"/*.tplog | grep -v "/$doomed\.tplog" | head -1)" .tplog)
# A range of windows some slot lies fully inside: the second listed
# window's first index up to the sixth's last. Both daemons are asked, so
# /metrics counts the same requests on each side.
get "${addr[parent]}" "$dir/windows.body" /windows >/dev/null
get "${addr[change]}" "$dir/windows.body" /windows >/dev/null
range=$(awk '$3 == "window" { split($4, w, /\.\.=/); n++
               if (n == 2) a = w[1]; if (n == 6) b = w[2] }
             END { if (b < a) b = a; print a "..=" b }' "$dir/windows.body")
for path in /snapshot '/query?windows=last:5&top=10' '/query?diff=1,2' /windows \
            "/query?windows=all&pid=$alive" "/query?diff=1,2&pid=$alive" \
            "/query?windows=all&pid=$doomed" "/query?windows=last:5&pid=$doomed" \
            '/query?windows=all&tid=0' '/query?windows=all&tid=1' \
            '/query?windows=all&method=or' '/query?windows=last:5&by=total' \
            '/query?windows=all&by=calls&top=0' "/query?windows=$range" \
            '/query?diff=2,1' '/query?diff=3,3' '/query?diff=1,99' \
            "/query?diff=1,2&pid=$doomed" '/query?diff=1,2&by=calls&top=1' \
            '/query?diff=1,2&tid=1&method=or&by=calls&top=1' \
            "/pid/$alive" /flame.svg /metrics \
            "/pid/$doomed" "/flame.svg?pid=$doomed"; do
  pc=$(get "${addr[parent]}" "$dir/parent.body" "$path")
  cc=$(get "${addr[change]}" "$dir/change.body" "$path")
  # The one line of any body that counts loop iterations since start.
  sed -i '/^teeperf_scans_total /d' "$dir/parent.body" "$dir/change.body"
  if [ "$pc" = "$cc" ] && cmp -s "$dir/parent.body" "$dir/change.body"; then
    echo "equal   $pc $(wc -c < "$dir/change.body") bytes  $path"
  elif [ "$path" = '/query?diff=1,2&by=calls&top=1' ] && [ "$pc" = 200 ] && [ "$cc" = 400 ]; then
    echo "refused $cc (parent $pc: it ignored by= and top=)  $path"
  else
    echo "DIFFER  parent $pc, change $cc  $path"; status=1
    diff "$dir/parent.body" "$dir/change.body" | head -20 || true
  fi
  # A retired pid answers for itself.
  case $path in "/pid/$doomed" | "/flame.svg?pid=$doomed" | "/query?windows=all&pid=$doomed")
    [ "$cc" = 200 ] || { echo "NOT 200 change $cc  $path"; status=1; } ;;
  esac
  # A diff carrying a ranked clause is refused.
  case $path in '/query?diff=1,2&by=calls&top=1' | '/query?diff=1,2&tid=1&method=or&by=calls&top=1')
    [ "$cc" = 400 ] || { echo "NOT 400 change $cc  $path"; status=1; } ;;
  esac
  # A window no session holds is not found.
  if [ "$path" = '/query?diff=1,99' ] && [ "$cc" != 404 ]; then
    echo "NOT 404 change $cc  $path"; status=1
  fi
done
exec 3>&- 4>&-
wait
if cmp -s "$dir/parent.final" "$dir/change.final"; then
  echo "equal   --snapshot-out $(wc -c < "$dir/change.final") bytes"
else
  echo "DIFFER  --snapshot-out"; status=1
fi
grep -c '^quarantined pid' "$dir/change.final" | sed 's/^/quarantine events in the final snapshot: /'
exit $status
