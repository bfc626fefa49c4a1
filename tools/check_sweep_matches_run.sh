#!/usr/bin/env bash
# Sweep-vs-run gate: the `--sweep-seeds=1` row of tools/<demo>.ini must
# report the single run's last pass. Requests match exactly; MB/s and mean
# latency to the precision both lines print (the pass line rounds to 0.1
# MB/s and 1 us, the row to 0.01 and 0.1, so they may differ by the sum of
# half units). Paths resolve as in check_demo_output.sh.
#
#   check_sweep_matches_run.sh <s4dsim> <source-root> <demo>
set -euo pipefail
s4dsim=$(realpath "$1")
cd "$(realpath "$2")"
pass=$("$s4dsim" "tools/$3.ini" | grep '^pass ' | tail -n 1)
row=$("$s4dsim" --sweep-seeds=1 "tools/$3.ini" | awk 'NF == 6 && $1 ~ /^[0-9]+$/')
printf 'run:   %s\nsweep: %s\n' "$pass" "$row"
re='^pass [0-9]+: ([0-9.]+) MB/s \(([0-9]+) requests, .*latency ([0-9]+) us'
[[ $pass =~ $re ]] || { echo "no pass line" >&2; exit 1; }
awk -v rm="${BASH_REMATCH[1]}" -v rr="${BASH_REMATCH[2]}" \
    -v rl="${BASH_REMATCH[3]}" -v row="$row" '
  function abs(x) { return x < 0 ? -x : x }
  BEGIN {
    split(row, f, " ")
    ok = f[3] != "" && rr == f[3] && abs(rm - f[2]) <= 0.0551 &&
         abs(rl - f[4]) <= 0.551
    if (!ok) print "sweep row does not match the last pass" > "/dev/stderr"
    exit !ok
  }'
