#!/usr/bin/env bash
# Golden-output gate for one demo config: runs s4dsim on tools/<demo>.ini
# with --metrics-out and compares its stdout and the metrics JSON byte for
# byte against tests/fixtures/demo_outputs/<demo>.stdout and
# <demo>.metrics.json.
#
#   check_demo_output.sh [--record] <s4dsim> <source-root> <demo>
#
# The run happens in a scratch directory that links the source tree's
# tools/ and examples/, so every path the run prints is relative and the
# fixtures do not depend on where the tree is checked out. --record writes
# the fixtures instead of comparing; use it only for a deliberate output
# change and review the fixture diff.
set -euo pipefail

record=0
if [[ "${1:-}" == "--record" ]]; then
  record=1
  shift
fi
if [[ $# -ne 3 ]]; then
  echo "usage: $0 [--record] <s4dsim> <source-root> <demo>" >&2
  exit 2
fi
s4dsim=$(realpath "$1")
root=$(realpath "$2")
demo=$3
fixtures="$root/tests/fixtures/demo_outputs"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
ln -s "$root/tools" "$work/tools"
ln -s "$root/examples" "$work/examples"

(cd "$work" && "$s4dsim" "tools/$demo.ini" --metrics-out=metrics.json \
  > stdout.txt)

if [[ $record -eq 1 ]]; then
  mkdir -p "$fixtures"
  cp "$work/stdout.txt" "$fixtures/$demo.stdout"
  cp "$work/metrics.json" "$fixtures/$demo.metrics.json"
  echo "recorded $fixtures/$demo.{stdout,metrics.json}"
  exit 0
fi

status=0
for pair in "stdout.txt:$demo.stdout" "metrics.json:$demo.metrics.json"; do
  actual="$work/${pair%%:*}"
  expected="$fixtures/${pair#*:}"
  if ! cmp -s "$expected" "$actual"; then
    echo "MISMATCH: $demo ${pair%%:*} differs from ${pair#*:}" >&2
    diff -u "$expected" "$actual" | head -40 >&2 || true
    status=1
  fi
done
exit $status
