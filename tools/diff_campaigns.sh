#!/usr/bin/env bash
# Runs every registered scenario at quick scale with two sanperf builds and
# diffs each CSV pair at --tol 0.0; exits 1 if any table differs, the two
# builds register different scenario sets, or their `sanperf list` output
# (names, descriptions, axes) differs.
#
#   tools/diff_campaigns.sh <reference sanperf> <candidate sanperf>
#
# scale_n_sweep's wall-clock columns are machine facts, not simulated
# results, so they are left out of its diff (as in check_goldens.sh).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <reference sanperf> <candidate sanperf>" >&2
  exit 2
fi
reference=$1
candidate=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$reference" run --all --scale quick --out-dir "$out/reference" > /dev/null
"$candidate" run --all --scale quick --out-dir "$out/candidate" > /dev/null

failed=0
if ! diff <("$reference" list) <("$candidate" list) >&2; then
  echo "diff_campaigns: the builds list their scenarios differently" >&2
  failed=1
fi
if ! diff <(ls "$out/reference") <(ls "$out/candidate") >&2; then
  echo "diff_campaigns: the builds register different scenarios" >&2
  failed=1
fi
compared=0
for csv in "$out"/reference/*.csv; do
  name=$(basename "$csv")
  [ -f "$out/candidate/$name" ] || continue
  ignore=()
  [ "$name" = scale_n_sweep.csv ] && ignore=(--ignore-cols events_per_s,ns_per_event,peak_rss_mb)
  if ! "$candidate" diff "$csv" "$out/candidate/$name" --tol 0.0 "${ignore[@]}"; then
    echo "diff_campaigns: ${name%.csv} differs" >&2
    failed=1
  fi
  compared=$((compared + 1))
done
echo "diff_campaigns: compared $compared scenario(s)"
exit $failed
