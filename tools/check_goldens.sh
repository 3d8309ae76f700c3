#!/usr/bin/env bash
# Runs the seven quick-scale golden scenarios and diffs each CSV against
# bench/golden/ at the given tolerance; exits 1 if any differs.
#
#   tools/check_goldens.sh <path to sanperf> <tol>
#
# --tol 0.0 demands the exact bits (the goldens are generated with gcc 12);
# another compiler needs a tolerance such as 0.10.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <sanperf> <tol>" >&2
  exit 2
fi
sanperf=$1
tol=$2
golden=$(cd "$(dirname "$0")/../bench/golden" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
for pair in table1:table1_quick \
            crash_recovery_latency:crash_recovery_quick \
            load_latency_sweep:load_latency_quick \
            batch_throughput_sweep:batch_throughput_quick \
            recovery_under_load:recovery_under_load_quick \
            rack_loss_consensus:rack_loss_quick \
            scale_n_sweep:scale_n_quick; do
  scen=${pair%%:*}
  g=${pair##*:}
  # The scaling sweep's wall-clock columns are machine facts, not
  # simulated results; only the simulated columns are golden.
  ignore=()
  [ "$g" = scale_n_quick ] && ignore=(--ignore-cols events_per_s,ns_per_event,peak_rss_mb)
  SANPERF_THREADS=8 "$sanperf" run "$scen" --scale quick --format csv --out "$out/$g.csv"
  if ! "$sanperf" diff "$golden/$g.csv" "$out/$g.csv" --tol "$tol" "${ignore[@]}"; then
    echo "check_goldens: $g differs at --tol $tol" >&2
    failed=1
  fi
done
exit $failed
