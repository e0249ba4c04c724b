#!/usr/bin/env bash
# Schema smoke test: every workload once on the tiny world with K = 1
# (`--smoke`), untraced and traced, each result line validated against
# the metric tables. Seconds, not a measurement — for CI to wire in.
#
#   bash benchmark/smoke.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
start=$SECONDS
for trace in 0 1; do
  for workload in cold_sweep lossy_sweep serve_mixed; do
    echo "smoke: $workload --trace $trace" >&2
    bash "$here/run.sh" --workload "$workload" --smoke --trace "$trace" 2>/dev/null |
      bash "$here/run.sh" --validate "$trace" 2>/dev/null
  done
done
echo "smoke: ok in $((SECONDS - start)) s"
