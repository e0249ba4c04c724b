#!/usr/bin/env bash
# Does the benchmark agree with itself? Two interleaved sets (A B A B …)
# of RUNS runs per workload of the same build; per ⟨workload, metric⟩
# prints both sets' quartiles, their spread (IQR / median) and the shift
# of B's median against A's, and exits non-zero if any shift exceeds the
# metric's bound. Every run uses another --seed, as the acceptance rule
# does; the last section pools both sets, which at RUNS=5 is that rule's
# ten runs with ten seeds.
#
#   bash benchmark/selfcheck.sh [RUNS=5] [FIRST_SEED=2021] [extra run.sh flags…]
#
# About 2 × RUNS × 3 × 33 s. Result lines land in
# ${CARGO_TARGET_DIR:-benchmark/target}/selfcheck/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
first_seed="${2:-2021}"
shift $(($# < 2 ? $# : 2))
out="${CARGO_TARGET_DIR:-$here/target}/selfcheck"
rm -rf "$out"
mkdir -p "$out"

echo "selfcheck: host_cores $(nproc), $runs runs per set, seeds from $first_seed, flags: $*"
for ((i = 0; i < runs; i++)); do
  for set in A B; do
    seed=$((first_seed + 2 * i))
    [[ $set == B ]] && seed=$((seed + 1))
    for workload in cold_sweep lossy_sweep serve_mixed; do
      echo "selfcheck: set $set run $((i + 1))/$runs $workload --seed $seed" >&2
      bash "$here/run.sh" --workload "$workload" --seed "$seed" "$@" 2>/dev/null |
        tail -n 1 >>"$out/$workload.$set.jsonl"
    done
  done
done

status=0
for workload in cold_sweep lossy_sweep serve_mixed; do
  echo
  echo "== $workload"
  bash "$here/run.sh" --compare "$out/$workload.A.jsonl" "$out/$workload.B.jsonl" 2>&1 || status=1
done
echo
if [[ $status == 0 ]]; then
  echo "selfcheck: every pair of medians agrees within its bound"
else
  echo "selfcheck: FAILED - a pair of medians disagrees beyond its bound"
fi

echo
echo "== both sets pooled ($((2 * runs)) runs, $((2 * runs)) seeds per workload): the spread the acceptance rule takes"
for workload in cold_sweep lossy_sweep serve_mixed; do
  cat "$out/$workload.A.jsonl" "$out/$workload.B.jsonl" >"$out/$workload.pooled.jsonl"
  echo
  echo "== $workload"
  bash "$here/run.sh" --compare "$out/$workload.pooled.jsonl" 2>&1
done
exit $status
