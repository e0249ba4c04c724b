#!/usr/bin/env bash
# scripts/identity.sh OUTDIR [SECTION ...]
#
# Writes the artifact set behind the ground rule "no product byte moved
# is shown with `cmp`" into OUTDIR and checks the equalities that must
# hold *inside* one build: thread count, probe lane, fleet and service
# never change a byte. Two OUTDIRs, one written by a parent build and
# one by a change build, are compared with `diff -r` — every file in
# OUTDIR is a deterministic product artifact (stderr, ports and paths
# stay out of it).
#
# Sections (default: all): repro scalar lossy run cluster fleet
# fleetchaos serve degraded.
# `scalar` compares against `repro`'s artifacts, `cluster`, `fleet` and
# `serve` against `run`'s; each writes what it needs if it is missing.
# Builds `clientmap` from the checkout this script lives in, into
# ${CARGO_TARGET_DIR:-target}.
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 OUTDIR [SECTION ...]" >&2; exit 2; }
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
shift
[ $# -gt 0 ] || set -- repro scalar lossy run cluster fleet fleetchaos serve degraded
for section in "$@"; do
  case $section in
    repro | scalar | lossy | run | cluster | fleet | fleetchaos | serve | degraded) ;;
    *) echo "identity.sh: unknown section $section" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
ROOT=$PWD
cargo build --release -p clientmap
BIN=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)

# stderr of every process lands here: shown on failure, never compared.
LOGS=$(mktemp -d)
finish() {
  local status=$?
  local pids
  pids=$(jobs -p)
  [ -z "$pids" ] || kill $pids 2>/dev/null || true
  [ $status -eq 0 ] || { echo "identity.sh: FAILED — stderr of the runs:" >&2; tail -n 20 "$LOGS"/* >&2 || true; }
  rm -rf "$LOGS"
}
trap finish EXIT

same() { cmp "$1" "$2" || { echo "identity.sh: $1 and $2 differ" >&2; exit 1; }; }
has() { grep -Eq -- "$1" "$2" || { echo "identity.sh: $2 lacks /$1/" >&2; exit 1; }; }

# Blocks until the process writing FILE has announced its listener;
# prints the bound address (everything is started on port 0).
listening() {
  until grep -q 'listening on' "$1" 2>/dev/null; do sleep 0.1; done
  sed -n 's/.*listening on //p' "$1" | head -n 1
}

# `clientmap repro all` on one lane, at 1 and 4 threads:
# CLIENTMAP_THREADS is a pure performance dial, fault plan included.
repro_lane() { # repro_lane LANE FLAGS...
  local lane=$1 d=$OUT/repro t
  shift
  mkdir -p "$d"
  for t in 1 4; do
    CLIENTMAP_THREADS=$t "$BIN/clientmap" repro --scale tiny "$@" \
      --metrics "$d/t$t.$lane.json" all > "$d/t$t.$lane.txt" 2> "$LOGS/repro.t$t.$lane"
  done
  same "$d/t1.$lane.txt" "$d/t4.$lane.txt"
  same "$d/t1.$lane.json" "$d/t4.$lane.json"
}
# Two lanes, one set of bytes: `lanes_agree LANE FLAGS...` writes LANE
# on the batched lane and LANE-scalar on its wire oracle.
lanes_agree() {
  local lane=$1 d=$OUT/repro
  shift
  repro_lane "$lane" "$@"
  repro_lane "$lane-scalar" "$@" --scalar-probing
  same "$d/t1.$lane.txt" "$d/t1.$lane-scalar.txt"
  same "$d/t1.$lane.json" "$d/t1.$lane-scalar.json"
}
section_repro() { repro_lane default --seed 2021; }
# The batched lane and its scalar oracle print the same bytes.
section_scalar() {
  local d=$OUT/repro
  [ -f "$d/t4.default.json" ] || section_repro
  repro_lane scalar --seed 2021 --scalar-probing
  same "$d/t1.default.txt" "$d/t1.scalar.txt"
  same "$d/t1.default.json" "$d/t1.scalar.json"
}
# Under faults too: every faulted, rescue and calibration probe rides
# the batched lane byte-free, and the wire oracle lands the same bytes.
# Seed 7 under pop-churn adds outages, flaps, breaker trips and the
# rescue phase.
section_lossy() {
  lanes_agree lossy --seed 2021 --faults lossy --fault-seed 5
  has 'Robustness' "$OUT/repro/t1.lossy.txt"
  has 'unmeasured' "$OUT/repro/t1.lossy.txt"
  lanes_agree churn --seed 7 --faults pop-churn --fault-seed 3
  has '^scopes rescued at fallback PoPs +[1-9]' "$OUT/repro/t1.churn.txt"
}

# `clientmap run`: cold, warm replay, and a 10 % expiry re-sweep.
# Stored stdout drops the `wrote snapshot PATH` line (it names OUTDIR).
run_to() { # run_to STEM FLAGS... : stdout, metrics and snapshot under STEM
  local stem=$1
  shift
  "$BIN/clientmap" run --scale tiny "$@" \
    --snapshot-out "$stem.snap" --metrics "$stem.json" 2> "$LOGS/$(basename "$stem")" \
    | grep -v '^wrote snapshot ' > "$stem.txt"
}
section_run() {
  local d=$OUT/run t step ext
  mkdir -p "$d"
  for t in 1 4; do
    CLIENTMAP_THREADS=$t run_to "$d/t$t.cold" --seed 2021
    CLIENTMAP_THREADS=$t run_to "$d/t$t.warm" --seed 2021 --snapshot-in "$d/t$t.cold.snap"
    CLIENTMAP_THREADS=$t run_to "$d/t$t.expiry" --seed 2021 \
      --snapshot-in "$d/t$t.cold.snap" --expiry-budget 0.1
    # A replay from the snapshot probes nothing and prints the cold
    # run's report under one extra line.
    has '0 probed live' "$d/t$t.warm.txt"
    has 'expired' "$d/t$t.expiry.txt"
    grep -v '^warm start:' "$d/t$t.warm.txt" | cmp - "$d/t$t.cold.txt"
  done
  for step in cold warm expiry; do
    for ext in txt json snap; do same "$d/t1.$step.$ext" "$d/t4.$step.$ext"; done
  done
}

# `clientmap run --clustered-probing`: cold, a full-expiry re-sweep from
# the exhaustive cold snapshot, a second re-sweep chained from that one
# (its escalation reads stored confidence tags), and re-sweeps at
# epsilon 0.02 and 0.6 — the planner's keyed join and its full scan.
# Then a 2-worker fleet re-sweep lands the one-process bytes.
section_cluster() {
  local d=$OUT/cluster r=$OUT/run t step ext
  [ -f "$r/t4.cold.snap" ] || section_run
  mkdir -p "$d"
  for t in 1 4; do
    CLIENTMAP_THREADS=$t run_to "$d/t$t.cold" --seed 2021 --clustered-probing
    CLIENTMAP_THREADS=$t run_to "$d/t$t.resweep" --seed 2021 --clustered-probing \
      --snapshot-in "$r/t$t.cold.snap" --expiry-budget 1
    CLIENTMAP_THREADS=$t run_to "$d/t$t.chain" --seed 2021 --clustered-probing \
      --snapshot-in "$d/t$t.resweep.snap" --expiry-budget 1
    CLIENTMAP_THREADS=$t run_to "$d/t$t.eps002" --seed 2021 --clustered-probing \
      --snapshot-in "$r/t$t.cold.snap" --expiry-budget 1 --cluster-epsilon 0.02
    CLIENTMAP_THREADS=$t run_to "$d/t$t.eps06" --seed 2021 --clustered-probing \
      --snapshot-in "$r/t$t.cold.snap" --expiry-budget 1 --cluster-epsilon 0.6
  done
  for step in cold resweep chain eps002 eps06; do
    has 'Cluster ablation' "$d/t1.$step.txt"
    for ext in txt json snap; do same "$d/t1.$step.$ext" "$d/t4.$step.$ext"; done
  done
  has 'live-probe ratio' "$d/t1.cold.txt"
  # The ablation section is gated on the planner's counters.
  if grep -q 'Cluster ablation' "$r/t1.cold.txt"; then
    echo "identity.sh: the exhaustive cold run prints the cluster section" >&2
    exit 1
  fi
  fleet "$d/fleet" "$d/t4.resweep" -- --seed 2021 --clustered-probing \
    --snapshot-in "$r/t4.cold.snap" --expiry-budget 1
  has 'Cluster ablation' "$d/fleet.txt"
}

# A 2-worker `driver` must land the bytes of the one-process `run`.
fleet() { # fleet STEM REFERENCE-STEM WORKER2-FLAGS -- RUN-FLAGS...
  local stem=$1 ref=$2 crash=() addrs=() w tag ext
  shift 2
  while [ "$1" != -- ]; do crash+=("$1"); shift; done
  shift
  tag=$(basename "$stem")
  CLIENTMAP_THREADS=1 "$BIN/clientmap" worker --listen 127.0.0.1:0 --once \
    > "$LOGS/$tag.w1.out" 2> "$LOGS/$tag.w1" &
  CLIENTMAP_THREADS=1 "$BIN/clientmap" worker --listen 127.0.0.1:0 --once "${crash[@]}" \
    > "$LOGS/$tag.w2.out" 2> "$LOGS/$tag.w2" &
  for w in 1 2; do addrs+=("$(listening "$LOGS/$tag.w$w.out")"); done
  "$BIN/clientmap" driver --scale tiny "$@" --workers "${addrs[0]},${addrs[1]}" \
    --snapshot-out "$stem.snap" --metrics "$stem.json" 2> "$LOGS/$tag.driver" \
    | grep -v '^wrote snapshot ' > "$stem.txt"
  wait # for both workers (`--once`; a crashed one exits 17 by design)
  for ext in txt json snap; do same "$stem.$ext" "$ref.$ext"; done
}
section_fleet() {
  local d=$OUT/fleet r=$OUT/run
  [ -f "$r/t4.expiry.snap" ] || section_run
  mkdir -p "$d"
  fleet "$d/cold" "$r/t4.cold" -- --seed 2021
  fleet "$d/expiry" "$r/t4.expiry" -- --seed 2021 \
    --snapshot-in "$r/t4.cold.snap" --expiry-budget 0.1
}
# Under faults, with one worker dying after its first shard: the shard
# is re-queued and the merge is still the one-process run's.
section_fleetchaos() {
  local d=$OUT/fleetchaos
  mkdir -p "$d"
  CLIENTMAP_THREADS=4 run_to "$d/lossy.ref" --seed 2021 --faults lossy --fault-seed 7
  fleet "$d/lossy" "$d/lossy.ref" --fail-after 1 -- --seed 2021 \
    --faults lossy --fault-seed 7 --shards 4
  has 're-queued shard' "$LOGS/lossy.driver"
  # Seed 7 under pop-churn quarantines two PoPs: the run in which
  # rescue frames cross a socket.
  CLIENTMAP_THREADS=4 run_to "$d/churn.ref" --seed 7 --faults pop-churn --fault-seed 3
  has '^scopes rescued at fallback PoPs +[1-9]' "$d/churn.ref.txt"
  fleet "$d/churn" "$d/churn.ref" -- --seed 7 --faults pop-churn --fault-seed 3
  has 'rescue shard 1 done' "$LOGS/churn.driver"
}

# One service lifetime in its own directory (the summary line names the
# log by the path it was given): replies, log, snapshot, summary.
service() { # service DIR TRACE FLAGS...
  local dir=$1 trace=$2 addr
  shift 2
  mkdir -p "$dir"
  (
    cd "$dir"
    rm -f run.cmel run.cmel.base
    "$BIN/clientmap" serve --scale tiny --seed 2021 --listen 127.0.0.1:0 \
      --event-log run.cmel "$@" > serve.out 2> "$LOGS/$(basename "$dir").serve" &
    addr=$(listening serve.out)
    "$BIN/clientmap" query --connect "$addr" --trace "$trace" > replies.txt \
      2> "$LOGS/$(basename "$dir").query"
    wait
    grep -v 'listening on' serve.out > summary.txt
    rm serve.out
  )
}
section_serve() {
  local d=$OUT/serve r=$OUT/run t f
  [ -f "$r/t4.warm.snap" ] || section_run
  mkdir -p "$d"
  printf 'gen 3\ninfo\nstop\n' > "$d/chain.trace"
  for t in 1 4; do
    CLIENTMAP_THREADS=$t service "$d/t$t" "$ROOT/tests/golden/serve_trace_tiny_2021.txt" \
      --sweeps 2 --snapshot-out run.snap
    same "$d/t$t/replies.txt" "$ROOT/tests/golden/serve_replies_tiny_2021.txt"
    # Session vs one-shot oracle: two resident sweeps end where two
    # chained `run` processes do …
    same "$d/t$t/run.snap" "$r/t$t.warm.snap"
    # … and three, whose later sweeps assign from what the session
    # kept, where three do.
    CLIENTMAP_THREADS=$t run_to "$d/t$t.third" --seed 2021 --snapshot-in "$r/t$t.warm.snap"
    CLIENTMAP_THREADS=$t service "$d/t$t.chain" "$d/chain.trace" --sweeps 3 --snapshot-out run.snap
    same "$d/t$t.chain/run.snap" "$d/t$t.third.snap"
  done
  for f in replies.txt run.cmel run.snap summary.txt; do
    same "$d/t1/$f" "$d/t4/$f"
    same "$d/t1.chain/$f" "$d/t4.chain/$f"
  done
  for ext in txt json snap; do same "$d/t1.third.$ext" "$d/t4.third.$ext"; done
}

# Sweep 2 of 3 dies by injection: generation 1 keeps answering with the
# flag raised and the death is a record in the log.
section_degraded() {
  local d=$OUT/degraded
  mkdir -p "$d"
  printf 'gen 1\ngen 3\ninfo\ntop 5\nstop\n' > "$d/trace.txt"
  CLIENTMAP_THREADS=2 service "$d" "$d/trace.txt" --sweeps 3 --fail-sweep 2
  has 'never be published' "$d/replies.txt"
  has 'degraded=1' "$d/replies.txt"
  has '^top ' "$d/replies.txt"
  has 'DEGRADED' "$d/summary.txt"
  has '1 sweeps published' "$d/summary.txt"
}

for section in "$@"; do
  "section_$section"
  echo "identity.sh: $section ok"
done
