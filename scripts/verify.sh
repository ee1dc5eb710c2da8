#!/usr/bin/env bash
# Tier-1 verification plus small-N smoke runs of the paper binaries.
#
# This is what CI runs and what a developer runs before pushing: the
# whole thing is offline (path-only dependency graph, --locked) and
# finishes in a few minutes on one core. Thread count only changes
# wall-clock time, never a number — the workspace tests prove it
# (tests/determinism.rs) on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier 1: release build"
cargo build --release --locked

echo "==> tier 1: test suite (workspace)"
cargo test -q --workspace --locked

echo "==> verdicts: every class of the full-size fig4 and fig5 populations"
# #[ignore]d in the tier-1 suite (about a minute on two threads): the
# referee for any change to solver arithmetic, against
# tests/golden/verdicts_fig4.txt and verdicts_fig5.txt. The other
# ignored test there, the dt/2 step-size audit, is a report run by hand.
cargo test -q --release --locked --test verdicts -- --ignored \
    full_fig4_and_fig5_verdicts_match_the_goldens

echo "==> benchmark tracer: builds against the current public API"
# A package of its own outside the workspace (campaign_bench/tracer), so
# the steps above never compile it; its target dir stays out of
# campaign_bench/.
CARGO_TARGET_DIR=target/tracer cargo build --release --offline --locked \
    --manifest-path campaign_bench/tracer/Cargo.toml

echo "==> smoke: table1 (small sprinkle) against its golden"
# The pilot goes through sprinkle_collapsed and the full run through
# recount: a population drift on either path changes this stdout.
table1_smoke=$(DOTM_DEFECTS=4000 DOTM_TABLE1_FULL=100000 \
    cargo run --release --locked -p dotm-bench --bin table1)
echo "$table1_smoke"
diff tests/golden/table1_smoke.txt <(echo "$table1_smoke") || {
    echo "FAIL: table1 smoke differs from tests/golden/table1_smoke.txt"; exit 1; }

echo "==> smoke: fig4 (truncated classes, small good space)"
fig4_plain=$(DOTM_DEFECTS=3000 DOTM_MAX_CLASSES=10 DOTM_GS_COMMON=3 DOTM_GS_MM=2 \
    cargo run --release --locked -p dotm-bench --bin fig4)
echo "$fig4_plain"

echo "==> smoke: failure accounting on the fixed-seed comparator run"
# The table2 run prints the solver-accounting block; on a healthy
# paper-parity run every failure counter must be present AND zero —
# a non-zero count means solver failures are being papered over.
acct=$(DOTM_DEFECTS=3000 DOTM_MAX_CLASSES=10 DOTM_GS_COMMON=3 DOTM_GS_MM=2 \
    cargo run --release --locked -p dotm-bench --bin table2)
echo "$acct" | grep -q "sim-failed classes:    0" || {
    echo "FAIL: sim-failed counter missing or non-zero"; echo "$acct"; exit 1; }
echo "$acct" | grep -q "inject-failed classes: 0" || {
    echo "FAIL: inject-failed counter missing or non-zero"; echo "$acct"; exit 1; }
echo "$acct" | grep -q "ladder-rung histogram:" || {
    echo "FAIL: ladder-rung histogram missing"; echo "$acct"; exit 1; }
echo "    failure counters present and zero"

echo "==> persistence: campaign store cold -> warm -> kill/resume -> corrupt"
# The persistent-campaign gate, on a small fixed-seed configuration:
#   1. cold run populates the store;
#   2. warm reruns, at the default and at 4 threads, must answer
#      *everything* from the store (DOTM_EXPECT_WARM makes the binary
#      itself exit non-zero on any computed measurement), with identical
#      fingerprints and an identical Fig. 4 report;
#   3. a run killed via the injected abort and resumed must land on the
#      same fingerprints;
#   4. a corrupted store entry must degrade to a recomputed miss — same
#      fingerprints, clean exit — never a wrong verdict or a crash.
store_dir=$(mktemp -d)
trap 'rm -rf "$store_dir"' EXIT
camp_env=(DOTM_DEFECTS=2000 DOTM_MAX_CLASSES=8 DOTM_GS_COMMON=2 DOTM_GS_MM=2
    DOTM_STORE_DIR="$store_dir")
camp_cmd="cargo run --release --locked -p dotm-bench --bin campaign"
fingerprints() { grep -o 'fingerprint=[0-9a-f]*' || true; }
# The report body must be identical run to run; only the store counters
# (which exist to show the effort difference) may move. Wall-clock never
# appears on stdout — the report is a pure function of config + store.
strip_effort() {
    sed -E -e 's/ +store: [^ ]+( [a-z_]+=[0-9]+)*//' \
        -e '/^campaign store accounting:/d'
}

cold=$(env "${camp_env[@]}" $camp_cmd)
warm=$(env "${camp_env[@]}" DOTM_EXPECT_WARM=1 $camp_cmd)
echo "$warm" | grep -q "hit_rate=100.0%" || {
    echo "FAIL: warm campaign missed the store"; echo "$warm"; exit 1; }
echo "$warm" | grep -q " computed=0 " || {
    echo "FAIL: warm campaign ran the solver"; echo "$warm"; exit 1; }
diff <(echo "$cold" | strip_effort) <(echo "$warm" | strip_effort) || {
    echo "FAIL: warm campaign changed a reported number"; exit 1; }
warm4=$(env "${camp_env[@]}" DOTM_THREADS=4 DOTM_EXPECT_WARM=1 $camp_cmd)
diff <(echo "$cold" | strip_effort) <(echo "$warm4" | strip_effort) || {
    echo "FAIL: 4-thread warm campaign changed a reported number"; exit 1; }
echo "    warm reruns at default and 4 threads: 100% store hits, identical report;"
echo "    only the four unstored nominals solved (the comparator's replays)"

# An injected abort is an interruption at a resumable point: its exit
# code is the INTERRUPTED contract value (5), not success and not a
# generic failure — supervisors requeue on it without parsing output.
set +e
aborted_out=$(env "${camp_env[@]}" DOTM_ABORT_AFTER=5 $camp_cmd)
aborted_rc=$?
set -e
[ "$aborted_rc" -eq 5 ] || {
    echo "FAIL: injected abort exited $aborted_rc, expected 5"; exit 1; }
echo "$aborted_out" | grep -q "aborted on request" || {
    echo "FAIL: injected abort did not stop the campaign"; exit 1; }
# A bad macro selection is a usage error: exit 2, nothing runs.
set +e
env "${camp_env[@]}" DOTM_MACROS=no_such_macro $camp_cmd >/dev/null 2>&1
usage_rc=$?
set -e
[ "$usage_rc" -eq 2 ] || {
    echo "FAIL: unknown DOTM_MACROS exited $usage_rc, expected 2"; exit 1; }
# So is an argument the campaign does not take (a typo, the retired
# same-host coordinator flag, a merge of zero shards): nothing runs.
for args in "--resmue" "--workers 2" "--merge --shards 0" "--resume --shard 0/2"; do
    set +e
    env "${camp_env[@]}" $camp_cmd -- $args >/dev/null 2>&1
    usage_rc=$?
    set -e
    [ "$usage_rc" -eq 2 ] || {
        echo "FAIL: campaign $args exited $usage_rc, expected 2"; exit 1; }
done
echo "    exit codes: abort=5 (interrupted), unknown macro or argument=2 (usage)"
resumed=$(env "${camp_env[@]}" $camp_cmd -- --resume)
diff <(echo "$cold" | fingerprints) <(echo "$resumed" | fingerprints) || {
    echo "FAIL: resumed campaign fingerprints differ"; exit 1; }
echo "    killed + resumed campaign is fingerprint-identical"

# sed, not head: head exits early and the resulting SIGPIPE trips pipefail.
entry=$(find "$store_dir/meas" -type f -name '*.ent' | sort | sed -n 1p)
[ -n "$entry" ] || { echo "FAIL: store has no entries"; exit 1; }
truncate -s -1 "$entry"
corrupt=$(env "${camp_env[@]}" $camp_cmd)
diff <(echo "$cold" | fingerprints) <(echo "$corrupt" | fingerprints) || {
    echo "FAIL: corrupt store entry changed a fingerprint"; exit 1; }
echo "$corrupt" | grep -q "write_errors=0" || {
    echo "FAIL: store rewrite failed"; echo "$corrupt"; exit 1; }
echo "    corrupt entry: graceful recompute, fingerprints unchanged"

echo "==> benchmark: its own tests, and its gate on a cold campaign at its knobs"
# campaign_bench/run.py refuses a run whose stdout it cannot parse or
# whose Fig. 4 panels moved; its unit tests and the same gate
# (run.check_campaign: exit code, parse_campaign, the recorded panels)
# run here on one cold campaign at the benchmark's knobs, seed and
# thread count, so a format drift fails before the benchmark does.
# `-B` keeps __pycache__ out of campaign_bench/.
python3 -B -m unittest discover -s campaign_bench -p 'test_*.py'
python3 -B - "$store_dir/bench" <<'PY'
import os, sys
sys.path.insert(0, "campaign_bench")
import run
workload = run.WORKLOADS["campaign_cold"]
env = run.child_env(workload, run.DEFAULT_SEED, sys.argv[1])
child = run.run_child(["target/release/campaign"], env, sys.argv[1] + ".log")
out, _, _, problems = run.check_campaign(child, workload, run.DEFAULT_SEED, None, False)
if problems:
    sys.exit("FAIL: the benchmark would reject this campaign: " + "; ".join(problems))
print(f"    parsed; Fig. 4 panels {out['fig4']} as recorded")
PY

echo "==> determinism: cold bias_gen campaign stdout at 1 and 4 threads"
# Two bias_gen classes can share one propagation entry; the store
# counters count distinct keys, so the whole stdout, counters and
# occupancy line included, must not move with the thread schedule. Only
# the header line naming the store differs.
bias_env=(DOTM_MACROS=bias_gen DOTM_DEFECTS=2000 DOTM_MAX_CLASSES=8 DOTM_GS_COMMON=2
    DOTM_GS_MM=2)
bias1=$(env "${bias_env[@]}" DOTM_THREADS=1 DOTM_STORE_DIR="$store_dir/bias1" $camp_cmd)
bias4=$(env "${bias_env[@]}" DOTM_THREADS=4 DOTM_STORE_DIR="$store_dir/bias4" $camp_cmd)
diff <(echo "$bias1" | sed '/^persistent campaign:/d') \
    <(echo "$bias4" | sed '/^persistent campaign:/d') || {
    echo "FAIL: bias_gen campaign stdout moved with the thread count"; exit 1; }
echo "    identical at 1 and 4 threads, store counters included"

echo "==> sharding: 2 shard workers + merge are byte-identical to single-process"
# Worker 0 is killed mid-shard and re-run to resume its segment prefix;
# the merge must still reproduce the single-process run exactly.
scripts/shard_identity.sh

echo "==> service: campaign-as-a-service round-trip (serve_roundtrip)"
# Boots campaign --serve on a loopback port, submits the anchor job over
# HTTP, streams its NDJSON progress events, and hard-gates the contract:
# the HTTP report is byte-identical to a plain CLI campaign over the
# same store path, resubmission answers cached from the finished job,
# and a forced fresh re-run over the warmed store computes nothing
# (misses=0 computed=0) with every fingerprint reproduced. The
# progress stream must carry one event per class the CLI evaluated.
cargo run --release --locked -p dotm-bench --bin serve_roundtrip

echo "==> observability: traced fig4 is a pure side channel"
# DOTM_TRACE=1 must leave stdout byte-identical (the per-phase profile
# goes to stderr, the events to DOTM_TRACE_DIR) and the exported NDJSON
# must pass the structural validator (unique ids, parents on the same
# thread containing their children). The trace directory does not exist
# yet: the export must create it.
trace_dir="$store_dir/trace/fig4"
fig4_traced=$(DOTM_DEFECTS=3000 DOTM_MAX_CLASSES=10 DOTM_GS_COMMON=3 DOTM_GS_MM=2 \
    DOTM_TRACE=1 DOTM_TRACE_DIR="$trace_dir" \
    cargo run --release --locked -p dotm-bench --bin fig4)
diff <(echo "$fig4_plain") <(echo "$fig4_traced") || {
    echo "FAIL: DOTM_TRACE=1 changed fig4's stdout"; exit 1; }
[ -s "$trace_dir/fig4.ndjson" ] || {
    echo "FAIL: traced run exported no NDJSON"; exit 1; }
[ -s "$trace_dir/fig4.trace.json" ] || {
    echo "FAIL: traced run exported no chrome trace"; exit 1; }
cargo run --release --locked -p dotm-bench --bin tracecheck -- \
    "$trace_dir/fig4.ndjson" || {
    echo "FAIL: exported NDJSON is structurally invalid"; exit 1; }
echo "    traced stdout identical, NDJSON validates"
# Chord Newton must carry the transient solves: fewer factorisations than
# Newton iterations, and chord iterations present at all — a silently
# disabled chord path fails here.
counter() {
    grep -o "\"name\":\"$1\",\"value\":[0-9]*" "$trace_dir/fig4.ndjson" | grep -o '[0-9]*$' || true
}
refactors=$(counter lu.refactors)
chords=$(counter lu.chord_solves)
iters=$(counter sim.nr_iterations)
if [ -z "$refactors" ] || [ -z "$chords" ] || [ -z "$iters" ] \
    || [ "$refactors" -ge "$iters" ] || [ "$chords" -eq 0 ]; then
    echo "FAIL: chord Newton inactive: lu.refactors=$refactors" \
        "lu.chord_solves=$chords sim.nr_iterations=$iters"
    exit 1
fi
echo "    $refactors factorisations, $chords chord solves, $iters NR iterations"

echo "==> verify: all green"
