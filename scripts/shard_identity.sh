#!/usr/bin/env bash
# Sharded byte-identity gate: two shard workers (`campaign --shard i/2`)
# and their merge (`campaign --merge --shards 2`) must reproduce a
# single-process campaign exactly — per-macro fingerprints, the whole
# report body (only the per-macro store effort counters, the store
# accounting line and the header naming the store path may differ), the
# deterministic store-occupancy line and every canonical journal's bytes.
#
# Worker 0 is killed after 2 classes first (DOTM_ABORT_AFTER, exit 5)
# and re-run, so the merge also proves that a re-run worker resumes its
# segment prefix. All runs use the smoke size on fresh store trees and
# inherit the caller's environment; set DOTM_THREADS to pick the thread
# count.
set -euo pipefail
cd "$(dirname "$0")/.."

single_dir=$(mktemp -d)
shard_dir=$(mktemp -d)
trap 'rm -rf "$single_dir" "$shard_dir"' EXIT
smoke=(DOTM_DEFECTS=2000 DOTM_MAX_CLASSES=8 DOTM_GS_COMMON=2 DOTM_GS_MM=2)
camp_cmd="cargo run --release --locked -p dotm-bench --bin campaign"

single=$(env "${smoke[@]}" DOTM_STORE_DIR="$single_dir" $camp_cmd)
shard() { env "${smoke[@]}" DOTM_STORE_DIR="$shard_dir" "$@"; }

# Worker stdout is bookkeeping, not the report: keep it off stdout.
set +e
shard DOTM_ABORT_AFTER=2 $camp_cmd -- --shard 0/2 >&2
killed_rc=$?
set -e
[ "$killed_rc" -eq 5 ] || {
    echo "FAIL: worker 0/2 killed after 2 classes exited $killed_rc, expected 5"; exit 1; }
shard $camp_cmd -- --shard 0/2 >&2
shard $camp_cmd -- --shard 1/2 >&2
sharded=$(shard $camp_cmd -- --merge --shards 2)

fingerprints() { grep -o 'fingerprint=[0-9a-f]*' || true; }
# The per-macro `store: loads=… computed=…` counters and the store
# accounting line show effort, which differs by construction: a merge
# replays the workers' journals instead of loading the store.
strip_effort() {
    sed -E -e 's/ +store: [^ ]+( [a-z_]+=[0-9]+)*//' \
        -e '/^campaign store accounting:/d' \
        -e '/^persistent campaign:/d'
}

[ -n "$(echo "$single" | fingerprints)" ] || {
    echo "FAIL: single-process campaign printed no fingerprints"; echo "$single"; exit 1; }
diff <(echo "$single" | fingerprints) <(echo "$sharded" | fingerprints) || {
    echo "FAIL: sharded campaign fingerprints differ from single-process"; exit 1; }
diff <(echo "$single" | strip_effort) <(echo "$sharded" | strip_effort) || {
    echo "FAIL: sharded campaign changed a reported number"; exit 1; }
echo "$sharded" | grep -q "^campaign store occupancy:" || {
    echo "FAIL: occupancy accounting line missing"; exit 1; }
for jnl in "$single_dir"/journal/*.jnl; do
    name=$(basename "$jnl")
    cmp "$jnl" "$shard_dir/journal/$name" || {
        echo "FAIL: merged journal $name differs from single-process bytes"; exit 1; }
done
echo "    sharded campaign: fingerprints, report and journal bytes identical"
