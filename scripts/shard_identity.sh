#!/usr/bin/env bash
# Sharded byte-identity gate: a 2-worker coordinator campaign
# (`campaign --workers 2`) must reproduce a single-process campaign
# exactly — per-macro fingerprints, the whole report body (only the
# per-macro store effort counters, the store accounting line and the
# header naming the store path may differ), the deterministic
# store-occupancy line and every canonical journal's bytes.
#
# Both runs use the smoke size on fresh store trees and inherit the
# caller's environment. Set DOTM_THREADS to pick the thread count (the
# workers inherit it), and DOTM_SHARD_ABORT_ONCE=N to kill every
# first-round worker after N classes, so the merge also proves
# kill-and-re-dispatch (a single-process run ignores that knob).
set -euo pipefail
cd "$(dirname "$0")/.."

single_dir=$(mktemp -d)
shard_dir=$(mktemp -d)
trap 'rm -rf "$single_dir" "$shard_dir"' EXIT
smoke=(DOTM_DEFECTS=2000 DOTM_MAX_CLASSES=8 DOTM_GS_COMMON=2 DOTM_GS_MM=2)
camp_cmd="cargo run --release --locked -p dotm-bench --bin campaign"

single=$(env "${smoke[@]}" DOTM_STORE_DIR="$single_dir" $camp_cmd)
sharded=$(env "${smoke[@]}" DOTM_STORE_DIR="$shard_dir" $camp_cmd -- --workers 2)

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
