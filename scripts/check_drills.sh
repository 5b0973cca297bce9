#!/usr/bin/env bash
# Reruns the crash-point torture drill (examples/torture_drill.rs) for seeds
# 1-12 of each workload (general, backup, tree) and diffs the combined
# ledger against its pinned copy, results/torture_drill.txt.
#
#   bash scripts/check_drills.sh          # diff; exits non-zero on any drift
#   bash scripts/check_drills.sh --bless  # rewrite results/torture_drill.txt
#
# The drill is seeded and deterministic, so the ledger repeats byte for byte
# (about 0.7 s of runs after a release build). Each run is headed by its seed,
# workload and exit status, and its DIVERGENCE lines (stderr) follow its
# ledger.
#
# KNOWN OPEN DEFECT (ROADMAP item 12): the pinned ledger holds 11 DIVERGENCE
# lines — general seeds 3, 5, 6, 8, 11 and 12 and backup seeds 3, 6 and 8 —
# where crash settlement leaves a page with bytes the oracle does not expect,
# and those runs exit 1. They are pinned so that any change to them shows,
# not because they pass: a diff that removes one is progress on item 12, and
# one that adds one is a regression.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

bless=0
if [ "${1:-}" = "--bless" ]; then bless=1; fi

cargo build -q --release -p lob-harness --example torture_drill
target="${CARGO_TARGET_DIR:-$root/target}"
out="$target/drills_check"
mkdir -p "$out"
ledger="$out/torture_drill.txt"
: > "$ledger"
for workload in general backup tree; do
  for seed in $(seq 1 12); do
    run="$out/run.txt"
    status=0
    "$target/release/examples/torture_drill" "$seed" "$workload" > "$run" 2>&1 || status=$?
    echo "== seed $seed $workload (exit $status)" >> "$ledger"
    cat "$run" >> "$ledger"
  done
done
rm -f "$out/run.txt"
if [ "$bless" = 1 ]; then
  cp "$ledger" results/torture_drill.txt
  exit 0
fi
diff -u results/torture_drill.txt "$ledger"
