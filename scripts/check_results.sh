#!/usr/bin/env bash
# Reruns the deterministic experiment binaries of crates/bench and diffs each
# output against its pinned copy under results/.
#
#   bash scripts/check_results.sh          # diff; exits non-zero on any drift
#   bash scripts/check_results.sh --bless  # rewrite results/ from the binaries
#
# Every binary but tab_backup_throughput prints the same bytes on every run,
# so a changed line is a changed measurement. tab_backup_throughput prints
# wall-clock timings; it is left out of the diff (regenerate it by hand).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

bless=0
if [ "${1:-}" = "--bless" ]; then bless=1; fi

bins=(
  fig1_split_counterexample
  fig2_write_graph_ablation
  fig3_progress_fractions
  fig4_tree_regions
  fig5_logging_probability
  tab_amortized_overhead
  tab_appread_zero_logging
  tab_incremental
  tab_logging_economy
  tab_steps_sweep
  tab_succ_structure
)

cargo build -q --release -p lob-bench --bins
target="${CARGO_TARGET_DIR:-$root/target}"
out="$target/results_check"
mkdir -p "$out"
status=0
for b in "${bins[@]}"; do
  "$target/release/$b" > "$out/$b.txt"
  if [ "$bless" = 1 ]; then
    cp "$out/$b.txt" "results/$b.txt"
  elif ! diff -u "results/$b.txt" "$out/$b.txt"; then
    status=1
  fi
done
exit "$status"
