#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark (choosing-metrics §8).
#
#   bash scripts/bench_pairs.sh <parent-rev> [--seed-base N] [workload ...]
#
# Exports <parent-rev> with `git archive` into target/bench_parent, puts THIS
# tree's benchmark/ sources over the export's, and builds both sides
# --offline into their own CARGO_TARGET_DIR — so the two binaries differ
# only in the engine crates. Then, per workload, it runs 10 pairs at the
# manifest's run_seconds: pair i uses seed N+i on both sides (N is the seed
# base, 1000 unless --seed-base gives another, so a claim can be re-run on
# seeds nobody tuned against) and the side that goes first alternates. For
# every end-to-end metric it prints both medians, both quartile pairs, how
# many pairs the change won (a tie counts for neither side) and whether the
# gain rule of choosing-metrics §8 holds: the change wins at least 9 pairs
# in 10 and its median beats the parent's by more than the parent's
# interquartile range. The same table is written as JSON to
# target/bench_pairs/pairs.json (parent rev, cpus, seed base, and per
# workload and metric both medians, both quartile pairs, wins/pairs and the
# rule's verdict), rewritten after every workload. Each run's per-round table is kept as
# target/bench_pairs/out_<side>/rounds-<workload>-<seed>.tsv. Exits non-zero
# if any run is incorrect or fails an operation. Everything it writes is
# under target/, which is gitignored.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
  echo "usage: bench_pairs.sh <parent-rev> [--seed-base N] [workload ...]" >&2
  exit 2
}
if [ $# -lt 1 ] || [ "${1#-}" != "$1" ]; then
  usage
fi
rev="$(git rev-parse --short "$1^{commit}")"
shift
seed_base=1000
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed-base)
      [ $# -ge 2 ] && [[ "$2" =~ ^[0-9]+$ ]] || usage
      seed_base="$2"
      shift 2
      ;;
    -*) usage ;;
    *)
      workloads+=("$1")
      shift
      ;;
  esac
done

parent_src="$root/target/bench_parent"
work="$root/target/bench_pairs"
rm -rf "$parent_src"
mkdir -p "$parent_src" "$work"
# -m stamps the export with the current time: git archive carries the
# commit time, and cargo would otherwise take an export older than the
# artifacts already in $work/parent (built from another revision) as
# unchanged and reuse them.
git archive "$rev" | tar -x -m -C "$parent_src"
rm -rf "$parent_src/benchmark"
mkdir "$parent_src/benchmark"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$parent_src/benchmark/"

echo "building parent $rev and the working tree ..." >&2
CARGO_TARGET_DIR="$work/parent" cargo build --release --offline --quiet \
  --manifest-path "$parent_src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$work/change" cargo build --release --offline --quiet \
  --manifest-path "$root/benchmark/Cargo.toml"

python3 - "$rev" "$work" "$seed_base" ${workloads[@]+"${workloads[@]}"} <<'PY'
import json, os, statistics, subprocess, sys

rev, work, seed_base, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3]), 10
manifest = json.load(open("BENCHMARK.json"))
seconds = str(manifest["run_seconds"])
names = sys.argv[4:] or [w["name"] for w in manifest["workloads"]]
decl = manifest["end_to_end"]

def run(side, workload, seed):
    out = f"{work}/out_{side}"
    os.makedirs(out, exist_ok=True)
    p = subprocess.run(
        [f"{work}/{side}/release/lob-benchmark", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, env={**os.environ, "LOB_BENCH_OUT": out})
    if p.returncode != 0:
        sys.exit(f"bench_pairs.sh: {side} {workload} seed {seed} exited {p.returncode}\n{p.stderr[-2000:]}")
    os.replace(f"{out}/rounds-{workload}.tsv", f"{out}/rounds-{workload}-{seed}.tsv")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs.sh: {side} {workload} seed {seed}: correct={result['correct']}, "
                 f"{result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

table = {"parent": rev, "cpus": os.cpu_count(), "pairs": pairs, "seed_base": seed_base,
         "run_seconds": manifest["run_seconds"], "workloads": {}}
print(f"parent {rev} vs working tree; {pairs} pairs a workload, --seconds {seconds}, "
      f"{os.cpu_count()} cpus; seeds {seed_base}..{seed_base + pairs - 1}, first side alternates")
for w in names:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(side, w, seed_base + i))
        print(f"  {w} pair {i + 1}/{pairs} done", file=sys.stderr)
    print(f"\n{w}")
    metrics = table["workloads"][w] = {}
    print(f"  {'metric':20s} {'parent median [q1, q3]':>44s} {'change median [q1, q3]':>44s} {'change/parent':>13s}  wins/pairs  §8 gain rule")
    for d in decl:
        name = d["name"]
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        better = (lambda x, y: x < y) if d["better"] == "lower" else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        ratio = f"{mb / ma:.3f}" if ma else "-"
        # §8: a gain counts when the change wins >= 9 pairs in 10 and its
        # median beats the parent's by more than the parent's IQR.
        gap = (ma - mb) if d["better"] == "lower" else (mb - ma)
        rule = 10 * wins >= 9 * pairs and gap > a3 - a1
        metrics[name] = {"better": d["better"], "bound": d["bound"],
                         "parent": {"median": ma, "q1": a1, "q3": a3},
                         "change": {"median": mb, "q1": b1, "q3": b3},
                         "wins": wins, "pairs": pairs, "gain_rule_holds": rule}
        print(f"  {name:20s} {f'{ma:.6g} [{a1:.6g}, {a3:.6g}]':>44s} {f'{mb:.6g} [{b1:.6g}, {b3:.6g}]':>44s} "
              f"{ratio:>13s}  {wins:>4d}/{pairs:<5d} {'holds' if rule else 'no':5s} "
              f"({d['better']} is better, bound {d['bound']})")
    sys.stdout.flush()
    with open(f"{work}/pairs.json.tmp", "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    os.replace(f"{work}/pairs.json.tmp", f"{work}/pairs.json")
PY
