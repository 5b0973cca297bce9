#!/usr/bin/env bash
# Repeatability check: two interleaved sets of runs (A, B, A, B, ...) of
# the SAME build, seeds varied identically in both sets. For every
# end-to-end metric of every workload it prints the two medians, their
# relative difference and each set's quartile spread, writes
# benchmark/REPEATABILITY.json, and exits non-zero if the two medians differ
# by more than the metric's bound in either direction (both sets are the
# same build, so a move either way is noise). A pair whose own quartile
# spread exceeds the bound is marked unresolved.
#
#   bash benchmark/repeat.sh [--runs N] [--seconds S] [--workloads "a b"] [--neighbour]
#
# --runs       runs per set per workload (default 5, minimum 5)
# --neighbour  afterwards repeat the whole comparison with one core kept
#              busy by a spinning process; reported, never gated
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"

runs=5
seconds=""
workloads=""
neighbour=0
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --neighbour) neighbour=1; shift ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ "$runs" -lt 5 ]; then
  echo "repeat.sh: at least 5 runs per set" >&2
  exit 2
fi

spinner=""
cleanup() {
  if [ -n "$spinner" ]; then
    kill "$spinner" 2>/dev/null || true
    wait "$spinner" 2>/dev/null || true
  fi
}
trap cleanup EXIT

# Build once up front so no run pays for it.
bash "$here/run.sh" --emit-manifest >/dev/null

mkdir -p "$here/out"
compare() { # $1 = label, $2 = gate (1/0)
  python3 - "$1" "$2" "$runs" "$seconds" "$workloads" "$here" <<'PY'
import json, statistics, subprocess, sys

label, gate, runs, seconds, workloads, here = sys.argv[1:7]
manifest = json.load(open("BENCHMARK.json"))
seconds = seconds or str(manifest["run_seconds"])
names = workloads.split() or [w["name"] for w in manifest["workloads"]]
decl = {m["name"]: m for m in manifest["end_to_end"]}

def run(workload, seed):
    p = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"repeat.sh: {workload} seed {seed} exited {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"repeat.sh: {workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, worst = [], 0.0
for w in names:
    sets = {"A": [], "B": []}
    for i in range(int(runs)):
        for s in ("A", "B"):          # interleaved: A, B, A, B, ...
            sets[s].append(run(w, 1000 + i))
    for name, d in decl.items():
        a = [r[name] for r in sets["A"]]
        b = [r[name] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        # Positive = the second set is worse.
        worse = (mb - ma) / ma if d["better"] == "lower" else (ma - mb) / ma
        ok = abs(worse) <= d["bound"]
        unresolved = max(spread(a), spread(b)) > d["bound"]
        rows.append({"workload": w, "metric": name, "unit": d["unit"], "bound": d["bound"],
                     "median_a": ma, "median_b": mb, "b_worse_by": worse,
                     "spread_a": spread(a), "spread_b": spread(b),
                     "within_bound": ok, "unresolved": unresolved})
        worst = max(worst, abs(worse) / d["bound"])
        print(f"{w:24s} {name:20s} A={ma:<16.6g} B={mb:<16.6g} B worse by {100*worse:+6.2f}% "
              f"(bound {100*d['bound']:.0f}%)  spread A {100*spread(a):5.2f}% B {100*spread(b):5.2f}%"
              f"{'' if ok else '   <-- MISS'}{'   (unresolved: spread over bound)' if unresolved else ''}")
        sys.stdout.flush()

out = {"label": label, "runs_per_set": int(runs), "seconds": int(seconds), "rows": rows}
path = f"{here}/REPEATABILITY.json" if label == "quiet" else f"{here}/out/REPEATABILITY.{label}.json"
missed = sum(not r["within_bound"] for r in rows)
unresolved = sum(r["unresolved"] for r in rows)
out["missed"], out["unresolved"] = missed, unresolved
json.dump(out, open(path, "w"), indent=1)
print(f"wrote {path}; worst difference is {worst:.2f} of its bound; "
      f"{missed} of {len(rows)} pairs miss, {unresolved} are unresolved")
if gate == "1" and any(not r["within_bound"] for r in rows):
    sys.exit(1)
PY
}

compare quiet 1

if [ "$neighbour" = 1 ]; then
  # One core kept busy. Reported so a reader knows what a noisy neighbour
  # costs; never gated, because the neighbour is not part of the build.
  ( while :; do :; done ) &
  spinner=$!
  compare neighbour 0
fi
