"""Run-to-run spread and repeatability of the benchmark's end-to-end metrics.

    python3 bench/spread.py

Runs run.py (--trace 0) on every workload of BENCHMARK.json in two sets:
seeds 1..10, then seeds 11..20.  For each set it prints per
metric the median, the quartiles and the spread: the distance between the
first and the third quartile (statistics.quantiles, n=4) as a share of the
median.  The benchmark is steady when

* every spread stays below a third of the metric's bound,
* the second set's median is not worse than the first's by more than the
  bound, for every metric,
* every run is correct and the share of failed operations is the same in
  every run of a workload.

All rows are also written to bench/out/spread.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10  # per set and workload


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs) -> dict:
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                      "values": values}
    return rows


def main() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    metrics = {m["name"]: m for m in cfg["end_to_end"]}
    workloads = [w["name"] for w in cfg["workloads"]]

    runs = {w: [[], []] for w in workloads}
    for s, first_seed in enumerate((1, RUNS + 1)):
        for w in workloads:
            for seed in range(first_seed, first_seed + RUNS):
                runs[w][s].append(_one_run(w, seed, cfg["run_seconds"]))
                print(f"set {s + 1} {w} seed {seed}: " + json.dumps(runs[w][s][-1]), flush=True)

    report, steady = {}, True
    for w in workloads:
        both = runs[w][0] + runs[w][1]
        shares = sorted({r["failed"] / r["attempted"] for r in both})
        correct = all(r["correct"] for r in both)
        steady &= len(shares) == 1 and correct
        sets = [_summary(runs[w][0]), _summary(runs[w][1])]
        report[w] = {"sets": sets, "failed_shares": shares, "all_correct": correct}
        print(f"\n{w}: failed share {shares}, all correct {correct}")
        for name, m in metrics.items():
            a, b = sets[0][name], sets[1][name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if m["better"] == "lower" else -change
            faults = []
            if max(a["spread"], b["spread"]) >= m["bound"] / 3:
                faults.append("spread above a third of the bound")
            if worse > m["bound"]:
                faults.append("second median worse by more than the bound")
            steady &= not faults
            print(f"  {name:18s} median {a['median']:.6g} / {b['median']:.6g} "
                  f"({100 * change:+.2f}%)  spread {100 * a['spread']:.2f}% / "
                  f"{100 * b['spread']:.2f}%  bound {m['bound']}  "
                  f"{'; '.join(faults) or 'ok'}")
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "spread.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
