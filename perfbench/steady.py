"""Steadiness check: two sets of benchmark runs of the same checkout.

    python3 perfbench/steady.py

For each workload of ``BENCHMARK.json``, set A runs seeds 1..10 and then
set B runs seeds 1001..1010, each run as ``BENCHMARK.json`` commands it,
for its ``run_seconds``.  Per workload and end-to-end metric it prints each
set's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (Q3 - Q1) / median, and three verdicts:

* ``in-bound`` - each set's spread is within the metric's bound;
* ``steady``   - each set's spread is below a third of the bound;
* ``agree``    - the two sets' medians differ by no more than the bound,
  as a share of set A's median.

setup_s is exempt from the first two, as its spread is not gated.

It also checks that every run was correct and that the share of failed
operations is the same in both sets.  Exit status 0 when everything holds.
"""
from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(command, workload, seed, seconds):
    """One run's result line, and how long the whole command took."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), time.perf_counter() - t0


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(bench, sets):
    """Rows of (metric, per-set (q1, median, q3, spread), in_bound, steady,
    agree)."""
    rows = []
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = []
        for runs in sets:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            stats.append((q1, med, q3, (q3 - q1) / med))
        exempt = name == "setup_s"
        in_bound = exempt or all(s[3] <= bound for s in stats)
        steady = exempt or all(s[3] < bound / 3 for s in stats)
        a, b = stats[0][1], stats[1][1]
        rows.append((name, stats, in_bound, steady, abs(b - a) / a <= bound))
    return rows


def main():
    # terminated, it still kills the run in progress (subprocess.run does)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = (range(1, RUNS + 1), range(1001, 1001 + RUNS))
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for set_seeds in seeds:
            runs = []
            for seed in set_seeds:
                result, took = one_run(bench["command"], wl, seed,
                                       bench["run_seconds"])
                runs.append(result)
                print(f"  {wl} seed {seed} ({took:.0f} s): " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)
            sets.append(runs)
        shares = [sorted({r["failed"] / r["attempted"] for r in runs})
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = shares[0] == shares[1] and len(shares[0]) == 1
        ok &= correct and same_share
        print(f"{wl}: correct={correct} failed-share A={shares[0]} "
              f"B={shares[1]} same={same_share}")
        print(f"  {'metric':<12} {'A median [Q1, Q3] spread':<40} "
              f"{'B median [Q1, Q3] spread':<40} in-bound steady agree")
        for name, stats, in_bound, steady, agree in summarize(bench, sets):
            cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spread:6.2%}"
                     for q1, med, q3, spread in stats]
            verdicts = ["yes" if v else "NO" for v in (in_bound, steady, agree)]
            print(f"  {name:<12} {cells[0]:<40} {cells[1]:<40} "
                  f"{verdicts[0]:<8} {verdicts[1]:<6} {verdicts[2]}")
            ok &= in_bound and steady and agree
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
