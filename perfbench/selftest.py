"""Fast self-test of the benchmark: every workload at a tiny size, and every
check shown to fail on a deliberately broken output.

    python3 perfbench/selftest.py

Run from an lrwave checkout; takes about a minute and a half.  The Monte Carlo
checks run on several seeds.  Exit status 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lrwave.limits  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
import workloads as wk  # noqa: E402

SEEDS = (1, 2, 3)
failures = []


def expect(label, fails, key):
    """``fails`` is a check's output; it must name ``key`` (or be empty when
    ``key`` is None)."""
    ok = not fails if key is None else any(key in f for f in fails)
    print(f"[{'ok' if ok else 'FAIL'}] {label}"
          + ("" if ok else f": expected {key!r}, got {fails}"))
    if not ok:
        failures.append(label)


def rewrite_json(path, edit):
    data = wk.load_json(path)
    edit(data)
    Path(path).write_text(json.dumps(data))


def rewrite_csv_row(path, row, col, factor):
    lines = Path(path).read_text().splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines))


def flip_digit(path):
    """Change one digit in the middle of the file; the format stays valid."""
    data = bytearray(Path(path).read_bytes())
    i = len(data) // 2
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    Path(path).write_bytes(bytes(data))


def passes(wl, n=2):
    fails = []
    for b in range(n):
        fails += wl.check_pass(b, wl.run_pass(b))
    return fails


def test_propagate(tmp):
    for seed in SEEDS:
        wl = wk.Propagate(seed, tmp, tiny=True)
        expect(f"propagate seed {seed}: passes, replay and pooled checks",
               passes(wl) + wl.check_run()
               + wk.Propagate.check_pooled([wl.samples()]), None)
    out = wl.out
    trace = out / "transmitted_0001.csv"
    saved = trace.read_bytes()
    _, d = wk.read_csv(trace)
    rewrite_csv_row(trace, int(np.argmax(d[:, 1])), 1, 1.001)
    fails = wl.check_pass(9, 0)
    expect("propagate: transmitted peak scaled by 1.001 (Parseval)", fails, "parseval")
    expect("propagate: transmitted peak scaled by 1.001 (digest)", fails, "manifest")
    trace.write_bytes(saved)
    saved = (out / "records.json").read_bytes()
    rewrite_json(out / "records.json",
                 lambda recs: recs[1].update(conservation_defect=2e-8))
    expect("propagate: conservation defect 2e-8", wl.check_pass(9, 0), "conservation")
    (out / "records.json").write_bytes(saved)
    flip_digit(out / "spectrum_0000.csv")
    expect("propagate: changed digit in a spectrum CSV", wl.check_pass(9, 0),
           "manifest")
    expect("propagate: nonzero exit status", wl.check_pass(9, 1), "cli")

    first = wl.first[1]
    entries = [dict(e) for e in first]
    entries[0]["sha256"] = "0" * 64
    expect("propagate: replay digest differs", wk.check_replay(first, entries),
           "replay")
    rng = np.random.default_rng(1)
    shifted = [(s + rng.normal(0, 3 * np.std(wl.pairs)), v) for s, v in wl.pairs]
    expect("propagate: best_shift shifted by noise",
           wk.check_shift_law(shifted, wk.PROPAGATE_CORR_MIN), "shift-law")


def test_limits(tmp):
    wl = wk.Limits(SEEDS[0], tmp, tiny=True)
    expect("limits: one CLI pass", wl.check_pass(0, wl.run_pass(0)), None)
    for seed in SEEDS:
        # the ensembles of a run: two processes of two passes each
        procs = []
        for first in (0, 1000):
            ens = wk.Limits(seed, tmp, tiny=True)
            for b in (first, first + 1):
                ens.pool(*ens.run_ensemble(b))
            ens.endpoint_var = wl.endpoint_var
            procs.append(json.loads(json.dumps(ens.samples())))
        expect(f"limits seed {seed}: pooled ensemble checks",
               wk.Limits.check_pooled(procs), None)
    expect("limits: constant-index oracle identity",
           wk.check_oracle_identity(lrwave.limits.sh_covariance), None)
    var = wl.endpoint_var
    other = dict(procs[1], endpoint_var=[v * (1 + 1e-9) for v in var])
    expect("limits: oracle variance differs between processes",
           wk.Limits.check_pooled([procs[0], other]), "differs")
    ends = [a + b for a, b in zip(procs[0]["ends"], procs[1]["ends"])]
    hursts = [[a + b for a, b in zip(*pair)]
              for pair in zip(procs[0]["hursts"], procs[1]["hursts"])]
    herm = procs[0]["herm_ends"] + procs[1]["herm_ends"]

    out = wl.out
    grid = out / "sh_linear_0_covariance.csv"
    saved = grid.read_bytes()
    rewrite_csv_row(grid, 1, 2, 1.01)          # (z1, z2) = (0.25, 0.5) only
    expect("limits: non-symmetric covariance grid", wk.check_cov_grid(grid)[0],
           "asymmetry")
    grid.write_bytes(saved)
    for row in (3, 12):                         # (0.25, 1.0) and (1.0, 0.25)
        rewrite_csv_row(grid, row, 2, 4.0)
    expect("limits: covariance grid not positive semidefinite",
           wk.check_cov_grid(grid)[0], "positive semidefinite")
    grid.write_bytes(saved)
    traj = out / "sh_linear_0.csv"
    lines = traj.read_text().splitlines(keepends=True)
    traj.write_text("".join(lines[:-1]))
    expect("limits: trajectory one sample short",
           wk.check_trajectory(traj, wl.n_cli), "trajectory")
    lines[1] = "0,0.001\n"
    traj.write_text("".join(lines))
    expect("limits: trajectory not starting at 0",
           wk.check_trajectory(traj, wl.n_cli), "trajectory")

    def closed_plus(h, a, b):
        return 0.5 * (a ** (2 * h) + b ** (2 * h) - abs(a - b) ** (2 * h)) + 1e-3
    expect("limits: oracle off by 1e-3", wk.check_oracle_identity(closed_plus),
           "oracle")
    for j in range(len(ends)):
        for scale in (2.0, 0.5):
            scaled = list(ends)
            scaled[j] = [scale * e for e in ends[j]]
            expect(f"limits: profile {j} endpoint amplitude times {scale}",
                   wk.check_limits_pooled(scaled, hursts, var, herm),
                   f"endpoint: profile {j}")
        for shift in (0.1, -0.2):
            moved = list(hursts)
            moved[j] = [[h + shift for h in est] for est in hursts[j]]
            expect(f"limits: profile {j} local_hurst moved by {shift:+}",
                   wk.check_limits_pooled(ends, moved, var, herm),
                   f"local_hurst: profile {j}")
    expect("limits: Hermite endpoints scaled by 2",
           wk.check_limits_pooled(ends, hursts, var, [2 * h for h in herm]),
           "hermite: endpoint")
    expect("limits: Hermite endpoints negated",
           wk.check_limits_pooled(ends, hursts, var, [-h for h in herm]),
           "skewness")


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect("BENCHMARK.json end-to-end metrics match run.py",
           [] if e2e == bench_run.END_TO_END else [f"names {e2e}"], None)
    mine = {k: bench_run.per_layer_unit(k) for k in worker.PER_LAYER}
    expect("BENCHMARK.json per-layer metrics match worker.py",
           [] if layers == mine else [f"names {sorted(set(layers) ^ set(mine))}"],
           None)


def test_command(tmp):
    """The command itself on the tiny propagate workload, untraced and
    traced; and its refusal to run where there are no lrwave sources."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "propagate",
             "--seed", "5", "--seconds", "2", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = (proc.returncode == 0 and res["correct"] and res["failed"] == 0
              and set(res["metrics"]) == {m["name"] for m in bench[key]}
              and all(m["value"] > 0 for m in res["metrics"].values()
                      if m["unit"] == "s" and trace == 0))
        expect(f"run.py --trace {trace} prints every {key} metric",
               [] if ok else [proc.stdout[-500:] + proc.stderr[-500:]], None)
    bare = Path(tmp) / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "propagate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect("run.py fails without lrwave sources",
           [] if proc.returncode != 0 and not proc.stdout.strip()
           else [proc.stdout], None)


def main():
    tmp = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        test_metric_names()
        test_propagate(tmp)
        test_limits(tmp)
        test_command(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
