"""lrwave benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py [--blas-threads K] --workload {propagate,limits} \
        --seed N --seconds S --trace {0,1}

Run from the root of an lrwave checkout; the package is imported from its
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it starting with ``#`` give the
environment (BLAS build and threads), every pass's times, and the errors of
failed checks.

A run is PROCESSES fresh workload processes one after another, each given
an equal share of ``--seconds`` and its own range of batches, so that cold
passes are sampled at the start and in the middle of the run and the warm
passes spread over all of it.  Before them, further fresh processes that
exit once set up bring the set-up samples of a run to SETUPS.  The checks
that pool samples run here, over every process of the run.  A traced run is
one process.  Everything the run writes goes under ``.perfbench_out/``
in the checkout and is removed at the end.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("propagate", "limits")
PROCESSES = 2
SETUPS = 5
TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _die_with_parent():
    """Runs in the child before exec: SIGKILL it if this process dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)   # PR_SET_PDEATHSIG


def _spawn(args, env):
    return subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=env,
                            preexec_fn=_die_with_parent)


def _read_ready(proc, t0):
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker did not get ready (said {line.strip()!r})")
    return time.perf_counter() - t0


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def time_setup(args, env):
    """Set-up time of a fresh workload process that exits once ready."""
    t0 = time.perf_counter()
    proc = _spawn(args + ["--setup-only"], env)
    try:
        setup = _read_ready(proc, t0)
        if proc.wait(timeout=60) != 0:
            raise BenchError(f"set-up process exited with {proc.returncode}")
        return setup
    except subprocess.TimeoutExpired:
        raise BenchError("set-up process did not exit")
    finally:
        _stop(proc)


def run_worker(args, env, deadline):
    """Start a workload process; its set-up time and its result line."""
    t0 = time.perf_counter()
    proc = _spawn(args, env)
    try:
        setup = _read_ready(proc, t0)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return setup, json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIMEOUT_S:.0f} s")
    finally:
        _stop(proc)


def pooled_errors(workload, samples):
    """Failures of the checks that pool the samples of every process."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        return workloads.WORKLOADS[workload].check_pooled(samples)
    except Exception:
        return [f"pooled check raised: {traceback.format_exc(limit=3)}"]


def main(argv=None):
    ap = argparse.ArgumentParser(description="lrwave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int,
                    help="OpenBLAS pool size for the workload processes "
                         "(default: the library's own choice)")
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-test only")
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (the finally blocks below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "lrwave" / "__init__.py").is_file():
        print(f"error: no lrwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    if args.blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    procs = 1 if args.trace else PROCESSES
    common = (["--workload", args.workload, "--seed", str(args.seed),
               "--out", str(out_dir)] + (["--tiny"] if args.tiny else []))
    try:
        setups = [time_setup(common, env)
                  for _ in range(0 if args.trace else SETUPS - procs)]
        runs = [run_worker(
            common + ["--seconds", str(args.seconds / procs),
                      "--trace", str(args.trace), "--first-batch", str(1000 * k)],
            env, deadline)
            for k in range(procs)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    results = [r for _, r in runs]
    errors = [e for r in results for e in r["errors"]]
    if not any(r["failed"] for r in results):
        errors += pooled_errors(args.workload, [r["samples"] for r in results])
    print("# env " + json.dumps(results[0]["env"], sort_keys=True))
    for r in results:
        print("# passes " + json.dumps(
            [{k: round(v, 4) for k, v in p.items()} for p in r["passes"]]))
    for err in errors:
        print("# check failed: " + err.replace("\n", "\n#   "))
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in results[0]["per_layer"].items()}
    else:
        warm = [p for r in results for p in r["passes"][1:]]
        values = {
            "setup_s": statistics.median(setups + [s for s, _ in runs]),
            "cold_s": statistics.mean(r["passes"][0]["wall"] for r in results),
            "warm_s": statistics.mean(p["wall"] for p in warm),
            "cpu_s": statistics.mean(p["cpu"] for p in warm),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "propagator.steps":
        return "count_computed"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
