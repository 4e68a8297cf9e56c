"""One workload in one process: set up, run timed passes, check, report.

Started by run.py, which runs several of these one after another.  It
prints ``READY`` once lrwave is imported and the workload inputs are
resolved (the parent times a fresh interpreter up to that line), and at the
end one JSON line: each pass's wall, CPU and steal time, the operations
attempted and failed, the failed checks, the peak resident memory and the
samples for the checks that pool every process of the run.

Its first pass is cold: it pays the process's cache fills.  Later passes are
warm.  Passes run on batches ``--first-batch``, ``--first-batch`` + 1, ...,
at least MIN_PASSES of them, and more while the next, taking as long as the
last, would end within ``--seconds``.  With ``--setup-only`` the process
exits once ready, having run nothing.  With ``--trace 1``
the first pass and every second pass after it run under the tracer, the
others untraced (at least three passes); the difference of the traced and
untraced warm means is the tracing overhead.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2

PER_LAYER = (
    "gaussian_field.self_s", "gaussian_field.calls", "gaussian_field.levels",
    "gaussian_field.cold_minus_warm_s",
    "medium.self_s", "medium.slabs",
    "propagator.self_s", "propagator.frequencies", "propagator.steps",
    "pulse.self_s", "pulse.calls",
    "serialize.self_s", "serialize.files", "serialize.bytes",
    "limits.self_s", "limits.paths", "limits.oracle_s", "limits.oracle_calls",
    "quadrature.self_s", "quadrature.nodes",
    "stats.self_s", "stats.calls",
    "cli.self_s",
    "trace.overhead_s",
)


def blas_info():
    """BLAS build and the thread count its pool runs with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-batch", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out, tiny=args.tiny)
    wl.config(args.first_batch)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(wl, args.seconds, args.first_batch, bool(args.trace))
    result["env"] = blas_info()
    print(json.dumps(result), flush=True)
    return 0


def steal_s():
    """Time the hypervisor gave this machine's CPUs to others, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def checked(check, *args):
    """A check's failures; a check that raises on malformed output fails."""
    try:
        return check(*args)
    except Exception:
        return [f"check raised: {traceback.format_exc(limit=3)}"]


def measure(wl, seconds, first_batch, trace):
    """Run and check passes for up to ``seconds`` (at least MIN_PASSES), then
    the checks that need the samples of every pass."""
    tracer = None
    min_passes = MIN_PASSES
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        min_passes = max(min_passes, 3)
    passes = []
    errors = []
    failed = 0
    t_start = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - t_start + passes[-1]["wall"] <= seconds):
        batch = first_batch + len(passes)
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        w0, c0, s0 = time.perf_counter(), time.process_time(), steal_s()
        try:
            out = wl.run_pass(batch)
        except Exception:
            out = None
            failed += wl.ops_per_pass
            errors.append(f"pass {batch}: {traceback.format_exc(limit=4)}")
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            steal = steal_s() - s0
            if traced:
                tracer.uninstall()
        passes.append({"wall": wall, "cpu": cpu, "steal": steal,
                       "layers": tracer.summary() if traced else None})
        if out is not None:
            errors += [f"pass {batch}: {e}"
                       for e in checked(wl.check_pass, batch, out)]
        # every pass writes into an empty directory, as the cold pass does
        shutil.rmtree(wl.out, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not failed:
        errors += checked(wl.check_run)
    result = {
        "samples": wl.samples(),
        "attempted": wl.ops_per_pass * len(passes),
        "failed": failed,
        "errors": errors,
        "passes": [{k: p[k] for k in ("wall", "cpu", "steal")} for p in passes],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(passes)
    return result


def per_layer(passes):
    """Mean over traced warm passes of each layer figure, with the cold
    pass's extra synthesis time and the tracing overhead."""
    traced = [p for p in passes[1:] if p["layers"] is not None]
    plain = [p for p in passes[1:] if p["layers"] is None]
    out = {name: statistics.mean(p["layers"].get(name, 0) for p in traced)
           for name in PER_LAYER}
    out["gaussian_field.cold_minus_warm_s"] = (
        passes[0]["layers"]["gaussian_field.self_s"]
        - out["gaussian_field.self_s"])
    out["trace.overhead_s"] = (statistics.mean(p["wall"] for p in traced)
                               - statistics.mean(p["wall"] for p in plain))
    return out


if __name__ == "__main__":
    sys.exit(main())
