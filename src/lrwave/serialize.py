"""Deterministic CSV/JSON artifact writers.

Floats are formatted with 17 significant digits so artifacts are
byte-identical across runs and platforms given the same inputs; summation
order inside the library is deterministic (numpy pairwise reductions).

A CSV's first column is a grid (``s``, ``omega``, ``t``, ``z``) shared by
every file of a run, so :func:`write_csv` formats it once: each row becomes
a template of the formatted grid value followed by ``%.17g`` slots for the
other columns.  The templates are joined into blocks of ``_BLOCK_ROWS``
rows, kept in a small cache keyed by the grid's bytes and the column
count, and each block is filled by one ``%`` operation.
"""
from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

# uniform depths on [0, 1] at which medium_manifest tabulates the profiles
_PROFILE_POINTS = 256
# rows per template block: one string per block bounds the memory of a write
_BLOCK_ROWS = 512


def fmt(x) -> str:
    return f"{float(x):.17g}"


@functools.lru_cache(maxsize=4)
def _row_blocks(first: bytes, n_cols: int) -> tuple[str, ...]:
    """Row templates of a CSV whose first column has the float64 bytes
    ``first``: that value formatted as by fmt(), then n_cols - 1 ``%.17g``
    slots, in blocks of _BLOCK_ROWS rows.  Each block is one ``%`` of the
    grid values into rows whose escaped slots ``%%.17g`` come out as
    ``%.17g``."""
    row = "%.17g" + ",%%.17g" * (n_cols - 1) + "\n"
    grid = np.frombuffer(first).tolist()
    return tuple((row * len(chunk)) % tuple(chunk)
                 for chunk in (grid[lo:lo + _BLOCK_ROWS]
                               for lo in range(0, len(grid), _BLOCK_ROWS)))


def write_csv(path, header, columns) -> Path:
    """Write columns (equal-length 1-d arrays) under a comma-joined header;
    every value is written as fmt() writes it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("csv columns differ in length")
    # float64 is what fmt() formats, so the cast changes no written value
    first = np.asarray(cols[0], dtype=float).ravel()
    rest = np.empty((n, len(cols) - 1))
    for j, c in enumerate(cols[1:]):
        rest[:, j] = c.ravel()
    blocks = _row_blocks(first.tobytes(), len(cols))
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i, block in enumerate(blocks):
            lo = i * _BLOCK_ROWS
            f.write(block % tuple(rest[lo:lo + _BLOCK_ROWS].ravel().tolist()))
    return path


def read_csv(path):
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, data


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return path


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_entry(path, root) -> dict:
    path = Path(path)
    return {
        "path": str(path.relative_to(root)),
        "sha256": sha256_of(path),
        "bytes": path.stat().st_size,
    }


def write_trajectory(path, traj) -> Path:
    return write_csv(path, ["t", "value"], [traj.t_grid, traj.values])


def write_medium(path, real) -> Path:
    return write_csv(path, ["z", "nu_eps"], [real.z_mid, real.nu_eps])


def write_spectrum(path, tspec) -> Path:
    return write_csv(path, ["omega", "T_re", "T_im", "R_re", "R_im"],
                     [tspec.grid.omegas, tspec.T.real, tspec.T.imag,
                      tspec.R.real, tspec.R.imag])


def write_pulse(path, trace) -> Path:
    return write_csv(path, ["s", "value"], [trace.s_grid, trace.values])


def medium_manifest(spec) -> dict:
    """JSON-able description of a medium spec, profiles tabulated at
    _PROFILE_POINTS depths.  ``kind`` is a constant of the format."""
    u = np.linspace(0.0, 1.0, _PROFILE_POINTS)
    return {
        "epsilon": spec.epsilon,
        "tau": spec.tau,
        "depth": spec.depth,
        "kind": "long_range",
        "seed": list(spec.seed) if isinstance(spec.seed, tuple) else spec.seed,
        "n_slabs": spec.resolved_slabs(),
        "truncation": {"name": spec.truncation.name,
                       **dict(spec.truncation.params)},
        "hermite_rank": spec.rank,
        "profiles": {
            "u": [float(x) for x in u],
            "gamma": [float(x) for x in spec.gamma(u)],
            "h": [float(x) for x in spec.h(u)],
            "field_index": [float(x) for x in spec.field_index(u)],
        },
    }
