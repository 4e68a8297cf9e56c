"""Deterministic CSV/JSON artifact writers.

Floats are formatted with 17 significant digits so artifacts are
byte-identical across runs and platforms given the same inputs; summation
order inside the library is deterministic (numpy pairwise reductions).

A CSV's first column is a grid (``s``, ``omega``, ``t``, ``z``) shared by
every file of a run, so :func:`write_csv` formats it once: each row becomes
a template of the formatted grid value followed by ``%.17g`` slots for the
other columns.  A row whose other values are all +0, -0 or 1 carries their
text instead of slots: a spectrum's rows outside the propagated band are
the transparent (T, R) = (1, +-0, 0, +-0), about 3,970 of its 4,096 rows
for the benchmark's source, and they share one text per run.  Each row's
kind (slots, or which literal per value) is read from the values' bits.
The templates are joined into blocks of ``_BLOCK_ROWS`` rows, kept in a
small cache keyed by the grid's bytes and the row kinds, and each block is
filled by one ``%`` operation over its slotted rows.
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
# values a row may carry as text in its template, identified by their
# float64 bit patterns: +0, -0 and 1, each as fmt() writes it after a comma
_LITERAL_BITS = np.array([0.0, -0.0, 1.0]).view(np.uint64)
_LITERAL_CELLS = (",0", ",-0", ",1")


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _row_kinds(rest) -> np.ndarray:
    """Per value of the (n, k) float64 array ``rest``: 1 + the index of its
    bit pattern in _LITERAL_BITS, or 0 for any other value; a row with a 0
    is all 0, so that a row is either literal or all slots."""
    bits = rest.view(np.uint64)
    kinds = np.zeros(bits.shape, dtype=np.uint8)
    for code, pattern in enumerate(_LITERAL_BITS, 1):
        np.copyto(kinds, code, where=bits == pattern)
    kinds *= kinds.all(axis=1, keepdims=True)
    return kinds


@functools.lru_cache(maxsize=4)
def _row_blocks(first: bytes, kinds: bytes, n_cols: int):
    """Row templates of a CSV whose first column has the float64 bytes
    ``first`` and whose other n_cols - 1 columns have the row kinds
    ``kinds`` (see _row_kinds): each row is that grid value formatted as by
    fmt(), then its literal values' text or n_cols - 1 ``%.17g`` slots.
    Returns the blocks of _BLOCK_ROWS rows as (template, selection of the
    block's slotted rows) pairs."""
    grid = np.frombuffer(first).tolist()
    kind = np.frombuffer(kinds, dtype=np.uint8).reshape(len(grid), n_cols - 1)
    slotted = ~kind.all(axis=1)
    # a block is one ``%`` of its grid values into rows of escaped slots
    # ``%%.17g``, which come out as ``%.17g``, or of literal text
    slots = "%.17g" + ",%%.17g" * (n_cols - 1) + "\n"
    blocks = []
    for lo in range(0, len(grid), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(grid))
        block_slotted = slotted[lo:hi]
        rows = [slots] * (hi - lo)
        for i in np.flatnonzero(~block_slotted).tolist():
            rows[i] = "%.17g" + "".join(
                _LITERAL_CELLS[c - 1] for c in kind[lo + i].tolist()) + "\n"
        if block_slotted.all():
            select = slice(lo, hi)
        else:
            select = lo + np.flatnonzero(block_slotted)
            select.flags.writeable = False  # shared by every cache caller
        blocks.append(("".join(rows) % tuple(grid[lo:hi]), select))
    return tuple(blocks)


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
    blocks = _row_blocks(first.tobytes(), _row_kinds(rest).tobytes(),
                         len(cols))
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for block, rows in blocks:
            f.write(block % tuple(rest[rows].ravel().tolist()))
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
