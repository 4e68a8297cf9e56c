"""Deterministic CSV/JSON artifact writers.

Floats are written as fmt() writes them, with 17 significant digits, so
artifacts are byte-identical across runs and platforms given the same
inputs; summation order inside the library is deterministic (numpy pairwise
reductions).

:func:`write_csv` caches the text of the first column, a grid (``s``,
``omega``, ``t``, ``z``) shared by the files of a run, keyed by the grid's
bytes and the row kinds, with that of the rows whose other values are all
+0, -0 or 1 (a spectrum outside the propagated band).  Every other value
goes through the array kernel :func:`_format_cells`.  With k =
floor(log10|x|), Dekker's exact product of |x| and a double-double
10^(16-k) is within 2^-46 of |x| 10^(16-k); k moves by one where it lies
outside [1e16, 1e17), and its nearest integer gives the 17 digits, laid out
by one mask per sign, exponent style and digit count.  A value whose product
has a fraction within _TIE_MARGIN of one half, a non-finite value and |x|
outside [1e-290, 1e290] are written by fmt(), which stays the specification.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# uniform depths on [0, 1] at which medium_manifest tabulates the profiles
_PROFILE_POINTS = 256
# rows per block of a CSV with one column after the grid, and its number of
# values per block for more columns: bounds the kernel's temporaries
_BLOCK_ROWS = 4096
# values a row may carry as text in its template, identified by their
# float64 bit patterns: +0, -0 and 1, each as fmt() writes it after a comma
_LITERAL_BITS = np.array([0.0, -0.0, 1.0]).view(np.uint64)
_LITERAL_CELLS = (",0", ",-0", ",1")
# |x| the kernel formats, and the powers of ten 10^(16-k) its k can need
_KERNEL_MIN, _KERNEL_MAX = 1e-290, 1e290
_POW_LO, _POW_HI = -276, 308
# the scaled product is off by less than 2^-46, so a fraction this close to
# 1/2 is a rounding the kernel cannot certify
_TIE_MARGIN = 1e-6
# a kernel cell's bytes before its layout's mask: "-0.000", the 17 digits at
# 6, "." and the last 16 again at 23, "e", the exponent's sign and 3 digits
# at 40, and the separator at _SEP.  Layouts: sign x style (fixed point at
# k = style - 4 up to 20, then 2 or 3 exponent digits) x significant digits,
# then from _RAW one per length of a cell fmt() writes in bytes 0-23.
_TEMPLATE = b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000,.."
_SEP, _STYLES, _RAW = 45, 23, 2 * 23 * 17


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _row_kinds(rest) -> np.ndarray:
    """Per value of the (n, k) float64 array ``rest``: 1 + the index of its
    bit pattern in _LITERAL_BITS, or 0 for any other value; a row with a 0
    is all 0, so that a row is either literal or all kernel cells."""
    bits = rest.view(np.uint64)
    kinds = np.zeros(bits.shape, dtype=np.uint8)
    for code, pattern in enumerate(_LITERAL_BITS, 1):
        np.copyto(kinds, code, where=bits == pattern)
    kinds *= kinds.all(axis=1, keepdims=True)
    return kinds


@functools.lru_cache(maxsize=4)
def _row_blocks(first: bytes, kinds: bytes, n_cols: int):
    """Cached text of a CSV whose first column has the float64 bytes
    ``first`` and whose other n_cols - 1 columns have the row kinds
    ``kinds`` (see _row_kinds): each row is that grid value as fmt() writes
    it, then a comma before the kernel's cells, or its literal values' text
    and a newline.  Returns blocks of _BLOCK_ROWS / (n_cols - 1) rows, each
    (rows, chars, runs): the rows that take cells (a slice, a read-only
    index array or None), their text as a uint8 array padded with zeros,
    and the block's runs of rows of one kind in order, a literal run as its
    bytes and any other as its number of rows."""
    grid = np.frombuffer(first)
    kind = np.frombuffer(kinds, dtype=np.uint8).reshape(grid.size, n_cols - 1)
    step, blocks = _BLOCK_ROWS // max(n_cols - 1, 1), []
    for lo in range(0, grid.size, step):
        hi = min(lo + step, grid.size)
        # one ``%`` writes the block, every row ended by a newline: after its
        # literal values' text, or in place of the comma before its cells
        pattern, inverse = np.unique(kind[lo:hi], axis=0, return_inverse=True)
        forms = ["%.17g" + "".join(_LITERAL_CELLS[c - 1] for c in p if c)
                 + "\n" for p in pattern.tolist()]
        text = "".join([forms[i] for i in inverse.ravel().tolist()])
        text = (text % tuple(grid[lo:hi].tolist())).encode()
        text = np.frombuffer(text, dtype=np.uint8).copy()
        ends = 1 + np.flatnonzero(text == ord("\n"))
        starts = np.concatenate(([0], ends[:-1]))
        slotted = ~kind[lo:hi].all(axis=1)
        text[ends[slotted] - 1] = ord(",")
        edges = [0, *(1 + np.flatnonzero(np.diff(slotted))), hi - lo]
        runs = tuple(stop - start if slotted[start]
                     else text[starts[start]:ends[stop - 1]].tobytes()
                     for start, stop in zip(edges, edges[1:]))
        rows = lo + np.flatnonzero(slotted)
        if rows.size == 0:
            blocks.append((None, None, runs))
            continue
        lengths = (ends - starts)[slotted]
        mask = np.arange(lengths.max()) < lengths[:, None]
        chars = np.zeros(mask.shape, dtype=np.uint8)
        chars[mask] = text[np.repeat(slotted, ends - starts)]
        for a in (chars, rows):
            a.flags.writeable = False       # shared by every cache caller
        blocks.append((slice(lo, hi) if rows.size == hi - lo else rows, chars,
                       runs))
    return tuple(blocks)


def _layout(neg, style, nsig):
    """Positions of a kernel cell's bytes in _TEMPLATE, in order."""
    k = style - 4 if style <= 20 else 0
    if k < 0:                               # "0.", -k - 1 zeros, digits
        pos = [1, 2, 3, 4, 5][:1 - k] + list(range(6, 6 + nsig))
    else:                                   # k + 1 digits, "." and the rest
        pos = list(range(6, 7 + k))
        pos += [23, *range(24 + k, 23 + nsig)] if nsig > k + 1 else []
    pos += [40, 41] + [42, 43, 44][22 - style:] if style > 20 else []
    return [0] * neg + pos


@functools.lru_cache(maxsize=1)
def _tables():
    """The kernel's tables, built from exact integers on first use: (hi,
    hi's Veltkamp head and tail, lo) of 10^j for j in [_POW_LO, _POW_HI],
    hi the nearest float and lo the nearest to 10^j - hi; _TEMPLATE; the
    4-digit groups 0000-9999 as ASCII in a uint32, and their trailing zeros;
    each layout's mask over _TEMPLATE, the separator included."""
    pows = []
    for j in range(_POW_LO, _POW_HI + 1):
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        hi = num / den                      # int division rounds correctly
        (m, e), (n, d) = math.frexp(hi), hi.as_integer_ratio()
        head = math.ldexp(m * 134217729.0 - (m * 134217729.0 - m), e)
        pows.append((hi, head, hi - head, (num * d - n * den) / (den * d)))
    group = np.arange(10000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    layouts = [_layout(neg, style, nsig) for neg in (0, 1)
               for style in range(_STYLES) for nsig in range(1, 18)]
    masks = np.zeros((_RAW + 24, len(_TEMPLATE)), dtype=bool)
    for mask, pos in zip(masks, layouts + [range(n) for n in range(1, 25)]):
        mask[[*pos, _SEP]] = True
    return (tuple(np.array(pows).T.copy()), np.frombuffer(_TEMPLATE, np.uint8),
            (group // places % 10 + ord("0")).astype(np.uint8).view(np.uint32)
            .ravel(), (group % (10 * places) == 0).sum(axis=1), masks)


def _scaled(a, k, pows):
    """(p, s): p the rounded product a 10^(16-k) and s its remainder, by
    Dekker's exact product with hi plus the rounded a lo."""
    hi, head, tail, lo = (t[16 - _POW_LO - k] for t in pows)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    s = ((ah * head - p) + ah * tail + al * head) + al * tail
    s += a * lo
    return p, s


def _outside(p, s):
    """Where p + s lies below 1e16, and where at or above 1e17: p - 1e16
    and p - 1e17 are exact where the sign is in doubt."""
    return (p - 1e16) + s < 0, (p - 1e17) + s >= 0


def _format_cells(v, seps):
    """The bytes of fmt(v[i, j]) followed by the separator seps[j], for the
    (m, c) float64 array v: an (m, c * len(_TEMPLATE)) uint8 array and the
    mask of its bytes in use."""
    pows, template, digits, zeros, masks = _tables()
    x = v.ravel()
    a = np.abs(x)
    ok = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, k, pows)
    # the unrounded product decides: 1e-12 rounds to 1e16 with k = -12
    below, above = _outside(p, s)
    fix = np.flatnonzero(below | above)
    k[fix] += np.where(above[fix], 1, -1)
    p[fix], s[fix] = _scaled(a[fix], k[fix], pows)
    ok[fix] &= ~np.logical_or(*_outside(p[fix], s[fix]))
    ok &= np.abs(s - np.floor(s) - 0.5) >= _TIE_MARGIN
    d = p.astype(np.int64) + np.rint(s).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    top, low16 = np.divmod(d, 10 ** 16)
    groups = np.empty((x.size, 4), dtype=np.int64)
    high8, low8 = np.divmod(low16, 10 ** 8)
    groups[:, 0], groups[:, 1] = np.divmod(high8, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(low8, 10 ** 4)
    # trailing zeros of the last 16 digits, group by group from the right
    tz = zeros[groups[:, 3]]
    run = np.flatnonzero(groups[:, 3] == 0)
    for g in (2, 1, 0):
        tz[run] += zeros[groups[run, g]]
        run = run[groups[run, g] == 0]
    style = np.where((k >= -4) & (k <= 16), k + 4, 21 + (np.abs(k) >= 100))
    code = (np.signbit(x) * _STYLES + style) * 17 + 16 - tz
    cells = np.broadcast_to(template, (x.size, template.size)).copy()
    cells[:, 6] = top + ord("0")
    cells[:, 7:23] = cells[:, 24:40] = digits[groups].view(np.uint8)
    cells[:, 41:45] = digits[np.abs(k)].view(np.uint8).reshape(-1, 4)
    cells[:, 41] = np.where(k < 0, ord("-"), ord("+"))
    cells.reshape(v.shape + (-1,))[:, :, _SEP] = seps
    for i in np.flatnonzero(~ok).tolist():
        cell = fmt(x[i]).encode()
        cells[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
        code[i] = _RAW + len(cell) - 1
    return (cells.reshape(v.shape[0], -1),
            masks[code].reshape(v.shape[0], -1))


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
    seps = np.frombuffer(b"," * (len(cols) - 2) + b"\n", dtype=np.uint8)
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode("utf-8"))
        for rows, chars, runs in blocks:
            if rows is not None:
                cells, keep = _format_cells(rest[rows], seps)
                keep = np.concatenate((chars != 0, keep), axis=1)
                text = np.concatenate((chars, cells), axis=1)[keep]
            done = at = 0
            for run in runs:
                if isinstance(run, bytes):
                    f.write(run)
                    continue
                size = np.count_nonzero(keep[done:done + run])
                f.write(text[at:at + size])
                done, at = done + run, at + size
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
