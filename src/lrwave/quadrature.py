"""Panel Gauss-Legendre helpers for singular and oscillatory integrands.

Used by the covariance oracles: power-law kernels are integrable but stiff
near their singular point, so panels are graded geometrically toward it.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# geometric_edges: default adjacent panel-length ratio, most panels per
# interval
_RATIO, _MAX_PANELS = 2.0, 64


@lru_cache(maxsize=8)
def _gl_nodes(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def panel_nodes(edges, npts=16):
    """Nodes and weights for Gauss-Legendre on consecutive panels.

    ``edges`` holds increasing panel boundaries along its last axis: one
    1-d array, or one row per segment.  Returns flat arrays covering all
    panels, row by row.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gl_nodes(npts)
    a = edges[..., :-1, None]
    b = edges[..., 1:, None]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b) + half * x).ravel()
    weights = (half * w).ravel()
    return nodes, weights


def panel_count(min_frac, ratio=_RATIO):
    """Number of panels :func:`geometric_edges` lays on an interval graded
    at ``ratio`` down to ``min_frac`` of its length."""
    n = math.ceil(math.log(1.0 / min_frac) / math.log(ratio))
    return min(max(n, 2), _MAX_PANELS)


def geometric_edges(a, b, *, toward="left", min_frac=1e-13, ratio=_RATIO):
    """Panel edges on [a, b], graded geometrically toward one or both ends.

    The panel adjacent to the graded end has length ~ ``min_frac * (b - a)``
    so that endpoint algebraic singularities of the integrand's derivatives
    are resolved without adaptive refinement.  Each panel is ``ratio`` times
    longer than its neighbour on the graded side; ``toward="both"`` grades
    each half of [a, b] toward its own end.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("empty interval")
    if toward == "both":
        mid = 0.5 * (a + b)
        left = geometric_edges(a, mid, toward="left", min_frac=min_frac,
                               ratio=ratio)
        right = geometric_edges(mid, b, toward="right", min_frac=min_frac,
                                ratio=ratio)
        return np.concatenate([left[:-1], right])
    t = ratio ** np.arange(panel_count(min_frac, ratio) + 1, dtype=float)
    t = (t - 1.0) / (t[-1] - 1.0)
    length = b - a
    if toward == "left":
        return a + length * t
    if toward == "right":
        return b - length * t[::-1]
    raise ValueError(f"unknown grading direction {toward!r}")
