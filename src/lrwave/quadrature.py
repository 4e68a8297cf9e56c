"""Panel Gauss-Legendre helpers for singular and oscillatory integrands.

Used by the covariance oracles: power-law kernels are integrable but stiff
near their singular point, so panels are graded geometrically toward it,
and oscillatory power tails end in a closed-form series.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# geometric_edges: default adjacent panel-length ratio, most panels per
# interval
_RATIO, _MAX_PANELS = 2.0, 64
# panel_integral: Gauss-Legendre orders of its value and of its error check
_NPTS, _NPTS_CHECK = 24, 16
# cos_power_tail: least cutoff of the half-period panels, and terms of the
# series beyond it (for q >= -3 the last is below 1e-21 of the first)
_TAIL_CUTOFF, _TAIL_TERMS = 64.0, 40


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


def panel_integral(f, edges):
    """(integral, error estimate) of the vectorized ``f`` over the panels
    ``edges``: the 24-point Gauss-Legendre rule on each panel, and its
    difference from the 16-point rule."""
    value, check = (w @ f(x) for x, w in (panel_nodes(edges, n)
                                          for n in (_NPTS, _NPTS_CHECK)))
    return float(value), abs(float(value - check))


def cos_power_tail(w, q, b):
    """(int_b^inf cos(w x) x^q dx, error estimate) for q < -1 and b > 0.

    At w = 0 this is -b^(q+1)/(q+1).  Otherwise y = |w| x gives
    |w|^(-q-1) int_a^inf cos(y) y^q dy with a = |w| b, integrated on panels
    graded toward a over [a, pi], half-period panels up to a cutoff
    A >= 64, and beyond A the integration-by-parts series
    Re(i e^(iA) A^q sum_k i^k q (q-1) ... (q-k+1) / A^k).
    """
    w = abs(float(w))
    if w == 0.0:
        return -(b ** (q + 1.0)) / (q + 1.0), 0.0
    a = w * b
    lo = max(a, math.pi)
    edges = lo + math.pi * np.arange(
        max(0, math.ceil((_TAIL_CUTOFF - lo) / math.pi)) + 1.0)
    if a < math.pi:
        # y^q varies on the scale a: the first panel is no longer than a
        edges = np.r_[geometric_edges(a, math.pi, min_frac=a / math.pi)[:-1],
                      edges]
    value, err = panel_integral(lambda y: np.cos(y) * y ** q, edges)
    cut = edges[-1]
    k = np.arange(_TAIL_TERMS)
    series = np.cumprod(np.r_[1.0, (q - k[:-1]) / cut]) @ 1j ** k
    value += (1j * np.exp(1j * cut) * cut ** q * series).real
    scale = w ** (-q - 1.0)
    return float(value * scale), err * scale
