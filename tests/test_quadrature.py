import math

import numpy as np
import pytest

from lrwave.quadrature import (cos_power_tail, geometric_edges, panel_count,
                               panel_integral, panel_nodes)


def _segments(rng, m):
    a = rng.uniform(-1.0, 1.0, m)
    return a, a + rng.uniform(1e-6, 2.0, m)


class TestBatchedPanels:
    """panel_nodes on one row of edges per segment equals the 1-d call on
    that row, bit for bit."""

    @pytest.mark.parametrize("toward", ["left", "right", "both"])
    @pytest.mark.parametrize("min_frac,n_panels", [(0.25, 2), (0.6, 2),
                                                   (3e-3, 9), (1e-30, 64)])
    def test_rows_equal_one_d_calls(self, toward, min_frac, n_panels):
        a, b = _segments(np.random.default_rng(5), 7)
        # the same panel count from slightly different fractions per row
        frac = min_frac * np.linspace(1.0, 1.01, a.size)
        assert all(panel_count(f) == n_panels for f in frac)
        rows = np.stack([geometric_edges(a[i], b[i], toward=toward,
                                         min_frac=frac[i])
                         for i in range(a.size)])
        width = 2 * n_panels if toward == "both" else n_panels
        assert rows.shape == (a.size, width + 1)
        nodes, weights = panel_nodes(rows, 12)
        assert nodes.shape == weights.shape == (a.size * width * 12,)
        nodes = nodes.reshape(a.size, -1)
        weights = weights.reshape(a.size, -1)
        for i in range(a.size):
            one_nodes, one_weights = panel_nodes(rows[i], 12)
            assert np.array_equal(nodes[i], one_nodes)
            assert np.array_equal(weights[i], one_weights)

    def test_one_d_call_is_one_row(self):
        edges = geometric_edges(0.0, 1.0, toward="left", min_frac=1e-3)
        assert edges.shape == (panel_count(1e-3) + 1,)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert np.all(np.diff(edges) > 0)
        assert edges[1] == pytest.approx(1.0 / (2.0 ** 10 - 1.0))

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 8.0])
    @pytest.mark.parametrize("min_frac", [1e-3, 1e-7, 1e-9])
    def test_ratio_sets_panel_growth(self, ratio, min_frac):
        edges = geometric_edges(0.0, 1.5, min_frac=min_frac, ratio=ratio)
        assert edges.shape == (panel_count(min_frac, ratio) + 1,)
        assert edges[0] == 0.0 and edges[-1] == 1.5
        lengths = np.diff(edges)
        assert lengths[1:] / lengths[:-1] == pytest.approx(ratio, rel=1e-9)

    def test_default_ratio_is_two(self):
        for toward in ("left", "right", "both"):
            assert np.array_equal(
                geometric_edges(0.0, 1.0, toward=toward, min_frac=1e-9),
                geometric_edges(0.0, 1.0, toward=toward, min_frac=1e-9,
                                ratio=2.0))
        assert panel_count(1e-9) == panel_count(1e-9, 2.0) == 30

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            geometric_edges(1.0, 0.0)
        with pytest.raises(ValueError):
            geometric_edges(1.0, 1.0)

    def test_panel_rule_integrates_polynomials(self):
        for a, b in ((0.0, 1.0), (0.5, 3.0)):
            nodes, weights = panel_nodes(geometric_edges(a, b, min_frac=1e-2), 12)
            assert np.dot(weights, nodes ** 5) == pytest.approx(
                (b ** 6 - a ** 6) / 6.0, rel=1e-13)


class TestPanelIntegral:
    def test_polynomial_is_exact_with_zero_error(self):
        value, err = panel_integral(lambda x: x ** 9,
                                    geometric_edges(0.5, 3.0, min_frac=1e-2))
        assert value == pytest.approx((3.0 ** 10 - 0.5 ** 10) / 10.0,
                                      rel=1e-14)
        assert err < 1e-12 * value

    def test_error_estimate_sees_an_unresolved_panel(self):
        value, err = panel_integral(np.cos, np.array([0.0, 200.0]))
        assert abs(value - math.sin(200.0)) <= err


class TestCosPowerTail:
    """cos_power_tail(w, q, b) = int_b^inf cos(w x) x^q dx against closed
    forms."""

    @pytest.mark.parametrize("q", [-1.5, -2.02, -2.98])
    @pytest.mark.parametrize("b", [0.3, 1.0, 7.0])
    def test_zero_frequency(self, q, b):
        assert cos_power_tail(0.0, q, b) == (-b ** (q + 1.0) / (q + 1.0), 0.0)

    # beyond w b ~ 10, pi/2 - Si(w b) cancels to ~ cos(w b) / (w b), and
    # the closed form keeps fewer digits than the quadrature
    @pytest.mark.parametrize("wb", [1e-3, 1.0, 10.0])
    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_inverse_square_is_sine_integral(self, wb, b):
        from scipy.special import sici
        w = wb / b
        want = math.cos(wb) / b - w * (math.pi / 2.0 - sici(wb)[0])
        for sign in (1.0, -1.0):
            value, err = cos_power_tail(sign * w, -2.0, b)
            assert value == pytest.approx(want, rel=1e-12)
            assert err < 1e-12 * abs(want)

    @pytest.mark.parametrize("wb", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("q", [-2.02, -2.5, -2.98])
    def test_incomplete_gamma(self, wb, q):
        """At b = 1, int_1^inf cos(w x) x^q dx = w^(-q-1) int_w^inf
        cos(y) y^q dy, and int_w^inf cos(y) y^q dy is
        Re(i^(q+1) Gamma(q+1, -i w))."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            w = mp.mpf(wb)
            want = float(w ** (-q - 1) * mp.re(
                mp.exp(0.5j * mp.pi * (q + 1)) * mp.gammainc(q + 1, -1j * w)))
        value, err = cos_power_tail(wb, q, 1.0)
        assert value == pytest.approx(want, rel=1e-12)
        assert err < 1e-12 * abs(want)
