import numpy as np
import pytest

from lrwave.quadrature import geometric_edges, panel_count, panel_nodes


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
