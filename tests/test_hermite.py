import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermitenorm

from lrwave import (ConfigurationError, DomainError, composed_covariance,
                    fgn_covariance, hermite_coeffs, hermite_poly,
                    synthesize_fgn, truncation)
from lrwave import hermite as hm
from lrwave.hermite import TRUNCATION_CATALOG, Truncation


class TestHermitePoly:
    def test_base_cases(self):
        assert hermite_poly(0, 2.0) == 1.0
        assert hermite_poly(1, 2.0) == 2.0
        assert hermite_poly(2, 2.0) == 3.0       # x^2 - 1
        assert hermite_poly(3, 2.0) == 2.0       # x^3 - 3x

    @given(st.integers(min_value=1, max_value=10),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, k, x):
        lhs = hermite_poly(k + 1, x)
        rhs = x * hermite_poly(k, x) - k * hermite_poly(k - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            hermite_poly(-1, 0.0)


class TestHermiteCoeffs:
    def test_identity(self):
        s = hermite_coeffs(truncation("identity"))
        assert s.rank == 1
        assert s.coeff(1) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(s.coeffs[1:]) < 1e-9)

    def test_square_center(self):
        s = hermite_coeffs(truncation("square_center"))
        assert s.rank == 2
        assert s.coeff(2) == pytest.approx(2.0, abs=1e-10)
        assert abs(s.coeff(1)) < 1e-9

    def test_polynomial_tail_vanishes(self):
        for name in ("identity", "cubic", "square_center"):
            s = hermite_coeffs(truncation(name))
            deg = TRUNCATION_CATALOG[name]().degree
            assert np.all(np.abs(s.coeffs[deg:]) < 1e-8)
            assert s.tail_fraction < 1e-10

    def test_zero_rank_error(self):
        with pytest.raises(ConfigurationError, match="zero Hermite rank"):
            hermite_coeffs(truncation("zero"))

    def test_non_centered_rejected(self):
        with pytest.raises(ConfigurationError, match="not centered"):
            hermite_coeffs(Truncation(lambda x: x + 0.3, "shifted"))


class TestComposedCovariance:
    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_identity_collapses_to_r(self, r):
        s = hermite_coeffs(truncation("identity"))
        assert composed_covariance(s, r) == pytest.approx(r, abs=1e-10)

    def test_zero_r(self):
        s = hermite_coeffs(truncation("cubic"))
        assert composed_covariance(s, 0.0) == 0.0

    def test_cubic_series(self):
        s = hermite_coeffs(truncation("cubic"))
        for r in (0.1, 0.5, 0.9):
            assert composed_covariance(s, r) == pytest.approx(
                9 * r + 6 * r ** 3, rel=1e-10)

    def test_domain_error(self):
        s = hermite_coeffs(truncation("cubic"))
        with pytest.raises(DomainError):
            composed_covariance(s, 1.2)

    def test_rule_built_once_and_read_only(self):
        hm._gauss_hermite_rule.cache_clear()
        first = hermite_coeffs(truncation("tanh", a=1.5))
        again = hermite_coeffs(truncation("tanh", a=1.5))
        assert first.coeffs.tobytes() == again.coeffs.tobytes()
        assert hm._gauss_hermite_rule.cache_info().misses == 1
        nodes, w = hm._gauss_hermite_rule()
        own_nodes, own_w = np.polynomial.hermite_e.hermegauss(192)
        assert nodes.tobytes() == own_nodes.tobytes()
        assert w.tobytes() == (own_w / np.sqrt(2 * np.pi)).tobytes()
        assert not nodes.flags.writeable and not w.flags.writeable
        # numpy's rule agrees with scipy's roots_hermitenorm
        ref_nodes, ref_w = roots_hermitenorm(192)
        ref_w = ref_w / np.sqrt(2 * np.pi)
        assert np.abs(nodes - ref_nodes).max() <= 1e-13
        assert np.abs(w / ref_w - 1.0).max() <= 1e-12

    def test_polynomial_coefficients_exact(self):
        """J(1..12) of the polynomial maps against their exact values:
        x = P_1, x^3 = P_3 + 3 P_1, x^2 - 1 = P_2, with J(k) = k! times
        the P_k coefficient."""
        exact = {"identity": {1: 1.0}, "cubic": {1: 3.0, 3: 6.0},
                 "square_center": {2: 2.0}}
        for name, nonzero in exact.items():
            coeffs = hermite_coeffs(truncation(name)).coeffs
            want = np.array([nonzero.get(k, 0.0) for k in range(1, 13)])
            assert np.abs(coeffs - want).max() < 1e-11, name

    def test_parseval(self):
        nodes, w = roots_hermitenorm(192)
        w = w / np.sqrt(2 * np.pi)
        for name, kw in (("tanh", {"a": 1.5}), ("clipped_linear", {"c": 1.0})):
            t = truncation(name, **kw)
            s = hermite_coeffs(t)
            var = float(np.dot(w, t(nodes) ** 2))
            assert composed_covariance(s, 1.0) == pytest.approx(
                var, rel=max(3 * s.tail_fraction, 1e-10))

    def test_transformed_fgn_covariance_mc(self):
        # empirical lag covariance of T(fGn path) vs the composition series
        t = truncation("cubic")
        s = hermite_coeffs(t)
        m, n, lag = 250, 2048, 2
        ests = []
        for i in range(m):
            y = t(synthesize_fgn(0.75, n, seed=(55, i)).values)
            ests.append(np.dot(y[lag:], y[:-lag]) / (n - lag))
        ests = np.asarray(ests)
        target = composed_covariance(s, fgn_covariance(0.75, lag))
        z = abs(ests.mean() - target) / (ests.std(ddof=1) / np.sqrt(m))
        assert z < 3.0
