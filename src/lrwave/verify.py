"""The `verify` invariants: one table of fast checks, one entry per invariant.

Each suite is a class: its constructor builds the set-up that its checks
share (one medium, one source, ...), and each public method is one check,
named as in the report, that takes the tolerances and returns (passed,
detail).  `CHECKS` lists them as (suite, check name, check) in report order.
``lrwave --mode verify`` runs the table through `run_verify_suites`, and the
test suite runs the same table, one case per check, so each invariant is
written here only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace as drep

import numpy as np
from scipy.special import roots_hermitenorm

from . import gaussian_field as gf
from . import hermite as hm
from . import limits as lm
from . import medium as md
from . import propagator as pp
from . import pulse as pl
from . import stats as st

__all__ = ["TOLERANCES", "CHECKS", "run_verify_suites"]

# the keys and defaults of a config's "tolerances" overrides
TOLERANCES = {"renorm": 1e-6, "conservation": 1e-8, "sh_quad": 1e-4}


class _GaussianField:
    def renorm_closed_vs_quadrature(self, tol):
        hs = np.linspace(0.51, 0.99, 7)
        err = max(abs(gf.renorm_constant_sq_quadrature(h) - gf.renorm_constant_sq(h))
                  / gf.renorm_constant_sq(h) for h in hs)
        return err < tol["renorm"], f"max rel err {err:.2e}"

    def fgn_determinism(self, tol):
        a = gf.synthesize_fgn(0.75, 1024, seed=7)
        b = gf.synthesize_fgn(0.75, 1024, seed=7)
        return np.array_equal(a.values, b.values), ""

    def fgn_covariance_mc(self, tol):
        m, nn = 60, 1 << 12
        ests = np.array([[float(np.dot(y[k:], y[:nn - k]) / (nn - k)) for k in (0, 1, 2)]
                         for y in (gf.synthesize_fgn(0.75, nn, seed=(11, i)).values
                                   for i in range(m))])
        targ = np.array([gf.fgn_covariance(0.75, k) for k in (0, 1, 2)])
        z = np.abs(ests.mean(0) - targ) / (ests.std(0, ddof=1) / math.sqrt(m))
        return np.all(z < 4.0), f"max z {z.max():.2f}"

    def field_column_variance(self, tol):
        fg = gf.synthesize_field_grid([0.6, 0.9], np.arange(256.0), seed=3)
        dev = float(np.abs(fg.column_variance - 1).max())
        return dev < 0.02, f"max dev {dev:.3f}"

    def asymptotic_scale_lag100(self, tol):
        scaled = gf.increment_field_covariance(100.0, 0.0, 0.75, 0.75) * 100.0 ** 0.5
        rel = abs(scaled / gf.asymptotic_covariance_scale(0.75, 0.75) - 1.0)
        return rel < 0.02, f"rel {rel:.2e}"


class _Hermite:
    """Gauss-Hermite nodes and the cubic truncation's series."""

    def __init__(self):
        self.nodes, w = roots_hermitenorm(128)
        self.w = w / np.sqrt(2 * np.pi)
        self.cubic = hm.hermite_coeffs(hm.truncation("cubic"))

    def orthogonality(self, tol):
        err = 0.0
        for j in range(9):
            pj = hm.hermite_poly(j, self.nodes)
            for k in range(9):
                v = float(np.dot(self.w, pj * hm.hermite_poly(k, self.nodes)))
                err = max(err, abs(v - (math.factorial(k) if j == k else 0.0)))
        return err < 1e-8, f"max err {err:.1e}"

    def cubic_coefficients(self, tol):
        s3 = self.cubic
        ok = (abs(s3.coeff(1) - 3) < 1e-9 and abs(s3.coeff(3) - 6) < 1e-9
              and s3.rank == 1)
        return ok, f"J1={s3.coeff(1):.3e} J3={s3.coeff(3):.3e}"

    def cubic_composition(self, tol):
        comp = [abs(hm.composed_covariance(self.cubic, r) - (9 * r + 6 * r ** 3))
                for r in (0.1, 0.5, 0.9)]
        return max(comp) < 1e-9, f"max {max(comp):.1e}"

    def parseval_tanh(self, tol):
        spec = hm.hermite_coeffs(hm.truncation("tanh", a=1.5))
        var_t = float(np.dot(self.w, np.tanh(1.5 * self.nodes) ** 2))
        rel = abs(hm.composed_covariance(spec, 1.0) - var_t) / var_t
        return (rel < 3 * spec.tail_fraction + 1e-9,
                f"rel {rel:.1e} tail {spec.tail_fraction:.1e}")


class _Medium:
    """One Gaussian medium at eps = 0.1."""

    def __init__(self):
        self.spec = md.MediumSpec(epsilon=0.1,
                                  gamma_profile=md.constant_profile(0.8), seed=5)
        self.real = md.build_medium(self.spec)

    def determinism(self, tol):
        again = md.build_medium(self.spec)
        return np.array_equal(self.real.nu_eps, again.nu_eps), ""

    def scaling_bilinearity(self, tol):
        rs = md.build_medium(md.MediumSpec(
            epsilon=0.1, gamma_profile=md.constant_profile(0.8),
            truncation=hm.truncation("identity", scale=2.5), seed=5))
        rel = float(np.max(np.abs(rs.nu_eps - 2.5 * self.real.nu_eps))
                    / np.max(np.abs(self.real.nu_eps)))
        return rel < 1e-13, f"rel {rel:.1e}"

    def zero_truncation(self, tol):
        r0 = md.build_medium(drep(self.spec, truncation=hm.truncation("zero")))
        return np.all(r0.nu_eps == 0.0), ""

    def v2_closed_form(self, tol):
        const = drep(self.real, nu_eps=np.full(self.real.n_slabs, 3.0))
        vt = md.v_triple(const, 2.0)
        closed = 3.0 * 0.1 * np.sin(2 * 2.0 * 1.0 / 0.1) / (2 * 2.0)
        rel = abs(vt.v2.values[-1] - closed) / abs(closed)
        return rel < 0.01, f"rel {rel:.1e}"


class _Propagator:
    """One medium and its spectrum on a 128-point window."""

    def __init__(self):
        self.real = md.build_medium(md.MediumSpec(
            epsilon=0.1, gamma_profile=md.constant_profile(0.8), seed=2))
        self.grid = pp.FrequencyGrid.for_window(128, 1 / 8)
        self.spectrum = pp.spectrum(self.real, self.grid)

    def frozen_slab_closed_form(self, tol):
        one = drep(self.real, z_grid=np.array([0.0, 0.004]),
                   nu_eps=np.array([2.0]))
        state = pp.propagate(one, 1.0)
        phi = 2 * 1.0 * 0.002 / 0.1
        a_err = abs(state.alpha - (1 + 1j * 1.0 * 2.0 * 0.004 / 2))
        b_err = abs(state.beta - 1j * 1.0 * 2.0 * 0.004 / 2 * np.exp(1j * phi))
        return max(a_err, b_err) < 1e-10, f"max err {max(a_err, b_err):.1e}"

    def energy_conservation(self, tol):
        defect = self.spectrum.conservation_defect()
        return defect < tol["conservation"], f"defect {defect:.1e}"

    def frequency_mirror(self, tol):
        tp, rp = pp.transmission(pp.propagate(self.real, 3.0))
        tm, rm = pp.transmission(pp.propagate(self.real, -3.0))
        err = max(abs(tm - np.conj(tp)), abs(rm - np.conj(rp)))
        return err < 1e-10, f"err {err:.1e}"

    def transparent_zero_medium(self, tol):
        zero = drep(self.real, nu_eps=np.zeros(self.real.n_slabs))
        spz = pp.spectrum(zero, self.grid)
        return np.allclose(spz.T, 1.0) and np.allclose(spz.R, 0.0), ""

    def tm_modulus_bound(self, tol):
        t_max = np.max(np.abs(self.spectrum.T))
        return t_max <= 1 + 1e-12, f"max |T| {t_max:.6f}"


class _Pulse:
    """A Gaussian source and the transparent spectrum on its grid."""

    def __init__(self):
        self.source = f = pl.gaussian_source(n=1024)
        self.ident = pp.TransmissionSpectrum(
            grid=f.grid, T=np.ones(f.grid.n, complex),
            R=np.zeros(f.grid.n, complex), det_drift=0.0)

    def identity_inversion(self, tol):
        f = self.source
        a = pl.transmitted_pulse(self.ident, f)
        return float(np.max(np.abs(a.values - f.values))) < 1e-12, ""

    def shift_theorem(self, tol):
        f = self.source
        shift = drep(self.ident, T=np.exp(1j * f.grid.omegas * 0.5))
        a2 = pl.transmitted_pulse(shift, f)
        err = float(np.max(np.abs(a2.values - np.exp(-0.5 * (f.s_grid - 0.5) ** 2))))
        return err < 1e-9, f"err {err:.1e}"

    def gaussian_convolution(self, tol):
        f = self.source
        disp = drep(self.ident, T=np.exp(-0.2 * f.grid.omegas ** 2 / 4))
        a3 = pl.transmitted_pulse(disp, f)
        var = 1.0 + 0.1
        exact = np.sqrt(1 / var) * np.exp(-0.5 * f.s_grid ** 2 / var)
        return float(np.max(np.abs(a3.values - exact))) < 1e-9, ""

    def energy_audit(self, tol):
        f = self.source
        real = md.build_medium(md.MediumSpec(
            epsilon=0.1, gamma_profile=md.constant_profile(0.8), seed=9))
        sp = pp.spectrum(real, f.grid)
        at = pl.transmitted_pulse(sp, f)
        bt = pl.reflected_pulse(sp, f)
        ds = f.ds
        defect = abs(np.sum(at.values ** 2) * ds + np.sum(bt.values ** 2) * ds
                     - np.sum(f.values ** 2) * ds)
        return defect < 1e-8, f"defect {defect:.1e}"

    def shift_recovery(self, tol):
        f = self.source
        d = pl.pulse_distance(pl.PulseTrace(f.s_grid, f.values),
                              pl.theory_longrange(f, 1.0))
        return abs(d.best_shift - 0.5) < 1e-3, f"shift {d.best_shift:.5f}"


class _Limits:
    """One rank-2 Hermite path."""

    def __init__(self):
        self.path = lm.simulate_hermite(0.7, 2, 512, seed=4)

    def constant_index_identity(self, tol):
        rel = max(abs(lm.sh_covariance(h, 1.0, 1.0) - 1.0) for h in (0.55, 0.75, 0.9))
        return rel < tol["sh_quad"], f"max rel {rel:.1e}"

    def hermite_covariance_values(self, tol):
        ok = (abs(lm.hermite_covariance(0.75, 1, 1) - 1) < 1e-12
              and lm.hermite_covariance(0.75, 1, 0) == 0.0
              and abs(lm.hermite_covariance(0.75, 2, 1) - 2 ** 0.5) < 1e-12)
        return ok, ""

    def determinism(self, tol):
        again = lm.simulate_hermite(0.7, 2, 512, seed=4)
        return np.array_equal(self.path.values, again.values), ""

    def starts_at_zero(self, tol):
        return self.path.values[0] == 0.0, ""


class _Stats:
    def affine_invariance(self, tol):
        rng = np.random.default_rng(0)
        path = np.cumsum(rng.standard_normal(1 << 12))
        tr = gf.Trajectory(np.arange(1 << 12) / float(1 << 12), path)
        e1 = st.hurst_estimate(tr, n_boot=0).value
        tr2 = gf.Trajectory(tr.t_grid, 5.0 * tr.values + 7.0)
        return abs(e1 - st.hurst_estimate(tr2, n_boot=0).value) < 1e-12, ""

    def ramp_boundary(self, tol):
        ramp = gf.Trajectory(np.arange(2048) / 2048.0, np.linspace(0, 1, 2048))
        e = st.hurst_estimate(ramp, n_boot=0)
        return e.boundary and abs(e.value - 1.0) < 1e-9, ""

    def pvariation_linear_path(self, tol):
        lin = gf.Trajectory(np.linspace(0, 1, (1 << 10) + 1),
                            np.linspace(0, 1, (1 << 10) + 1))
        rep = st.dyadic_p_variation(lin, 2.0, 8)
        expect = 2.0 ** -np.arange(1, 9)
        return np.allclose(rep.dyadic_sums, expect, rtol=1e-10), ""

    def zero_width_ci(self, tol):
        agg = st.mc_aggregate(np.full(32, 2.5), "mean")
        return agg.ci_high - agg.ci_low == 0.0, ""


_SUITES = {"gaussian_field": _GaussianField, "hermite": _Hermite,
           "medium": _Medium, "propagator": _Propagator, "pulse": _Pulse,
           "limits": _Limits, "stats": _Stats}

CHECKS = tuple((suite, name, check) for suite, cls in _SUITES.items()
               for name, check in vars(cls).items() if not name.startswith("_"))


def run_verify_suites(tolerances=None):
    """Run the table in order, building each suite's set-up once.

    ``tolerances`` overrides entries of `TOLERANCES`.  Returns (report,
    all_passed); the report maps each suite to its checks' {"check",
    "passed", "detail"} in table order.
    """
    tol = {**TOLERANCES, **(tolerances or {})}
    report = {}
    for suite, entries in itertools.groupby(CHECKS, key=lambda e: e[0]):
        setup = _SUITES[suite]()
        report[suite] = []
        for _, name, check in entries:
            ok, detail = check(setup, tol)
            report[suite].append({"check": name, "passed": bool(ok),
                                  "detail": detail})
    all_ok = all(c["passed"] for checks in report.values() for c in checks)
    return report, all_ok
