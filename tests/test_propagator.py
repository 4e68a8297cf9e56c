import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (ConfigurationError, FrequencyGrid, MediumSpec, StateError,
                    build_medium, constant_profile, linear_profile, propagate,
                    spectra, spectrum, transmission, truncation, v_triple)
from lrwave.propagator import (_BLOCK, _LANES, MAX_PHASE_STEP,
                               PropagatorState, _slab_product, _substeps)


@pytest.fixture(scope="module")
def medium():
    return build_medium(MediumSpec(epsilon=0.1,
                                   gamma_profile=constant_profile(0.8),
                                   seed=17))


def one_slab(medium, nu, length):
    return replace(medium, z_grid=np.array([0.0, length]),
                   nu_eps=np.array([float(nu)]))


def n_slabs(medium, n):
    """The medium's slab values repeated over n slabs of the same width."""
    return replace(medium, z_grid=medium.dz * np.arange(n + 1),
                   nu_eps=np.resize(medium.nu_eps, n))


def sequential_product(omegas, nu, z_left, dz, eps_tau, n_sub):
    """Reference: (alpha, beta) advanced one frozen-phase step at a time,
    the recursion the block-tree kernel replaces."""
    sub = dz / n_sub
    z_mid = (z_left[:, None] + (np.arange(n_sub) + 0.5) * sub).ravel()
    alpha = np.ones(omegas.size, dtype=complex)
    beta = np.zeros(omegas.size, dtype=complex)
    for z, nu_k in zip(z_mid, np.repeat(nu, n_sub)):
        c = 0.5j * sub * omegas * nu_k
        ph = np.exp(1j * (2.0 * z / eps_tau) * omegas)
        alpha, beta = ((1.0 + c) * alpha - (c * np.conj(ph)) * beta,
                       (c * ph) * alpha + (1.0 - c) * beta)
    return alpha, beta


def t_and_r(alpha, beta):
    return 1.0 / np.conj(alpha), beta / np.conj(alpha)


class TestPropagate:
    def test_zero_medium_identity(self, medium):
        zero = replace(medium, nu_eps=np.zeros(medium.n_slabs))
        st_ = propagate(zero, 3.0)
        assert st_.alpha == 1.0 and st_.beta == 0.0

    def test_zero_frequency_identity(self, medium):
        st_ = propagate(medium, 0.0)
        assert st_.alpha == 1.0 and st_.beta == 0.0

    def test_single_slab_nilpotent_closed_form(self, medium):
        w, nu, length = 1.0, 2.0, 0.004
        st_ = propagate(one_slab(medium, nu, length), w)
        phi = 2 * w * (length / 2) / medium.epsilon ** medium.tau
        half = 1j * w * nu * length / 2
        assert abs(st_.alpha - (1 + half)) < 1e-10
        assert abs(st_.beta - half * np.exp(1j * phi)) < 1e-10
        assert st_.det_drift < 1e-15

    @pytest.mark.parametrize("tau", [0.5, 1.5])
    def test_single_slab_phase_carries_tau(self, medium, tau):
        """beta = (i omega nu dz / 2) e^{i phi}, phi = 2 omega z_mid / eps^tau,
        on one slab off the surface with one sub-step."""
        w, nu, z0, length = 2.0, 3.0, 0.3, 0.001
        real = replace(medium, z_grid=np.array([z0, z0 + length]),
                       nu_eps=np.array([nu]), tau=tau)
        eps_tau = medium.epsilon ** tau
        assert _substeps(w, length, eps_tau) == 1
        phi = 2 * w * (z0 + length / 2) / eps_tau
        want = 1j * w * nu * length / 2 * np.exp(1j * phi)
        assert abs(propagate(real, w).beta - want) < 1e-10 * abs(want)

    @given(st.floats(min_value=-8, max_value=8),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_determinant_exact_per_step(self, medium, w, nu):
        st_ = propagate(one_slab(medium, nu, 0.004), w)
        assert st_.det_drift < 1e-12


class TestTransmission:
    def test_identity_state(self):
        st_ = PropagatorState(alpha=1.0 + 0j, beta=0.0j)
        t, r = transmission(st_)
        assert t == 1.0 and r == 0.0

    def test_half_power_slab(self, medium):
        # w * nu * L / 2 = 1 gives |T|^2 = |R|^2 = 1/2 exactly
        st_ = propagate(one_slab(medium, 200.0, 0.01), 1.0)
        t, r = transmission(st_)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_corrupted_state_rejected(self):
        bad = PropagatorState(alpha=0.5 + 0j, beta=0.0j)
        with pytest.raises(StateError):
            transmission(bad)

    @pytest.mark.parametrize("spec", [
        MediumSpec(epsilon=0.05, gamma_profile=constant_profile(0.8),
                   seed=(1, 0)),
        MediumSpec(epsilon=0.05, h_profile=linear_profile(0.6, 0.8),
                   truncation=truncation("square_center"), seed=(2, 0)),
        MediumSpec(epsilon=0.1, gamma_profile=constant_profile(0.8),
                   seed=(3, 0)),
    ], ids=["constant", "rank2_linear", "constant_eps0.1"])
    def test_group_delay_is_half_travel_time(self, spec):
        """arg T(w)/w - v1(Z)/2 = O(w^2) for any medium: the defect falls a
        hundredfold per decade of w (1.1e-11, -3.9e-10 and 1.1e-10 at
        w = 1e-5 for these media)."""
        real = build_medium(spec)
        v1_half = 0.5 * np.sum(real.nu_eps * real.dz)
        d = np.array([np.angle(transmission(propagate(real, w))[0]) / w
                      - v1_half for w in (1e-3, 1e-4, 1e-5)])
        ratios = d[1:] / d[:-1]
        assert np.all((0.009 <= ratios) & (ratios <= 0.011))
        assert abs(d[-1]) < 1e-8


class TestSpectrum:
    def test_energy_conservation(self, medium):
        sp = spectrum(medium, FrequencyGrid.for_window(256, 0.0625))
        assert sp.conservation_defect() < 1e-8
        assert np.max(np.abs(sp.T)) <= 1.0 + 1e-12

    def test_mirror_matches_direct_negative_frequency(self, medium):
        for w in (0.5, 3.0, 7.0):
            tp, rp = transmission(propagate(medium, w))
            tm, rm = transmission(propagate(medium, -w))
            assert abs(tm - np.conj(tp)) < 1e-10
            assert abs(rm - np.conj(rp)) < 1e-10

    def test_masked_agrees_with_full(self, medium):
        grid = FrequencyGrid.for_window(128, 0.125)
        active = np.abs(grid.omegas) < 8.0
        full = spectrum(medium, grid)
        masked = spectrum(medium, grid, active=active)
        assert np.array_equal(masked.T[masked.active], full.T[masked.active])
        assert np.allclose(masked.T[~masked.active], 1.0)

    def test_nyquist_entry_matches_propagate(self, medium):
        # the unpaired Nyquist entry shares its sub-step bin with other
        # frequencies and must come out as a one-frequency propagation
        grid = FrequencyGrid.for_window(128, 0.125)
        nyq = grid.n // 2
        t, r = transmission(propagate(medium, abs(grid.omegas[nyq])))
        for active in (None, np.abs(grid.omegas) > 20.0):
            sp = spectrum(medium, grid, active=active)
            assert sp.T[nyq] == t and sp.R[nyq] == r

    def test_bad_mask_shape(self, medium):
        grid = FrequencyGrid.for_window(128, 0.125)
        with pytest.raises(ConfigurationError):
            spectrum(medium, grid, active=np.ones(3, bool))

    def test_grid_symmetry_enforced(self):
        with pytest.raises(ConfigurationError):
            FrequencyGrid(np.array([0.0, 1.0, 2.0, 3.0]))

    def test_asymptotic_phase_law(self):
        """arg T(w) ~ w v1(Z)/2 realization-wise at small eps."""
        spec = MediumSpec(epsilon=0.025, gamma_profile=constant_profile(0.8),
                          seed=5)
        shifts, v1_half = [], []
        for i in range(30):
            real = build_medium(replace(spec, seed=(888, i)))
            t, _ = transmission(propagate(real, 1.0))
            shifts.append(2.0 * np.angle(t) / 1.0)
            v1_half.append(v_triple(real, 0.0).v1.values[-1])
        corr = np.corrcoef(shifts, v1_half)[0, 1]
        assert corr > 0.95


class TestSlabProduct:
    """The block-tree kernel against the sequential step recursion."""

    @pytest.mark.parametrize("n_sub", [1, 4])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 3])
    def test_matches_sequential_recursion(self, medium, n, n_sub):
        real = n_slabs(medium, n)
        eps_tau = real.epsilon ** real.tau
        omegas = np.array([0.0, 0.5, 1.7, 3.9]) * n_sub
        args = (omegas, real.nu_eps, real.z_grid[:-1], real.dz, eps_tau, n_sub)
        alpha, beta, drift = _slab_product(*args)
        t, r = t_and_r(alpha, beta)
        t_ref, r_ref = t_and_r(*sequential_product(*args))
        assert np.max(np.abs(t - t_ref)) < 1e-10
        assert np.max(np.abs(r - r_ref)) < 1e-10
        assert drift < 1e-12

    def test_spectrum_bins_match_sequential_recursion(self, medium):
        real = n_slabs(medium, 2 * _BLOCK + 3)
        eps_tau = real.epsilon ** real.tau
        grid = FrequencyGrid.for_window(128, 0.125)
        sp = spectrum(real, grid)
        pos = np.nonzero(grid.omegas >= 0.0)[0]
        bins = np.array([_substeps(w, real.dz, eps_tau)
                         for w in grid.omegas[pos]])
        assert np.unique(bins).size >= 5
        for ns in np.unique(bins):
            sel = pos[bins == ns]
            t_ref, r_ref = t_and_r(*sequential_product(
                grid.omegas[sel], real.nu_eps, real.z_grid[:-1], real.dz,
                eps_tau, int(ns)))
            assert np.max(np.abs(sp.T[sel] - t_ref)) < 1e-10
            assert np.max(np.abs(sp.R[sel] - r_ref)) < 1e-10

    @pytest.mark.parametrize("w", [-0.3, -2.5, -7.0])
    def test_negative_frequency_matches_sequential_recursion(self, medium, w):
        real = n_slabs(medium, _BLOCK + 1)
        eps_tau = real.epsilon ** real.tau
        t, r = transmission(propagate(real, w))
        t_ref, r_ref = t_and_r(*sequential_product(
            np.array([w]), real.nu_eps, real.z_grid[:-1], real.dz, eps_tau,
            _substeps(w, real.dz, eps_tau)))
        assert abs(t - t_ref[0]) < 1e-10 and abs(r - r_ref[0]) < 1e-10

    def test_substeps_keep_phase_step_at_most_max(self):
        assert _substeps(0.99 * MAX_PHASE_STEP, 1.0, 1.0) == 1
        assert _substeps(1.01 * MAX_PHASE_STEP, 1.0, 1.0) == 2

    def test_entry_alone_equals_entry_in_bin(self, medium):
        # a frequency's bits do not depend on which others share its bin
        real = n_slabs(medium, _BLOCK + 1)
        grid = FrequencyGrid.for_window(128, 0.125)
        sp = spectrum(real, grid)
        for k in range(grid.n // 2 + 1):
            t, r = transmission(propagate(real, abs(grid.omegas[k])))
            assert sp.T[k] == t and sp.R[k] == r

    def test_corrupted_product_raises(self, medium):
        bad = replace(medium, nu_eps=np.where(
            np.arange(medium.n_slabs) == 7, np.nan, medium.nu_eps))
        with pytest.raises(StateError):
            spectrum(bad, FrequencyGrid.for_window(128, 0.125))
        with pytest.raises(StateError):
            propagate(bad, 1.0)


class TestSpectra:
    """An ensemble's batched slab product against one medium at a time."""

    @pytest.fixture(scope="class")
    def ensemble(self, medium):
        base = n_slabs(medium, _BLOCK + 1)
        return [replace(base, nu_eps=np.roll(base.nu_eps, 37 * j))
                for j in range(5)]

    def test_lane_invariant(self, ensemble):
        grid = FrequencyGrid.for_window(256, 0.125)
        real = ensemble[0]
        eps_tau = real.epsilon ** real.tau
        _, per_bin = np.unique([_substeps(w, real.dz, eps_tau)
                                for w in grid.omegas if w >= 0.0],
                               return_counts=True)
        # the largest bin runs as several chunks of several realizations
        assert len(ensemble) * per_bin.max() > _LANES
        assert _LANES // per_bin.max() > 1
        active = np.abs(grid.omegas) < 20.0
        for act in (None, active):
            batch = list(spectra(ensemble, grid, active=act))
            assert len(batch) == len(ensemble)
            for real, sp in zip(ensemble, batch):
                alone = spectrum(real, grid, active=act)
                assert np.array_equal(sp.T, alone.T)
                assert np.array_equal(sp.R, alone.R)
                assert sp.det_drift == alone.det_drift
                assert np.array_equal(sp.active, alone.active)

    def test_corrupted_realization_named(self, ensemble):
        bad = list(ensemble)
        bad[3] = replace(bad[3], nu_eps=np.where(
            np.arange(bad[3].n_slabs) == 7, np.nan, bad[3].nu_eps))
        with pytest.raises(StateError, match="realization 3"):
            list(spectra(bad, FrequencyGrid.for_window(128, 0.125)))

    @pytest.mark.parametrize("field", ["epsilon", "tau", "z_grid"])
    def test_mixed_media_rejected(self, ensemble, field):
        other = {"epsilon": 0.05, "tau": 0.5,
                 "z_grid": ensemble[1].z_grid + ensemble[1].dz}[field]
        mixed = [ensemble[0], replace(ensemble[1], **{field: other})]
        with pytest.raises(ConfigurationError):
            list(spectra(mixed, FrequencyGrid.for_window(128, 0.125)))
