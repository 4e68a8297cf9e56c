import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (ConfigurationError, FrequencyGrid, MediumSpec, StateError,
                    build_medium, constant_profile, propagate, spectrum,
                    transmission, v_triple)
from lrwave.propagator import PropagatorState


@pytest.fixture(scope="module")
def medium():
    return build_medium(MediumSpec(epsilon=0.1,
                                   gamma_profile=constant_profile(0.8),
                                   seed=17))


def one_slab(medium, nu, length):
    return replace(medium, z_grid=np.array([0.0, length]),
                   nu_eps=np.array([float(nu)]))


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

    @given(st.floats(min_value=-8, max_value=8),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_determinant_exact_per_step(self, medium, w, nu):
        st_ = propagate(one_slab(medium, nu, 0.004), w)
        assert st_.det_drift < 1e-12


class TestTransmission:
    def test_identity_state(self):
        st_ = PropagatorState(alpha=1.0 + 0j, beta=0.0j, z=1.0, omega=0.0)
        t, r = transmission(st_)
        assert t == 1.0 and r == 0.0

    def test_half_power_slab(self, medium):
        # w * nu * L / 2 = 1 gives |T|^2 = |R|^2 = 1/2 exactly
        st_ = propagate(one_slab(medium, 200.0, 0.01), 1.0)
        t, r = transmission(st_)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_corrupted_state_rejected(self):
        bad = PropagatorState(alpha=0.5 + 0j, beta=0.0j, z=1.0, omega=1.0)
        with pytest.raises(StateError):
            transmission(bad)


class TestSpectrum:
    def test_zero_medium_transparent(self, medium):
        zero = replace(medium, nu_eps=np.zeros(medium.n_slabs))
        sp = spectrum(zero, FrequencyGrid.for_window(128, 0.125))
        assert np.allclose(sp.T, 1.0) and np.allclose(sp.R, 0.0)

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
