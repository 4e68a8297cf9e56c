"""The `verify` check table, run once, one test case per check."""
import pytest

from lrwave.verify import CHECKS, run_verify_suites

# every (suite, check) pair in report order; a dropped or renamed check
# fails test_names_pinned instead of silently removing its case
NAMES = [
    ("gaussian_field", "renorm_closed_vs_quadrature"),
    ("gaussian_field", "fgn_determinism"),
    ("gaussian_field", "fgn_covariance_mc"),
    ("gaussian_field", "field_column_variance"),
    ("gaussian_field", "asymptotic_scale_lag100"),
    ("hermite", "orthogonality"),
    ("hermite", "cubic_coefficients"),
    ("hermite", "cubic_composition"),
    ("hermite", "parseval_tanh"),
    ("medium", "determinism"),
    ("medium", "scaling_bilinearity"),
    ("medium", "zero_truncation"),
    ("medium", "v2_closed_form"),
    ("medium", "a2_exact"),
    ("medium", "a3_exact"),
    ("propagator", "frozen_slab_closed_form"),
    ("propagator", "energy_conservation"),
    ("propagator", "frequency_mirror"),
    ("propagator", "transparent_zero_medium"),
    ("propagator", "tm_modulus_bound"),
    ("pulse", "identity_inversion"),
    ("pulse", "shift_theorem"),
    ("pulse", "gaussian_convolution"),
    ("pulse", "energy_audit"),
    ("pulse", "shift_recovery"),
    ("limits", "constant_index_identity"),
    ("limits", "hermite_covariance_values"),
    ("limits", "determinism"),
    ("limits", "starts_at_zero"),
    ("stats", "affine_invariance"),
    ("stats", "ramp_boundary"),
    ("stats", "pvariation_linear_path"),
    ("stats", "zero_width_ci"),
]


@pytest.fixture(scope="module")
def results():
    report, _ = run_verify_suites()
    return {(suite, c["check"]): c
            for suite, checks in report.items() for c in checks}


def test_names_pinned(results):
    assert [(suite, name) for suite, name, _ in CHECKS] == NAMES
    assert list(results) == NAMES


@pytest.mark.parametrize("suite,name", NAMES,
                         ids=[f"{suite}.{name}" for suite, name in NAMES])
def test_check(results, suite, name):
    result = results[suite, name]
    assert result["passed"], result["detail"]
