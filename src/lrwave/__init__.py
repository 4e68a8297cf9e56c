"""Layered random media with long-range correlations.

Synthesis of long-memory and multifractional Gaussian fields, transformed
(possibly non-Gaussian) media, frequency-domain pulse propagation through
them, simulators of the limiting travel-time processes, and the estimators
that tie the two together.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DomainError, QuadratureError,
                     StateError, SynthesisError, WindowError)
from .gaussian_field import (Trajectory, asymptotic_covariance_scale,
                             fgn_covariance, field_covariance,
                             increment_field_covariance, renorm_constant,
                             renorm_constant_sq, renorm_constant_sq_quadrature,
                             sample_field_diagonal, synthesize_fgn,
                             synthesize_field_grid)
from .hermite import (HermiteSpec, Truncation, composed_covariance,
                      hermite_coeffs, hermite_poly, truncation)
from .limits import (hermite_covariance, sh_covariance, simulate,
                     simulate_hermite, simulate_sh)
from .medium import (A2Report, A3Report, MediumRealization, MediumSpec,
                     VTriple, build_medium, check_a2, check_a3,
                     constant_profile, linear_profile, periodic_profile,
                     profile_from_config, v_triple, white_medium)
from .propagator import (FrequencyGrid, PropagatorState, TransmissionSpectrum,
                         propagate, spectra, spectrum, transmission)
from .pulse import (PulseDistance, PulseTrace, SourcePulse, gaussian_source,
                    pulse_distance, pulse_width, reflected_pulse,
                    ricker_source, theory_longrange, theory_shortrange,
                    transmitted_pulse)
from .stats import (EstimateWithCI, PVariationReport, dyadic_p_variation,
                    hurst_estimate, local_hurst, mc_aggregate)
