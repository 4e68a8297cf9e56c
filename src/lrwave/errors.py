"""Exception types shared across the package."""


class DomainError(ValueError):
    """A numerical argument is outside its mathematical domain."""


class ConfigurationError(ValueError):
    """Inconsistent or unresolvable configuration (profiles, grids, keys)."""


class SynthesisError(RuntimeError):
    """Random-field synthesis failed (e.g. non-embeddable covariance)."""


class QuadratureError(RuntimeError):
    """Numerical integration did not converge to the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class WindowError(ConfigurationError):
    """A time shift or trace leaves the observation window."""


class StateError(RuntimeError):
    """A propagator state violates its conservation invariant."""
