"""Exception types shared across the package.

Every error that the command line surfaces carries a ``category`` attribute
used to derive the process exit code.
"""


class VolldpError(Exception):
    """Base class for package errors."""

    category = "INTERNAL"


class ConfigurationError(VolldpError):
    """Bad parameter values or malformed configuration input."""

    category = "CONFIG"


class DomainError(VolldpError, ValueError):
    """Arguments outside the mathematical domain of an operation."""

    category = "DOMAIN"


class ValidationError(VolldpError):
    """Inputs that break an assumption of the computation: a model
    assumption on the probe set (the short-time routes' mu = 0), a tilt
    control that does not fit the run, slope-fit estimates outside (0, 1)
    or with equal noise levels, path sets of mismatched shapes, or KS
    samples of unequal sizes."""

    category = "VALIDATION"


class QuadratureError(VolldpError):
    """A numerical quadrature or covariance assembly produced garbage."""

    category = "NUMERIC"


class SingularDiffusionError(VolldpError):
    """The diffusion matrix a = sigma sigma^T is singular along the path."""

    category = "NUMERIC"


class OptimizationError(VolldpError):
    """The rate-functional minimizer could not produce a usable answer."""

    category = "NUMERIC"


class NonFinitePathError(VolldpError):
    """Simulated paths came out non-finite (the Euler scheme overflowed)."""

    category = "NUMERIC"
