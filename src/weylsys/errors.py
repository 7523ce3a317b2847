"""Exception types shared across the package.

Every computational failure raises a subclass of :class:`WeylError` so
callers (and the command line front end) can distinguish numerical
failures from programming errors.
"""


class WeylError(Exception):
    """Base class for all failures raised by this package."""


class NotHermitian(WeylError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NotElliptic(WeylError):
    """An eigenvalue of the leading symbol is zero or too close to zero."""


class DegenerateSpectrum(WeylError):
    """Adjacent eigenvalues closer than the simplicity threshold."""


class DimensionMismatch(WeylError):
    """Incompatible dimensions: of a bracket or product, or of a torus model's fields."""


class ComplexResidue(WeylError):
    """A quantity that must be real carries a suspiciously large imaginary part."""


class SingularResolvent(WeylError):
    """Spectral parameter too close to an eigenvalue of the leading symbol."""


class AngleOutOfRange(WeylError):
    """An angle that must lie strictly inside (0, pi) does not."""


class DegenerateAngles(WeylError):
    """Two recovery angles are too close to invert the affine relation."""


class QuadratureFailure(WeylError):
    """Adaptive quadrature did not converge to the requested accuracy."""


class RealSpectralParameter(WeylError):
    """The spectral parameter must have a nonzero imaginary part."""


class UnknownModel(WeylError):
    """Requested catalog model name does not exist."""


class EllipticityViolation(WeylError):
    """Registration-time sampling found a degenerate or near-degenerate symbol."""


class BudgetExceeded(WeylError):
    """Requested Galerkin matrix dimension exceeds the configured budget."""


class SolveFailure(WeylError):
    """The dense Hermitian eigensolver failed."""


class WindowViolation(WeylError):
    """A requested spectral window leaves the trusted part of the spectrum."""


class IllConditionedFit(WeylError):
    """Fit window too narrow to separate the asymptotic terms."""


class SupportTooLarge(WeylError):
    """Mollifier support not below the shortest-loop bound."""


class ConfigError(WeylError):
    """Malformed or inconsistent run configuration."""
