"""Exception types shared across the package."""


class GcodaError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GcodaError, ValueError):
    """Operands disagree on the number of components."""


class NonPositiveValue(GcodaError, ValueError):
    """A quantity that must be strictly positive is zero, negative or non-finite."""


class NotOnSimplex(GcodaError, ValueError):
    """Components of a would-be composition do not sum to one."""


class NotInTangentSpace(GcodaError, ValueError):
    """Components of a would-be tangent vector do not sum to zero."""


class MixedSignParameter(GcodaError, ValueError):
    """Weight vector mixes positive and negative components."""


class ZeroComponent(GcodaError, ValueError):
    """Weight vector contains a zero component."""


class WeightOutOfRange(GcodaError, ValueError):
    """Weight vector has a component too small or too large for float64 closure."""


class NonConvergence(GcodaError, RuntimeError):
    """Scalar root solver exhausted its iteration budget."""


class NotPositiveDefinite(GcodaError, ValueError):
    """Covariance matrix is not symmetric positive definite."""


class NumericalOverflow(GcodaError, FloatingPointError):
    """A computation produced a non-finite value."""


class IngestError(GcodaError, ValueError):
    """Input file violates the expected tabular format."""
