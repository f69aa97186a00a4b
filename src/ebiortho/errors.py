"""Typed errors shared across the package."""


class EbiorthoError(Exception):
    """Base class for all package errors."""


class DomainError(EbiorthoError):
    """Argument outside the domain of an operation (e.g. |q| >= 1)."""


class PoleError(EbiorthoError):
    """Evaluation requested within tolerance of a pole or zero lattice point."""


class ContourError(EbiorthoError):
    """The unit circle does not separate the pole families of an integrand."""


class BranchError(EbiorthoError):
    """Exponent data does not select any valid branch of a piecewise formula."""


class HypothesisError(EbiorthoError):
    """Exponent vector fails the inequality set required by a measure."""


class SeriesDivergence(EbiorthoError):
    """An infinite series failed its convergence guard."""


class NonConvergence(EbiorthoError):
    """A numeric limit or extrapolation did not stabilize."""


class NonFiniteValue(EbiorthoError):
    """A result left the floating-point range (inf or NaN)."""


class NonTermination(EbiorthoError):
    """An iteration bound was hit; indicates an implementation bug."""


class InternalError(EbiorthoError):
    """A structural self-check failed (golden-count guard)."""
