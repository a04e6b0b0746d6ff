"""Exception types shared across the toolkit."""


class SonckitError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(SonckitError):
    """Polynomial text does not conform to the grammar."""


class NotHomogeneous(SonckitError):
    """Terms of a form have differing total degrees."""


class DimensionMismatch(SonckitError):
    """Point, matrix, or variable-count shapes disagree."""


class ZeroFormInput(SonckitError):
    """An operation that needs a nonzero form received the zero form."""


class OddDegree(SonckitError):
    """Half-support requested for a form of odd degree."""


class AffinelyDependentInput(SonckitError):
    """Vertex list was required to be affinely independent but is not."""


class CapExceeded(SonckitError):
    """A search would exceed one of its fixed caps: the candidate points
    of a simplex enumeration (``geometry.DEFAULT_CANDIDATE_CAP``) or the
    integer candidates of a lattice-point scan
    (``geometry.LATTICE_CANDIDATE_CAP``)."""


class MonomialSquareSumHasNoCircuitNumber(SonckitError):
    """Circuit numbers exist only for circuits with an inner term."""


class NotNonnegativeCircuit(SonckitError):
    """Operation is defined only for nonnegative circuits."""


class ZeroCoordinate(SonckitError):
    """Coordinate-wise logarithm requested at a point with a zero entry."""


class PreconditionNotEquality(SonckitError):
    """Equality-case check invoked although the inner/outer sums differ."""


class UncoveredInnerExponent(SonckitError):
    """A non-square exponent lies in no simplex spanned by square exponents."""


class BudgetExceeded(SonckitError):
    """Feasibility search problem is larger than the configured budget."""


class FloatRangeExceeded(SonckitError):
    """A coefficient a float computation needs lies outside the float range."""


class OddPointInDelta(SonckitError):
    """Mediated sets are defined for generating points with even entries."""


class InternalInvariantViolation(SonckitError):
    """A self-check failed; indicates a bug, reported with exit code 2."""
