"""Exception hierarchy for moreaukit."""


class MoreauKitError(Exception):
    """Base class for all moreaukit errors."""


class DimensionMismatch(MoreauKitError):
    """Point dimension does not match the function's dimension."""


class InvalidArgument(MoreauKitError):
    """An argument violates a documented precondition."""


class InvalidFunctionValue(MoreauKitError):
    """A function evaluated to -infinity, which an l.s.c. model with a
    quadratic lower bound cannot take.  NaN is not invalid: it means outside
    the domain and is read as +infinity (FunctionSpec.batch)."""


class ParseError(MoreauKitError):
    """Expression could not be parsed.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset} (expected: {', '.join(sorted(expected)) or 'n/a'})")
        self.offset = offset
        self.expected = frozenset(expected)


class ArityError(MoreauKitError):
    """Variable index out of range for the declared dimension."""


class ThresholdExceeded(MoreauKitError):
    """Regularization parameter is at or above the prox-boundedness threshold."""

    def __init__(self, lam, threshold):
        super().__init__(f"lambda = {lam} is not below the prox-boundedness threshold {threshold}")
        self.lam = lam
        self.threshold = threshold


class InvalidLambda(MoreauKitError):
    """Lambda outside the valid interval for a quadratic-shift identity."""


class NoFeasiblePoint(MoreauKitError):
    """No finite objective value could be found to bound the prox search."""


class MultivaluedProx(MoreauKitError):
    """Proximal mapping has more than one cluster where a single value is required."""


class InfiniteAtCenter(MoreauKitError):
    """Candidate minimizer lies outside the function's effective domain."""


class PreconditionFailed(MoreauKitError):
    """A verification routine's hypothesis does not hold for the given inputs."""


class CertificateInvalid(MoreauKitError):
    """Sampling found a point violating the quadratic lower-bound
    certificate, or a solve found an objective that it does not bound."""
