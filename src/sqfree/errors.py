"""Exception types shared across the package."""


class SqfreeError(Exception):
    pass


class MixedBackends(SqfreeError):
    """Arithmetic attempted between elements of different coefficient rings."""


class DivisionByZero(SqfreeError, ZeroDivisionError):
    pass


class ZeroConjugator(SqfreeError):
    """Inner automorphism requested for a non-invertible element."""


class InfiniteBackend(SqfreeError):
    """Enumeration or search requested over an infinite coefficient ring."""


class SearchBoundExceeded(SqfreeError):
    """A search space estimate exceeded the configured bound."""


class NonCommutativeCoefficients(SqfreeError):
    """Abelian cochain machinery called with a non-commutative backend."""


class InvalidCocycle(SqfreeError):
    """Input failed the two-cocycle identities."""


class WitnessRejected(SqfreeError):
    """Claimed isomorphism witness failed the multiplicativity check."""


class NonCentralXi(SqfreeError):
    """Scalar cocycle value lies outside the coefficient center."""


class MixedRings(SqfreeError):
    """Operation attempted between elements of different twisted rings."""


class NotAOneCocycle(SqfreeError):
    """Pair does not fix the base cocycle, so it induces no automorphism."""


class NotInvertible(SqfreeError):
    pass


class NormalizationFailed(SqfreeError):
    """No inner correction aligns the idempotent images with the basis."""


class InvalidInput(SqfreeError):
    """Malformed JSON input; `where` locates the offending key."""

    def __init__(self, message, where=""):
        super().__init__(message if not where else f"{where}: {message}")
        self.where = where
