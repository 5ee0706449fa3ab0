"""Exception hierarchy shared by all qcopula modules."""


class QcopulaError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(QcopulaError):
    """Operands have incompatible or non-matrix shapes."""


class NonFinite(QcopulaError):
    """A matrix contains NaN or Inf entries."""


class NotHermitian(QcopulaError):
    """A matrix required to be Hermitian fails the tolerance check."""


class NotPSD(QcopulaError):
    """A matrix required to be positive semi-definite is not."""


class ZeroMatrix(QcopulaError):
    """A nonzero matrix was required but a numerically zero one was given."""


class InvalidInput(QcopulaError):
    """A file or document violates the expected schema or an invariant."""


class DegenerateSample(QcopulaError):
    """Random state generation kept producing rank-deficient samples."""


class NotConverged(QcopulaError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularIntermediate(QcopulaError):
    """An inverse inside the fixed-point map met a near-zero eigenvalue."""


class RankDeficient(QcopulaError):
    """The input state is rank deficient and regularization was not enabled."""


class PrecopulaCheckFailed(QcopulaError):
    """A converged run produced non-uniform marginals; indicates a bug."""


class VerificationFailed(QcopulaError):
    """Extracted scaling matrices miss the defining-equation tolerance."""


class NotPrecopula(QcopulaError):
    """An operation requiring uniform marginals received a non-precopula."""


class NonPositiveEntry(QcopulaError):
    """Classical scaling requires strictly positive matrix entries."""
