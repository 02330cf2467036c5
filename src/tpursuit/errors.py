"""Exception types shared across the package."""


class TpursuitError(Exception):
    """Base class for every package-specific error."""


class ShapeMismatch(TpursuitError, ValueError):
    """Operands or files carry incompatible dimensions."""


class RankOutOfRange(TpursuitError, ValueError):
    """A rank or truncation width lies outside [1, min(n1, n2)]."""


class NumericalFailure(TpursuitError, ArithmeticError):
    """An underlying numerical routine failed to converge."""


class RankDeficientMap(TpursuitError, ArithmeticError):
    """A dense measurement matrix has numerically dependent rows."""


class EmptyMask(TpursuitError, ValueError):
    """A sampling mask must keep at least one entry."""


class DivergenceDetected(TpursuitError, ArithmeticError):
    """A residual norm increased; the refit guarantees monotone decline."""


class FileFormatError(TpursuitError, ValueError):
    """A binary input file does not match its declared format."""
