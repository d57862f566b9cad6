"""Exception types shared across the package."""


class EulerDistError(Exception):
    """Base class for all package errors."""


class DimensionError(EulerDistError):
    """Ambient dimensions of the operands do not match."""


class ZeroPolynomial(EulerDistError):
    """Operation requires a nonzero polynomial."""


class UnsupportedInput(EulerDistError):
    """Input is outside the structured distribution class."""


class QuadratureNoConvergence(EulerDistError):
    """A numerical pairing failed to reach the requested tolerance."""


class FloatOverflow(EulerDistError):
    """A numerical check's intermediate value exceeds the float range."""


class InputTooLarge(EulerDistError):
    """An input or its solution exceeds a stated limit of eulerdist.limits."""


class ParseError(EulerDistError):
    """Syntax error in a polynomial or distribution expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class CoordinateConflict(EulerDistError):
    """Two incompatible factors refer to the same coordinate in one term."""
