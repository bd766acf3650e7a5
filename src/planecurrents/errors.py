"""Exception types shared across the package."""


class PlaneCurrentsError(Exception):
    """Base class for every package-specific error."""


class EqualPoints(PlaneCurrentsError):
    """Two points that were required to be distinct coincide."""


class EqualLines(PlaneCurrentsError):
    """Two lines that were required to be distinct coincide."""


class UnsupportedDegree(PlaneCurrentsError):
    """Curve degree outside the supported range {1, 2}."""


class ReducibleConic(PlaneCurrentsError):
    """A reducible quadratic form was used where an irreducible conic is
    required (current components must list line pairs as two lines)."""


class NegativeWeight(PlaneCurrentsError):
    """A component weight is negative."""


class NonpositiveThreshold(PlaneCurrentsError):
    """Level-set threshold must be positive, or zero for a strict level set."""


class IrrationalIntersection(PlaneCurrentsError):
    """An intersection point has no rational-coordinate representation."""


class AlphaOutOfRange(PlaneCurrentsError):
    """Density threshold alpha must exceed 2/5."""


class DegenerateSeed(PlaneCurrentsError):
    """A constructive configuration seed violates genericity."""


class InvalidSpec(PlaneCurrentsError):
    """Generator specification is invalid."""


class GridTooLarge(PlaneCurrentsError):
    """Sweep grid exceeds the configured instance cap."""


class ParseError(PlaneCurrentsError):
    """Input document failed validation; carries the offending location."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
