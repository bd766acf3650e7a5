"""Exact-rational toolkit for weighted curve arrangements on the
projective plane: Lelong numbers, structural upper level sets, and
certified decisions on whether a level set fits inside a line or a conic
with at most one exception."""

from .cover import (
    Covered,
    NotCoverable,
    Outcome,
    UncoverableCurve,
    UncoveredPoints,
    Verdict,
    beta_of,
    conic_cover_check,
    evaluate_cover,
    find_heavy_points,
    line_cover_check,
    verify_verdict,
)
from .currents import DivisorCurrent, LevelSet
from .projective import (
    Conic,
    Curve,
    Line,
    Point,
    conic_from_lines,
    conic_space,
    incident,
    intersect_curves,
    is_irreducible,
    line_in_conic,
    line_through,
    max_on_curve,
    meet,
    multiplicity,
    on_common_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Conic",
    "Covered",
    "Curve",
    "DivisorCurrent",
    "GenSpec",
    "GeneratedInstance",
    "LevelSet",
    "Line",
    "NotCoverable",
    "Outcome",
    "Point",
    "UncoverableCurve",
    "UncoveredPoints",
    "Verdict",
    "beta_of",
    "conic_cover_check",
    "conic_from_lines",
    "conic_space",
    "evaluate_cover",
    "find_heavy_points",
    "generate",
    "incident",
    "intersect_curves",
    "is_irreducible",
    "line_cover_check",
    "line_in_conic",
    "line_through",
    "max_on_curve",
    "meet",
    "multiplicity",
    "on_common_curve",
    "run_suite",
    "verify_verdict",
]


def __getattr__(name):  # PEP 562: the names of `__all__` not imported above
    if name in __all__:  # are `harness`'s, loaded on first use by a `search`
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
