"""Auxiliary current constructions used to concentrate density.

Blending a unit-mass current with a small arrangement of lines raises the
Lelong numbers of chosen points past the 2/5 mark while keeping the mass
exactly 1:

* triangle blend:   R = (5a'-2)/(15a') * ([L12]+[L13]+[L23]) + 2/(5a') * T
* single-line blend: R = (5a'-2)/(5a')  * [L]               + 2/(5a') * T

for a parameter a' > 2/5. Removing a line component of weight a and
rescaling the residual by 1/(1-a) keeps mass 1 and divides off-line
densities by (1-a); when a exceeds (4a'-1)/3, points of density above
(2/3)*(1-a') land strictly above 1/2.

Each operation returns a report whose rows pair every evaluated point with
its rescaled density and the bound it is measured against; the report is
recomputable from the constructed current alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cover import TWO_FIFTHS
from .currents import DivisorCurrent
from .errors import (
    BadAlphaPrime,
    CollinearPoints,
    FullWeightLine,
    NonUnitMass,
)
from .projective import Line, Point, line_through, on_common_curve

ONE_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BoundRow:
    """One evaluated point: its density in the constructed current and the
    bound it must exceed."""

    point: Point
    value: Fraction
    bound: Fraction

    @property
    def satisfied(self) -> bool:
        return self.value > self.bound

    def __repr__(self):
        rel = ">" if self.satisfied else "<="
        return f"BoundRow({self.point} -> {self.value} {rel} {self.bound})"


@dataclass(frozen=True)
class BlendReport:
    current: DivisorCurrent
    rows: tuple[BoundRow, ...]

    @property
    def mass_ok(self) -> bool:
        return self.current.mass == 1


@dataclass(frozen=True)
class RescaleReport:
    line_weight: Fraction
    current: DivisorCurrent
    applicable: Optional[bool]
    rows: tuple[BoundRow, ...]

    @property
    def mass_ok(self) -> bool:
        return self.current.mass == 1


def _check_alpha_prime(alpha_prime) -> Fraction:
    a = Fraction(alpha_prime)
    if a <= TWO_FIFTHS:
        raise BadAlphaPrime(f"alpha' must exceed 2/5, got {a}")
    return a


def _check_unit_mass(current: DivisorCurrent) -> None:
    if current.mass != 1:
        raise NonUnitMass(f"current mass is {current.mass}, expected exactly 1")


def blend_three_lines(
    current: DivisorCurrent,
    p1: Point,
    p2: Point,
    p3: Point,
    alpha_prime,
    extra_points: Iterable[Point] = (),
) -> BlendReport:
    """Blend with the three connecting lines of a triangle.

    The triangle corners each sit on two of the connecting lines, so their
    blended density lands above 2/5 whenever their density in the input
    exceeds (2/3)*(1 - alpha'); any extra point of density >= alpha' also
    exceeds 2/5 through the scaled copy of the input alone.
    """
    a = _check_alpha_prime(alpha_prime)
    _check_unit_mass(current)
    corners = (p1, p2, p3)
    if len({p1, p2, p3}) < 3 or on_common_curve(corners, 1):
        raise CollinearPoints("blend corners must be three non-collinear points")
    line_weight = (5 * a - 2) / (15 * a)
    lines = [line_through(p, q) for p, q in ((p1, p2), (p1, p3), (p2, p3))]
    blended = current.scaled(2 / (5 * a)) + DivisorCurrent(
        [(line_weight, line) for line in lines]
    )
    rows = tuple(
        BoundRow(p, blended.lelong_number(p), TWO_FIFTHS)
        for p in (*corners, *extra_points)
    )
    return BlendReport(blended, rows)


def blend_single_line(
    current: DivisorCurrent,
    line: Line,
    alpha_prime,
    extra_points: Iterable[Point] = (),
) -> BlendReport:
    """Blend with a single line carrying all of the complementary weight."""
    a = _check_alpha_prime(alpha_prime)
    _check_unit_mass(current)
    line_weight = (5 * a - 2) / (5 * a)
    blended = current.scaled(2 / (5 * a)) + DivisorCurrent([(line_weight, line)])
    rows = tuple(
        BoundRow(p, blended.lelong_number(p), TWO_FIFTHS) for p in extra_points
    )
    return BlendReport(blended, rows)


def line_weight_bound(alpha_prime) -> Fraction:
    """The weight (4*alpha' - 1)/3 that a line component must exceed for
    the rescaled-residual bound to apply."""
    a = _check_alpha_prime(alpha_prime)
    return (4 * a - 1) / 3


def residual_rescale(
    current: DivisorCurrent,
    line: Line,
    alpha_prime=None,
    points: Iterable[Point] = (),
) -> RescaleReport:
    """Peel off a line component at its full weight a and rescale the
    residual to unit mass: S = (T - a*[L]) / (1 - a).

    Every density obeys lelong_S(x) = (lelong_T(x) - a*mult_x(L)) / (1-a).
    Rows measure the supplied points against the 1/2 bound; `applicable`
    records whether a exceeds line_weight_bound(alpha_prime), the regime in
    which off-line points of density above (2/3)*(1-alpha') must pass it.
    """
    _check_unit_mass(current)
    weight = current.generic_lelong(line)
    if weight == 1:
        raise FullWeightLine("line carries the whole mass; residual is empty")
    residual = current.subtract(line, weight).scaled(Fraction(1) / (1 - weight))
    applicable = None
    if alpha_prime is not None:
        applicable = weight > line_weight_bound(alpha_prime)
    rows = tuple(
        BoundRow(p, residual.lelong_number(p), ONE_HALF) for p in points
    )
    return RescaleReport(weight, residual, applicable, rows)
