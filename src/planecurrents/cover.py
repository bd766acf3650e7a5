"""Certified cover decisions for structural level sets.

The question answered here: does a single curve of degree d (a line for
d = 1, a possibly reducible conic for d = 2) contain a given level set with
at most one exception?

Component curves of the level set force the answer's shape. A curve that
is not a component of a conic meets it in at most 2*deg points (Bezout),
so a full component curve minus at most one point can only be covered by a
witness having that curve as a component. Hence:

* if the component degrees sum past the budget, the verdict is
  NotCoverable with one of those curves as the obstruction;
* otherwise the degree left, e, is spent on the isolated points. Their
  coordinate (e = 1) or Veronese (e = 2) incidence rows are built once per
  check; a curve of degree e holds a set of points iff its rows have rank
  below the column count k (3 or 6). `projective.dependencies` eliminates
  the transposed rows, whose columns are the points, once; rank below k
  means nothing is omitted, and only at rank k are the dependencies among
  the points read off. Then the rest after omitting point p fits iff p is
  a coloop of the row matroid (removing it drops the rank), that is iff p
  is in the support of no dependency: a point in none is in every basis,
  and a point in the support of one is spanned by the others it uses
  (Oxley, Matroid Theory, 2011, ch. 2). So the omission is the first
  coloop in canonical order, the point the plain scan ("omit nothing",
  then each point in canonical order) would pick. The witness is fitted to
  the basis points of the rest, the pivots but the omission. Their rows
  span those of the rest, so they have the same kernel and give the same
  first conic of `conic_space`, from at most five rows, and any two
  distinct ones span the same line. With no degree left, only a lone point
  can be omitted.
* a set that fails is pruned to an inclusion-minimal obstruction in
  canonical order (with no degree left, pruning leaves the last two
  points). The points left always have full rank and no coloop, so a drop
  keeps the rank, and it is kept iff it leaves no coloop. The
  dependencies of the rest are those zero at the point dropped, the span
  of the other vectors each combined with the first vector nonzero there
  to cancel it; a drop is kept iff their supports still cover every
  point left. The columns run from the last point back, so the pivots
  are the greedy basis taken from the last point, and the early points
  in canonical order are free columns: only their own vector is nonzero
  there, and dropping one costs no combination. The points kept, of rank
  k, number k plus the dependencies held, so once one is held every drop
  leaves k points and no dependency, and the pruning stops.

Verdicts carry re-checkable certificates: a witness plus optional omitted
point, or an obstruction (an unfittable component curve, or a point set
such that every single-point omission still fails the rank test).
`verify_verdict` re-checks an obstruction by that definition, by rank,
not by the dependencies, from its own row by row elimination of its rows
(`linalg.extend_echelon`). That pass gives the rank of the whole set and
the greedy basis B of its rows. Omitting a point outside B leaves B in
the rest, which keeps full rank, with no elimination. Omitting the point
of the k-th row of B continues the state before that row, the first k - 1
rows of B, with the rows after it, until full rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from . import linalg
from .currents import DivisorCurrent, LevelSet
from .errors import AlphaOutOfRange
from .projective import (
    Conic,
    Curve,
    Line,
    Point,
    _rows_of,
    conic_from_lines,
    conic_space,
    dependencies,
    incident,
    line_in_conic,
    line_through,
)

TWO_FIFTHS = Fraction(2, 5)


@dataclass(frozen=True)
class Covered:
    """Positive verdict: a witness curve containing the level set with at
    most the one listed omission."""

    witness: Union[Line, Conic]
    omitted: Optional[Point] = None


@dataclass(frozen=True)
class UncoverableCurve:
    """Obstruction: a component curve that cannot fit inside any witness."""

    curve: Curve

    def __repr__(self):
        return f"UncoverableCurve({self.curve!r})"


@dataclass(frozen=True)
class UncoveredPoints:
    """Obstruction: points such that every single omission among them still
    fails the fit, so at least two of them escape every witness. The
    points are kept sorted."""

    points: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    def __repr__(self):
        return f"UncoveredPoints({list(self.points)!r})"


@dataclass(frozen=True)
class NotCoverable:
    """Negative verdict with a re-checkable obstruction certificate."""

    obstruction: Union[UncoverableCurve, UncoveredPoints]

    def __repr__(self):
        return f"NotCoverable({self.obstruction!r})"


Verdict = Union[Covered, NotCoverable]


def beta_of(alpha: Fraction | int) -> Fraction:
    """Level threshold (2/3)*(1 - alpha) attached to a heavy-point
    threshold alpha > 2/5."""
    a = Fraction(alpha)
    if a <= TWO_FIFTHS:
        raise AlphaOutOfRange(f"alpha must exceed 2/5, got {a}")
    return Fraction(2, 3) * (1 - a)


def _overflow_curve(curves, budget: int) -> Optional[Curve]:
    """First curve (canonical order) whose degree does not fit the budget,
    or None when all of them fit."""
    used = 0
    for c in curves:
        used += c.degree
        if used > budget:
            return c
    return None


def _spanning_line(points) -> Line:
    """Canonical line through a (known collinear) point list."""
    if len(points) >= 2:
        return line_through(points[0], points[1])
    if len(points) == 1:
        for cand in (Point(1, 0, 0), Point(0, 1, 0)):
            if cand != points[0]:
                return line_through(points[0], cand)
    return Line(0, 0, 1)


def _witness(forced, points, budget: int) -> Union[Line, Conic]:
    """The canonical witness: the forced curves, then the line or the
    first conic of `conic_space` through the points, which may be any
    points spanning the rows of those it must hold."""
    if budget == 1:
        return forced[0] if forced else _spanning_line(points)
    if len(forced) == 1 and isinstance(forced[0], Conic):
        return forced[0]
    if len(forced) == 2:
        return conic_from_lines(forced[0], forced[1])
    if len(forced) == 1:
        return conic_from_lines(forced[0], _spanning_line(points))
    # the caller found the points on a conic, so the space is nonzero
    return conic_space(points)[0]


def _without(deps, i) -> list:
    """The dependencies of the rest after dropping point i, from those of
    the points kept before: the others, each one nonzero at i combined
    with the first vector nonzero there to cancel it, made primitive."""
    first = next(vec for vec in deps if vec[i])
    a = first[i]
    rest = []
    for vec in deps:
        if vec is first:
            continue
        b = vec[i]
        if b:
            vec = [a * x - b * y for x, y in zip(vec, first)]
            g = gcd(*vec)
            vec = [x // g for x in vec]
        rest.append(vec)
    return rest


def _minimal_obstruction(deps, n) -> list[int]:
    """Columns of an inclusion-minimal obstruction among n columns (the
    points, the last one first) of full rank and no coloop, given their
    dependencies, pruned in canonical order, from the last column down: a
    drop is kept iff the dependencies of the rest still cover every
    column left (see the module docstring)."""
    keep = list(range(n))
    for i in reversed(range(n)):
        if len(deps) == 1:
            break  # every later drop leaves ncols columns and no dependency
        rest = _without(deps, i)
        # every vector is zero off the columns kept, so the rest is covered
        # iff as many columns as it has are nonzero in some vector
        if sum(map(any, zip(*rest))) == len(keep) - 1:
            deps = rest
            keep.remove(i)
    return keep


def _cover_check(level: LevelSet, budget: int) -> Verdict:
    curves = level.component_curves
    overflow = _overflow_curve(curves, budget)
    if overflow is not None:
        return NotCoverable(UncoverableCurve(overflow))
    points = level.isolated_points
    degree_left = budget - level.total_component_degree
    if degree_left == 0:
        # no curve is left for the points: one can be omitted, and of two
        # or more, canonical pruning leaves the last two
        if len(points) >= 2:
            return NotCoverable(UncoveredPoints(points[-2:]))
        return Covered(_witness(curves, (), budget), points[0] if points else None)
    # one column per point, from the last point back
    back = points[::-1]
    basis, deps = dependencies([p.ints for p in back], degree_left)
    omitted = None
    if deps is not None:
        # only a coloop can be omitted, and every coloop is a pivot
        found = [j for j in basis if not any(vec[j] for vec in deps)]
        if not found:
            return NotCoverable(UncoveredPoints(back[j] for j in _minimal_obstruction(deps, len(back))))
        omitted = found[-1]  # the first coloop in canonical order
        basis.remove(omitted)
    witness = _witness(curves, [back[j] for j in basis], budget)
    return Covered(witness, None if omitted is None else back[omitted])


def line_cover_check(level: LevelSet) -> Verdict:
    """Decide whether a single line contains the level set minus at most
    one point; witness is a Line."""
    return _cover_check(level, 1)


def conic_cover_check(level: LevelSet) -> Verdict:
    """Decide whether a conic (possibly reducible) contains the level set
    minus at most one point; witness is a Conic."""
    return _cover_check(level, 2)


def verify_verdict(level: LevelSet, verdict: Verdict, budget: int = 2) -> bool:
    """Independently re-check a verdict certificate against the level set
    by direct incidence and rank tests. A point obstruction must hold two
    or more distinct points of the level set, and neither the whole set
    nor any rest after one omission may fit: by rank, on one elimination
    whose state before each basis row is continued for that row's
    omission (see the module docstring); with no degree left, any two
    points are an obstruction."""
    if isinstance(verdict, Covered):
        w = verdict.witness
        if not isinstance(w, Line if budget == 1 else Conic):
            return False
        for c in level.component_curves:
            if isinstance(c, Line):
                contained = c == w if isinstance(w, Line) else line_in_conic(c, w)
            else:
                contained = isinstance(w, Conic) and c == w
            if not contained:
                return False
        uncovered = [p for p in level.isolated_points if not incident(p, w)]
        if verdict.omitted is None:
            return not uncovered
        return uncovered == [verdict.omitted]
    obs = verdict.obstruction
    if isinstance(obs, UncoverableCurve):
        return obs.curve in level.component_curves and level.total_component_degree > budget
    degree_left = budget - level.total_component_degree
    if degree_left < 0:
        return False
    # omitting a point omits every copy of it, so the rows are the distinct points
    pts = list(dict.fromkeys(p.ints for p in obs.points))
    members = {p.ints for p in level.isolated_points}
    if len(pts) < 2 or not members.issuperset(pts):
        return False
    if not degree_left:
        return True  # no curve is left, and every omission leaves a point
    rows, ncols = _rows_of(pts, degree_left)
    echelon: list = []
    basis = linalg.extend_echelon(echelon, rows, ncols)
    if len(echelon) < ncols:
        return False  # the whole set fits
    # omitting a row outside the basis leaves the basis, so the rest has
    # full rank; omitting basis row i continues from the state before it
    for k, i in enumerate(basis):
        rest = echelon[:k]
        linalg.extend_echelon(rest, rows[i + 1 :], ncols)
        if len(rest) < ncols:
            return False
    return True


@dataclass(frozen=True)
class Outcome:
    """The decision on one instance at alpha. The hypothesis of the cover
    theorem holds, and `reason` is None, when the current has unit mass,
    alpha exceeds 2/5 and either a component of weight >= alpha (whose
    every point has density >= alpha) or at least four points of density
    >= alpha exist. Only then are `level`, the strict level set at beta,
    and `verdict`, its conic cover check, set."""

    current: DivisorCurrent
    alpha: Fraction
    heavy_curves: tuple[tuple[Fraction, Curve], ...]
    heavy_points: tuple[Point, ...]
    reason: Optional[str] = None
    level: Optional[LevelSet] = None
    verdict: Optional[Verdict] = None

    @property
    def beta(self) -> Fraction:
        return beta_of(self.alpha)


def find_heavy_points(current: DivisorCurrent, alpha) -> tuple[Point, ...]:
    """The isolated points of the level set {nu >= alpha}, in canonical
    order, read from the current's incidence map with no LevelSet built.
    A component curve of weight >= alpha is not sampled: its weight alone
    meets the hypothesis (see `Outcome`), and `check` reports it as a
    curve."""
    return tuple(sorted(current._level_parts(alpha, False)[2]))


def evaluate_cover(current: DivisorCurrent, alpha) -> Outcome:
    """Decide an instance: check the mass, then alpha, then locate heavy
    points and check the hypothesis, build the strict level set at beta
    and decide the conic cover.

    For a valid instance the expected verdict is Covered; NotCoverable is a
    counterexample report. Until the mass and alpha pass, no meet is taken
    and `heavy_points` is (). Weights and mass are tested on the current's
    numerators over `den`: w = n/den is >= alpha = p/q when n*q >= p*den,
    and the mass is 1 when the sum of n*deg is den; a Fraction is built
    only for a reason's text."""
    a = alpha if type(alpha) is Fraction else Fraction(alpha)
    q, bound = a.denominator, a.numerator * current.den
    heavy_curves = tuple(wc for n, wc in zip(current.nums, current.components) if n * q >= bound)
    heavy = ()
    if sum(n * c.degree for n, (_, c) in zip(current.nums, current.components)) != current.den:
        reason = f"current mass is {current.mass}, expected exactly 1"
    elif a <= TWO_FIFTHS:
        reason = f"alpha must exceed 2/5, got {a}"
    elif len(heavy := find_heavy_points(current, a)) < 4 and not heavy_curves:
        reason = f"needs a component of weight >= {a} or four points of density >= {a}, got {len(heavy)}"
    else:
        level = current.level_set(beta_of(a), strict=True)
        return Outcome(current, a, heavy_curves, heavy, None, level, conic_cover_check(level))
    return Outcome(current, a, heavy_curves, heavy, reason)
