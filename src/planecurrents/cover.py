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
  coordinate (e = 1) or Veronese (e = 2) incidence rows are built once
  per check; a curve of degree e holds a set of points iff its rows have
  rank below the column count k (3 or 6). Rank below k means nothing is
  omitted. At rank k, the rest after omitting point p fits iff row p is
  a coloop of the row matroid (removing it drops the rank), and a coloop
  lies in every basis. So one elimination of the transposed rows gives
  the greedy basis (its pivot columns), and only those points are
  rank-tested, in canonical order; the first coloop is the omission.
  That is the point the plain scan, "omit nothing" and then each point
  in canonical order, would pick, so the witness and the omission are
  the same as that scan's. With no degree left, only a lone point can be
  omitted.

Verdicts carry re-checkable certificates: a witness plus optional omitted
point, or an obstruction (an unfittable component curve, or a point set
such that every single-point omission still fails the rank test).
`verify_verdict` re-checks an obstruction by that definition, one rank
test per omission, not by the coloop shortcut.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from . import linalg
from .currents import DivisorCurrent, LevelSet
from .errors import AlphaOutOfRange, InvalidInstance
from .projective import (
    Conic,
    Curve,
    Line,
    Point,
    _form,
    _incidence_rows,
    conic_from_lines,
    conic_space,
    incident,
    line_in_conic,
    line_through,
    on_common_curve,
    sample_line_points,
)

TWO_FIFTHS = Fraction(2, 5)


class Covered:
    """Positive verdict: a witness curve containing the level set with at
    most the one listed omission."""

    __slots__ = ("witness", "omitted")

    def __init__(self, witness: Union[Line, Conic], omitted: Optional[Point] = None):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "omitted", omitted)

    def __setattr__(self, name, value):
        raise AttributeError("Covered is immutable")

    def __eq__(self, other):
        if not isinstance(other, Covered):
            return NotImplemented
        return self.witness == other.witness and self.omitted == other.omitted

    def __repr__(self):
        return f"Covered(witness={self.witness!r}, omitted={self.omitted!r})"


class UncoverableCurve:
    """Obstruction: a component curve that cannot fit inside any witness."""

    __slots__ = ("curve",)

    def __init__(self, curve: Curve):
        object.__setattr__(self, "curve", curve)

    def __setattr__(self, name, value):
        raise AttributeError("UncoverableCurve is immutable")

    def __eq__(self, other):
        if not isinstance(other, UncoverableCurve):
            return NotImplemented
        return self.curve == other.curve

    def __repr__(self):
        return f"UncoverableCurve({self.curve!r})"


class UncoveredPoints:
    """Obstruction: points such that every single omission among them still
    fails the fit, so at least two of them escape every witness."""

    __slots__ = ("points",)

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(sorted(points)))

    def __setattr__(self, name, value):
        raise AttributeError("UncoveredPoints is immutable")

    def __eq__(self, other):
        if not isinstance(other, UncoveredPoints):
            return NotImplemented
        return self.points == other.points

    def __repr__(self):
        return f"UncoveredPoints({list(self.points)!r})"


class NotCoverable:
    """Negative verdict with a re-checkable obstruction certificate."""

    __slots__ = ("obstruction",)

    def __init__(self, obstruction: Union[UncoverableCurve, UncoveredPoints]):
        object.__setattr__(self, "obstruction", obstruction)

    def __setattr__(self, name, value):
        raise AttributeError("NotCoverable is immutable")

    def __eq__(self, other):
        if not isinstance(other, NotCoverable):
            return NotImplemented
        return self.obstruction == other.obstruction

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
    """First curve (canonical order) whose degree does not fit the budget."""
    total = sum(c.degree for c in curves)
    if total <= budget:
        return None
    used = 0
    for c in curves:
        used += c.degree
        if used > budget:
            return c
    raise AssertionError("unreachable")


def _fits(points, degree_left: int) -> bool:
    if degree_left == 0:
        return not points
    return on_common_curve(points, degree_left)


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


def _omission(rows, ncols: int, keep) -> tuple[bool, Optional[int]]:
    """(fits, omitted) for the rows at the ascending indices `keep`: whether
    a curve holds all of them but at most one, and the first omission that
    lets it, None for omitting nothing. `ncols` 0 stands for degree 0,
    where no curve holds a point."""
    if ncols == 0:
        if len(keep) >= 2:
            return False, None
        return True, (keep[0] if keep else None)
    sub = [rows[i] for i in keep]
    # pivot columns of the transposed rows: the greedy basis of the rows
    basis = linalg.pivots(list(zip(*sub)))
    if len(basis) < ncols:
        return True, None
    # only a basis row can be a coloop, the first one is the omission
    for b in basis:
        if linalg.rank(sub[:b] + sub[b + 1 :]) < ncols:
            return True, keep[b]
    return False, None


def _minimal_obstruction(rows, ncols: int, count: int) -> list[int]:
    """Indices of an inclusion-minimal obstruction among the first `count`
    rows, pruned in canonical order."""
    keep = list(range(count))
    for i in range(count):
        if len(keep) <= 2:
            break
        trial = [j for j in keep if j != i]
        if not _omission(rows, ncols, trial)[0]:
            keep = trial
    return keep


def _cover_check(level: LevelSet, budget: int) -> Verdict:
    curves = level.component_curves
    overflow = _overflow_curve(curves, budget)
    if overflow is not None:
        return NotCoverable(UncoverableCurve(overflow))
    points = level.isolated_points
    degree_left = budget - level.total_component_degree
    rows, ncols = _incidence_rows(points, degree_left) if degree_left else ((), 0)
    fits, omitted = _omission(rows, ncols, range(len(points)))
    if not fits:
        keep = _minimal_obstruction(rows, ncols, len(points))
        return NotCoverable(UncoveredPoints(points[i] for i in keep))
    rest = tuple(p for i, p in enumerate(points) if i != omitted)
    return Covered(_witness(curves, rest, budget), None if omitted is None else points[omitted])


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
    by direct incidence and rank tests."""
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
    rests = (tuple(q for q in obs.points if q != p) for p in (None, *obs.points))
    return (
        len(obs.points) >= 2
        and all(p in level.isolated_points for p in obs.points)
        and not any(_fits(rest, degree_left) for rest in rests)
    )


class CoverInstance:
    """A unit-mass divisor current together with a density threshold
    alpha > 2/5 and at least four certified points of density >= alpha;
    `densities` holds their Lelong numbers, in the order of `heavy_points`."""

    __slots__ = ("current", "alpha", "heavy_points", "densities")

    def __init__(self, current: DivisorCurrent, alpha, heavy_points):
        a = Fraction(alpha)
        if current.mass != 1:
            raise InvalidInstance(f"current mass is {current.mass}, expected exactly 1")
        if a <= TWO_FIFTHS:
            raise InvalidInstance(f"alpha must exceed 2/5, got {a}")
        pts = tuple(sorted(set(heavy_points)))
        if len(pts) < 4:
            raise InvalidInstance(
                f"needs at least four points of density >= {a}, got {len(pts)}"
            )
        densities = []
        for p in pts:
            nu = current.lelong_number(p)
            if nu < a:
                raise InvalidInstance(f"point {p} has density {nu} < {a}")
            densities.append(nu)
        object.__setattr__(self, "current", current)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "heavy_points", pts)
        object.__setattr__(self, "densities", tuple(densities))

    def __setattr__(self, name, value):
        raise AttributeError("CoverInstance is immutable")

    @property
    def beta(self) -> Fraction:
        return beta_of(self.alpha)


# A first point on a heavy conic is looked for only among (1:0:0), (0:1:0),
# (1:t:0) and (x:y:1) with integers |t|, |x|, |y| <= _SEARCH_HEIGHT. A conic
# whose rational points all lie elsewhere, such as (5:0:2) or (3:-4:0),
# reads as fewer than four heavy points.
_SEARCH_HEIGHT = 10
# points sampled on each heavy component curve: the four needed, plus two
_CURVE_SAMPLES = 6


def _conic_point_search(conic: Conic, count: int) -> tuple[Point, ...]:
    """Up to `count` rational points on an irreducible conic: bounded
    search for one point, then chords through it give the rest."""
    c = conic.ints
    span = range(-_SEARCH_HEIGHT, _SEARCH_HEIGHT + 1)

    def candidates():
        yield (1, 0, 0)
        yield (0, 1, 0)
        yield from ((1, a, 0) for a in span)
        yield from ((x, y, 1) for x in span for y in span)

    base = next((b for b in candidates() if _form(c, b) == 0), None)
    if base is None:
        return ()
    found = [Point._of(base)]
    for d in candidates():
        if len(found) >= count:
            break
        if d == base:
            continue
        # q(b) = 0, so q(s*b + t*d) = t*(s*grad q(b).d + t*q(d)): the chord
        # meets the conic again at (s, t) = (q(d), -grad q(b).d)
        qd = _form(c, d)
        g = _form(c, [x + y for x, y in zip(base, d)]) - qd
        p = Point._of(tuple(qd * x - g * y for x, y in zip(base, d)))
        if p not in found:
            found.append(p)
    return tuple(found[:count])


def find_heavy_points(current: DivisorCurrent, alpha) -> tuple[Point, ...]:
    """Points with Lelong number >= alpha: all isolated members of the
    level set at alpha, plus sampled points on full component curves."""
    a = Fraction(alpha)
    level = current.level_set(a, strict=False)
    points = set(level.isolated_points)
    for curve in level.component_curves:
        if isinstance(curve, Line):
            points.update(sample_line_points(curve, _CURVE_SAMPLES))
        else:
            points.update(_conic_point_search(curve, _CURVE_SAMPLES))
    return tuple(sorted(points))


def evaluate_cover(current: DivisorCurrent, alpha) -> tuple[CoverInstance, LevelSet, Verdict]:
    """Decide an instance: locate heavy points, validate the instance, build
    the strict level set at beta and decide the conic cover.

    For a valid instance the expected verdict is Covered; NotCoverable is a
    counterexample report. At alpha <= 2/5 no heavy point is looked for, and
    CoverInstance rejects the instance (mass first, then alpha)."""
    a = Fraction(alpha)
    heavy = find_heavy_points(current, a) if a > TWO_FIFTHS else ()
    instance = CoverInstance(current, a, heavy)
    level = current.level_set(instance.beta, strict=True)
    return instance, level, conic_cover_check(level)


def witness_contains_points(verdict: Verdict, points) -> Optional[bool]:
    """Whether a Covered witness passes through all the given points
    (recorded for reporting; nothing is asserted about it)."""
    if not isinstance(verdict, Covered):
        return None
    return all(incident(p, verdict.witness) for p in points)
