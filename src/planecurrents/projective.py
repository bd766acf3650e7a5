"""Exact projective-plane primitives over the rationals.

Points and lines are homogeneous triples of `fractions.Fraction` stored in
canonical form (first nonzero entry scaled to 1), so equality, hashing and
ordering are structural. Conics are six-coefficient quadratic forms

    a00*x^2 + a01*x*y + a02*x*z + a11*y^2 + a12*y*z + a22*z^2

canonicalized the same way; the monomial order (x^2, xy, xz, y^2, yz, z^2)
is fixed everywhere, including serialized output and the point-incidence
("Veronese") matrices used for curve fitting.

Everything is immutable after construction and all arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Iterable, Sequence, Union

from . import linalg
from .errors import (
    EqualLines,
    EqualPoints,
    IrrationalIntersection,
    SingularMatrix,
    UnsupportedDegree,
)

Triple = tuple[Fraction, Fraction, Fraction]


def _canonical(values: Sequence) -> tuple[Fraction, ...]:
    fracs = tuple(Fraction(v) for v in values)
    lead = next((f for f in fracs if f != 0), None)
    if lead is None:
        raise ValueError("homogeneous coordinates must not all be zero")
    return tuple(f / lead for f in fracs)


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> Triple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class Point:
    """Point of the projective plane with rational homogeneous coordinates."""

    __slots__ = ("coords",)

    def __init__(self, x, y, z):
        object.__setattr__(self, "coords", _canonical((x, y, z)))

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.coords == other.coords

    def __lt__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.coords < other.coords

    def __hash__(self):
        return hash(("Point", self.coords))

    def __repr__(self):
        return "Point(%s, %s, %s)" % self.coords

    def __str__(self):
        return "(%s : %s : %s)" % self.coords


class Line:
    """Line a*x + b*y + c*z = 0 with rational coefficients."""

    __slots__ = ("coeffs",)
    degree = 1

    def __init__(self, a, b, c):
        object.__setattr__(self, "coeffs", _canonical((a, b, c)))

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __lt__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.coeffs < other.coeffs

    def __hash__(self):
        return hash(("Line", self.coeffs))

    def __repr__(self):
        return "Line(%s, %s, %s)" % self.coeffs


class Conic:
    """Quadratic form up to scale; rank 3 is irreducible, rank 2 a line
    pair, rank 1 a double line."""

    __slots__ = ("coeffs",)
    degree = 2

    def __init__(self, a00, a01, a02, a11, a12, a22):
        object.__setattr__(self, "coeffs", _canonical((a00, a01, a02, a11, a12, a22)))

    def __setattr__(self, name, value):
        raise AttributeError("Conic is immutable")

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Conic", self.coeffs))

    def __repr__(self):
        return "Conic(%s, %s, %s, %s, %s, %s)" % self.coeffs


Curve = Union[Line, Conic]


def curve_sort_key(curve: Curve):
    """Deterministic ordering: lines before conics, then by coefficients."""
    return (curve.degree, curve.coeffs)


def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    if p == q:
        raise EqualPoints(f"no unique line through {p} twice")
    return Line(*_cross(p.coords, q.coords))


def meet(l1: Line, l2: Line) -> Point:
    """The unique common point of two distinct lines."""
    if l1 == l2:
        raise EqualLines(f"lines coincide: {l1}")
    return Point(*_cross(l1.coeffs, l2.coeffs))


def conic_value(conic: Conic, p: Point) -> Fraction:
    a00, a01, a02, a11, a12, a22 = conic.coeffs
    x, y, z = p.coords
    return a00 * x * x + a01 * x * y + a02 * x * z + a11 * y * y + a12 * y * z + a22 * z * z


def conic_gradient(conic: Conic, p: Point) -> Triple:
    a00, a01, a02, a11, a12, a22 = conic.coeffs
    x, y, z = p.coords
    return (
        2 * a00 * x + a01 * y + a02 * z,
        a01 * x + 2 * a11 * y + a12 * z,
        a02 * x + a12 * y + 2 * a22 * z,
    )


def conic_matrix(conic: Conic) -> linalg.Mat3:
    """Symmetric matrix of the form (entries may have denominator 2)."""
    a00, a01, a02, a11, a12, a22 = (Fraction(c) for c in conic.coeffs)
    h = Fraction(1, 2)
    return (
        (a00, a01 * h, a02 * h),
        (a01 * h, a11, a12 * h),
        (a02 * h, a12 * h, a22),
    )


def conic_rank(conic: Conic) -> int:
    return linalg.rank(conic_matrix(conic))


def is_irreducible(conic: Conic) -> bool:
    return conic_rank(conic) == 3


def conic_from_lines(l1: Line, l2: Line) -> Conic:
    """Product form of two lines (a line pair, or a double line if equal)."""
    a1, b1, c1 = l1.coeffs
    a2, b2, c2 = l2.coeffs
    return Conic(
        a1 * a2,
        a1 * b2 + b1 * a2,
        a1 * c2 + c1 * a2,
        b1 * b2,
        b1 * c2 + c1 * b2,
        c1 * c2,
    )


def incident(p: Point, curve: Curve) -> bool:
    """True iff the defining form of the curve vanishes at the point."""
    if isinstance(curve, Line):
        return _dot(curve.coeffs, p.coords) == 0
    return conic_value(curve, p) == 0


def multiplicity(p: Point, curve: Curve) -> int:
    """Multiplicity of the curve at a point: 0 off the curve, 1 at a smooth
    point, 2 at the singular point of a rank <= 2 quadratic form."""
    if isinstance(curve, Line):
        return 1 if _dot(curve.coeffs, p.coords) == 0 else 0
    if conic_value(curve, p) != 0:
        return 0
    return 1 if any(g != 0 for g in conic_gradient(curve, p)) else 2


def _incidence_rows(points: Iterable[Point], degree: int) -> tuple[list, int]:
    """(integer rows, column count) of the distinct points in canonical
    order: coordinates for degree 1, Veronese rows (the monomials in the
    fixed order) for degree 2. A curve of that degree through some of the
    points is a kernel vector of their rows, so they lie on one iff the rank
    is below the column count. Each point is scaled to integer coordinates
    once, so every rank test on these rows runs on integers."""
    coords = linalg.integer_rows(p.coords for p in sorted(set(points)))
    if degree == 1:
        return coords, 3
    if degree == 2:
        return [(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in coords], 6
    raise UnsupportedDegree(f"degree {degree} not supported (only 1 and 2)")


def conic_space(points: Iterable[Point]) -> tuple[Conic, ...]:
    """Basis of the space of quadratic forms vanishing on all given points."""
    return tuple(Conic(*vec) for vec in linalg.nullspace(*_incidence_rows(points, 2)))


def on_common_curve(points: Iterable[Point], degree: int) -> bool:
    """True iff some nonzero curve of the given degree passes through all
    the points (degree 1: collinear; degree 2: on a conic, possibly
    degenerate)."""
    rows, ncols = _incidence_rows(points, degree)
    return linalg.rank(rows) < ncols


def max_on_curve(points: Iterable[Point], degree: int) -> int:
    """Largest number of the given points lying on a single curve of the
    given degree.

    Degree 1 counts pairs, O(n^2): from each point, the later points on
    each line through it; the best line holds its first point plus its
    count. Degree 2 is a descending subset enumeration with rank tests on
    subsets of one set of integer rows."""
    rows, ncols = _incidence_rows(points, degree)
    if degree == 1:
        # distinct rows, so every cross product is a line's coefficients
        counts = (Counter(Line(*_cross(r, s)) for s in rows[i + 1 :]) for i, r in enumerate(rows))
        return max((1 + c for lines in counts for c in lines.values()), default=len(rows))
    # any ncols - 1 points lie on a common curve
    floor = min(len(rows), ncols - 1)
    for size in range(len(rows), floor, -1):
        if any(linalg.rank(sub) < ncols for sub in combinations(rows, size)):
            return size
    return floor


def two_points_on_line(line: Line) -> tuple[Point, Point]:
    """Two distinct canonical points spanning the line."""
    found = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        c = _cross(line.coeffs, tuple(Fraction(v) for v in e))
        if any(x != 0 for x in c):
            p = Point(*c)
            if p not in found:
                found.append(p)
        if len(found) == 2:
            break
    return found[0], found[1]


def sample_line_points(line: Line, count: int) -> tuple[Point, ...]:
    """Deterministic distinct rational points on a line."""
    u, v = two_points_on_line(line)
    out = [u, v]
    t = 1
    while len(out) < count:
        cand = Point(*(a + t * b for a, b in zip(u.coords, v.coords)))
        if cand not in out:
            out.append(cand)
        t += 1
    return tuple(out[:count])


def _integer_form(conic: Conic):
    """The conic's form q on integer triples, with its coefficients scaled
    once to integers (the same zero set). Its polar grad q(u).v is
    q(u + v) - q(u) - q(v), so q(s*u + t*v) = s^2*q(u) + s*t*grad q(u).v + t^2*q(v)."""
    a00, a01, a02, a11, a12, a22 = linalg.integer_rows((conic.coeffs,))[0]

    def q(v):
        x, y, z = v
        return x * (a00 * x + a01 * y + a02 * z) + y * (a11 * y + a12 * z) + a22 * z * z

    return q


def intersect_line_conic(line: Line, conic: Conic) -> tuple[Point, ...]:
    """Rational intersection points of a line with a conic.

    Raises IrrationalIntersection when the intersection exists only over a
    quadratic extension (or as a complex-conjugate pair).
    """
    q = _integer_form(conic)
    u, v = linalg.integer_rows(p.coords for p in two_points_on_line(line))
    # q(u + t*v) = c + b*t + a*t^2; v itself is t = inf, and a root t = r/s
    # is the point s*u + r*v
    a, c = q(v), q(u)
    b = q([x + y for x, y in zip(u, v)]) - a - c
    if a == 0:
        if b == c == 0:
            raise ValueError("line is contained in the conic")
        roots = [(0, 1), (b, -c)]  # (b, -c) is v again when b = 0
    else:
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            raise IrrationalIntersection(
                f"{line!r} meets {conic!r} in points with irrational coordinates"
            )
        roots = [(2 * a, -b + root), (2 * a, -b - root)]
    return tuple(sorted({Point(*(s * x + r * y for x, y in zip(u, v))) for s, r in roots}))


def intersect_curves(c1: Curve, c2: Curve) -> tuple[Point, ...]:
    """Rational intersection points of two distinct curves."""
    if c1 == c2:
        raise ValueError("curves coincide")
    if isinstance(c1, Line) and isinstance(c2, Line):
        return (meet(c1, c2),)
    if isinstance(c1, Line):
        return intersect_line_conic(c1, c2)
    if isinstance(c2, Line):
        return intersect_line_conic(c2, c1)
    raise IrrationalIntersection(
        "intersections of two conic components are not representable over the rationals"
    )


def line_in_conic(line: Line, conic: Conic) -> bool:
    """True iff the line divides the quadratic form."""
    u, v = two_points_on_line(line)
    return (
        conic_value(conic, u) == 0
        and conic_value(conic, v) == 0
        and _dot(conic_gradient(conic, u), v.coords) == 0
    )


class ProjectiveMap:
    """Invertible projective transformation given by a rational 3x3 matrix.

    Points map by the matrix, lines by the inverse transpose, quadratic
    forms by congruence with the inverse, so incidence is preserved.
    """

    __slots__ = ("rows", "_inv")

    def __init__(self, rows):
        m = linalg.as_mat3(rows)
        if linalg.det3(m) == 0:
            raise SingularMatrix("projective map requires a nonsingular matrix")
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "_inv", linalg.inv3(m))

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveMap is immutable")

    def point(self, p: Point) -> Point:
        return Point(*linalg.matvec3(self.rows, p.coords))

    def line(self, line: Line) -> Line:
        return Line(*linalg.matvec3(linalg.transpose3(self._inv), line.coeffs))

    def conic(self, conic: Conic) -> Conic:
        inv = self._inv
        m = linalg.matmul3(linalg.matmul3(linalg.transpose3(inv), conic_matrix(conic)), inv)
        return Conic(m[0][0], 2 * m[0][1], 2 * m[0][2], m[1][1], 2 * m[1][2], m[2][2])

    def curve(self, curve: Curve) -> Curve:
        return self.line(curve) if isinstance(curve, Line) else self.conic(curve)
