"""Exact projective-plane primitives over the rationals.

Points, lines and conics are each stored as one primitive integer tuple,
`ints`: entries with gcd 1 and the first nonzero entry positive, the one
integer representative of the projective class. Equality and hashing read
that tuple, and joins, meets, incidence and form evaluation are integer
arithmetic. Conics are six-coefficient quadratic forms

    a00*x^2 + a01*x*y + a02*x*z + a11*y^2 + a12*y*z + a22*z^2

in the monomial order (x^2, xy, xz, y^2, yz, z^2), fixed everywhere,
including serialized output and the point-incidence ("Veronese") matrices
used for curve fitting.

The rational form, the class scaled so that its first nonzero entry is 1,
is the contract at the edges: `Point.coords`, `Line.coeffs` and
`Conic.coeffs` compute it as `Fraction`s for `repr`, serialization writes
it from the integer tuple, and the canonical order `<` is the
lexicographic order of those forms, compared on the integer tuples: one
scan finds the first position where either tuple is nonzero; if only one
is nonzero there, the tuple that is zero there is smaller, and otherwise
both lead there and the entries are cross-multiplied with the two positive
leads. No `Fraction` is built.

Everything is immutable after construction and all arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence, Union

from . import linalg
from .errors import (
    EqualLines,
    EqualPoints,
    IrrationalIntersection,
    UnsupportedDegree,
)

Triple = tuple[int, int, int]


def _lead(v: Sequence[int]) -> int:
    for x in v:
        if x:
            return x
    raise ValueError("homogeneous coordinates must not all be zero")


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer tuple divided by its gcd, signed so its lead is positive."""
    for lead in v:
        if lead:
            break
    else:
        raise ValueError("homogeneous coordinates must not all be zero")
    g = gcd(*v) if lead > 0 else -gcd(*v)
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def _integers(values: Sequence) -> Sequence[int]:
    """Integers with the same ratios as the rationals given."""
    if all(type(v) is int for v in values):
        return values
    return linalg.scaled_row([Fraction(v) for v in values])


class _Homogeneous:
    """A projective class of nonzero tuples, held as its primitive integer
    tuple `ints`; the constructor takes integers or rationals."""

    __slots__ = ("ints",)
    _size = 0

    def __init__(self, *values):
        if len(values) != self._size:
            raise TypeError(f"{type(self).__name__} takes {self._size} entries, got {len(values)}")
        object.__setattr__(self, "ints", _primitive(_integers(values)))

    @classmethod
    def _of(cls, ints: Sequence[int]):
        """From a nonzero integer tuple of the right size, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ints", _primitive(ints))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ints == other.ints

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.ints, other.ints
        i = 0
        while not (a[i] or b[i]):
            i += 1
        la, lb = a[i], b[i]
        if not (la and lb):
            # the rational forms differ first at i, where one of them is 0
            # and the other 1
            return not la
        # same lead position: x/la against y/lb, both leads positive; the
        # zeros before i and the leads themselves compare equal
        for x, y in zip(a, b):
            if x * lb != y * la:
                return x * lb < y * la
        return False

    def __hash__(self):
        return hash(self.ints)

    def _rational(self) -> tuple[Fraction, ...]:
        lead = _lead(self.ints)
        return tuple(Fraction(x, lead) for x in self.ints)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self._rational()))})"


class Point(_Homogeneous):
    """Point of the projective plane with rational homogeneous coordinates."""

    __slots__ = ()
    _size = 3
    coords = property(_Homogeneous._rational, doc="rational form, first nonzero entry 1")

    def __str__(self):
        return "(%s : %s : %s)" % self.coords


class Line(_Homogeneous):
    """Line a*x + b*y + c*z = 0 with rational coefficients."""

    __slots__ = ()
    _size = 3
    degree = 1
    coeffs = property(_Homogeneous._rational, doc="rational form, first nonzero entry 1")


class Conic(_Homogeneous):
    """Quadratic form up to scale; rank 3 is irreducible, rank 2 a line
    pair, rank 1 a double line."""

    __slots__ = ()
    _size = 6
    degree = 2
    coeffs = property(_Homogeneous._rational, doc="rational form, first nonzero entry 1")


def _cross(a: Sequence[int], b: Sequence[int]) -> Triple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _form(c: Sequence[int], v: Sequence[int]) -> int:
    """The quadratic form with coefficients c at v. Its polar grad q(u).v
    is q(u + v) - q(u) - q(v), so
    q(s*u + t*v) = s^2*q(u) + s*t*grad q(u).v + t^2*q(v)."""
    a00, a01, a02, a11, a12, a22 = c
    x, y, z = v
    return x * (a00 * x + a01 * y + a02 * z) + y * (a11 * y + a12 * z) + a22 * z * z


Curve = Union[Line, Conic]


def curve_sort_key(curve: Curve):
    """Deterministic ordering: lines before conics, then by coefficients."""
    return (curve.degree, curve)


def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    if p == q:
        raise EqualPoints(f"no unique line through {p} twice")
    return Line._of(_cross(p.ints, q.ints))


def meet(l1: Line, l2: Line) -> Point:
    """The unique common point of two distinct lines."""
    if l1 == l2:
        raise EqualLines(f"lines coincide: {l1}")
    return Point._of(_cross(l1.ints, l2.ints))


def conic_gradient(conic: Conic, p: Point) -> Triple:
    """Gradient of the form at the point, on the integer tuples (defined
    up to scale, as the tangent line is)."""
    a00, a01, a02, a11, a12, a22 = conic.ints
    x, y, z = p.ints
    return (
        2 * a00 * x + a01 * y + a02 * z,
        a01 * x + 2 * a11 * y + a12 * z,
        a02 * x + a12 * y + 2 * a22 * z,
    )


def is_irreducible(conic: Conic) -> bool:
    """True iff the symmetric integer matrix of twice the form has rank 3:
    half its determinant is nonzero."""
    a00, a01, a02, a11, a12, a22 = conic.ints
    return 4 * a00 * a11 * a22 + a01 * a02 * a12 != a00 * a12 * a12 + a01 * a01 * a22 + a02 * a02 * a11


def conic_from_lines(l1: Line, l2: Line) -> Conic:
    """Product form of two lines (a line pair, or a double line if equal)."""
    a1, b1, c1 = l1.ints
    a2, b2, c2 = l2.ints
    return Conic._of((
        a1 * a2,
        a1 * b2 + b1 * a2,
        a1 * c2 + c1 * a2,
        b1 * b2,
        b1 * c2 + c1 * b2,
        c1 * c2,
    ))


def incident(p: Point, curve: Curve) -> bool:
    """True iff the defining form of the curve vanishes at the point."""
    if isinstance(curve, Line):
        return _dot(curve.ints, p.ints) == 0
    return _form(curve.ints, p.ints) == 0


def multiplicity(p: Point, curve: Curve) -> int:
    """Multiplicity of the curve at a point: 0 off the curve, 1 at a smooth
    point, 2 at the singular point of a rank <= 2 quadratic form."""
    if isinstance(curve, Line):
        return 1 if _dot(curve.ints, p.ints) == 0 else 0
    if _form(curve.ints, p.ints) != 0:
        return 0
    return 1 if any(conic_gradient(curve, p)) else 2


def _incidence_rows(points: Iterable[Point], degree: int) -> tuple[list, int]:
    """(integer rows, column count) of the distinct points in canonical
    order: coordinates for degree 1, Veronese rows (the monomials in the
    fixed order) for degree 2. A curve of that degree through some of the
    points is a kernel vector of their rows, so they lie on one iff the rank
    is below the column count."""
    return _rows_of([p.ints for p in sorted(set(points))], degree)


def _rows_of(coords: list[Triple], degree: int) -> tuple[list, int]:
    if degree == 1:
        return coords, 3
    if degree == 2:
        return [(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in coords], 6
    raise UnsupportedDegree(f"degree {degree} not supported (only 1 and 2)")


def conic_space(points: Iterable[Point]) -> tuple[Conic, ...]:
    """Basis of the space of quadratic forms vanishing on all given points:
    the `linalg.kernel` of their Veronese rows, the basis of
    `linalg.nullspace` up to scale. Neither the order of the rows nor
    repeated rows change the vectors."""
    rows, ncols = _rows_of([p.ints for p in points], 2)
    return tuple(Conic._of(vec) for vec in linalg.kernel(rows, ncols)[1])


def on_common_curve(points: Iterable[Point], degree: int) -> bool:
    """True iff some nonzero curve of the given degree passes through all
    the points (degree 1: collinear; degree 2: on a conic, possibly
    degenerate)."""
    rows, ncols = _incidence_rows(points, degree)
    return linalg.rank(rows) < ncols


def _sixes_on_a_conic(coords: Sequence[Triple]) -> Iterator[tuple[int, ...]]:
    """Each ascending six of indices a < ... < f whose points lie on a
    conic: those with [abc][ade][bdf][cef] = [abd][ace][bcf][def], where
    [ijk] is the determinant of the points i, j, k. The two sides differ
    by the determinant of the six Veronese rows (Richter-Gebert,
    Perspectives on Projective Geometry, 2011). The brackets are held as
    br[i][j][k] for i < j < k, and [abc][ade] and [abd][ace] are taken
    before the loop over f, so each six costs four lookups and four
    products."""
    n = len(coords)
    br = [[None] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        x, y, z = _cross(coords[i], coords[j])
        br[i][j] = [0] * (j + 1) + [x * u + y * v + z * w for u, v, w in coords[j + 1 :]]
    for a in range(n - 5):
        for b in range(a + 1, n - 4):
            ab = br[a][b]
            for c in range(b + 1, n - 3):
                abc, ac, bc = ab[c], br[a][c], br[b][c]
                for d in range(c + 1, n - 2):
                    abd, ad, bd = ab[d], br[a][d], br[b][d]
                    for e in range(d + 1, n - 1):
                        left, right = abc * ad[e], abd * ac[e]
                        ce, de = br[c][e], br[d][e]
                        for f in range(e + 1, n):
                            if left * bd[f] * ce[f] == right * bc[f] * de[f]:
                                yield a, b, c, d, e, f


def max_on_curve(points: Iterable[Point], degree: int) -> int:
    """Largest number of the given points lying on a single curve of the
    given degree. The count does not depend on the order of the points,
    so they are read once into a set and not sorted.

    Degree 1 counts pairs, O(n^2): each pair of points is filed under the
    primitive integer tuple of the line through them, and a line with the
    most pairs, c = k * (k - 1) / 2, holds the most points, k.

    Degree 2 takes the `linalg.kernel` of the transposed Veronese rows,
    whose columns are the points, so its vectors are the dependencies
    among the points. Rank below 6 (more than n - 6 of them) means all n
    points lie on a conic. Otherwise the rank is 6, the points on a conic
    are the sets of rank 5, and the kernel's columns, one per point,
    represent the dual matroid (Oxley, Matroid Theory, 2011, ch. 2): k
    points are off a largest conic iff they form a smallest circuit of
    the dual, which has rank n - 6, so such a circuit has at most n - 5
    points. A zero column, a coloop, a point in the support of no
    dependency, is a circuit of one: n - 1 on a conic. Two proportional
    columns, equal once each is primitive with a positive lead, are a
    circuit of two: n - 2. With neither, at most n - 3 lie on a conic,
    and n = 8 gives 5 (at n = 7 the dual has rank 1, so one of the two
    stages has returned). Only from 9 points on with neither does it test
    each six points by brackets, O(n^6) integer products: a largest set
    on one conic is then the closure of five independent points
    (distinct, no four collinear), the five and every point that makes
    six on a conic with them."""
    coords = list({p.ints for p in points})
    rows, ncols = _rows_of(coords, degree)
    if degree == 1:
        pairs: dict[Triple, int] = {}
        for i, (a0, a1, a2) in enumerate(rows):
            for b0, b1, b2 in rows[i + 1 :]:
                # distinct points, so the cross product is nonzero: the
                # coefficients of their line, made primitive as in
                # `currents.DivisorCurrent._incidence_map`
                x, y, z = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
                g = gcd(x, y, z)
                if (x or y or z) < 0:
                    g = -g
                key = (x, y, z) if g == 1 else (x // g, y // g, z // g)
                pairs[key] = pairs.get(key, 0) + 1
        return (1 + isqrt(1 + 8 * max(pairs.values()))) // 2 if pairs else len(rows)
    n = len(rows)
    deps = linalg.kernel(list(zip(*rows)), n)[1]
    if n - len(deps) < ncols:
        return n
    columns = list(zip(*deps))  # empty when there is no dependency
    if sum(map(any, columns)) < n:  # a column in no dependency
        return n - 1
    if len(set(map(_primitive, columns))) < n:  # two proportional columns
        return n - 2
    if n <= 8:
        return 5
    closures = Counter(five for six in _sixes_on_a_conic(coords) for five in combinations(six, 5))
    # five points with four on a line make six on a conic with each of the
    # other n - 5; five independent ones only with the points of their one
    # conic, which misses a point since no conic holds all n
    return 5 + max((m for m in closures.values() if m < n - 5), default=0)


def _span(line: Sequence[int]) -> tuple[Triple, Triple]:
    """Two distinct points spanning the line with integer coefficients
    `line`, not made primitive: its meets with x = 0 and y = 0, or, when
    it passes through (0 : 0 : 1), that point and its meet with z = 0."""
    l0, l1, l2 = line
    return ((0, l2, -l1), (-l2, 0, l0)) if l2 else ((0, 0, 1), (l1, -l0, 0))


def two_points_on_line(line: Line) -> tuple[Point, Point]:
    """Two distinct canonical points spanning the line."""
    return tuple(map(Point._of, _span(line.ints)))


def _line_conic_meets(line: Sequence[int], conic: Sequence[int]) -> list[tuple[int, ...]]:
    """The rational meets of a line and a conic, given by their integer
    tuples, as distinct primitive integer tuples in no set order.

    Raises IrrationalIntersection when the intersection exists only over a
    quadratic extension (or as a complex-conjugate pair).
    """
    u, v = _span(line)
    # q(u + t*v) = c + b*t + a*t^2; v itself is t = inf, and a root t = r/s
    # is the point s*u + r*v
    a, c = _form(conic, v), _form(conic, u)
    b = _form(conic, (u[0] + v[0], u[1] + v[1], u[2] + v[2])) - a - c
    if a == 0:
        if b == c == 0:
            raise ValueError("line is contained in the conic")
        roots = [(0, 1), (b, -c)]  # (b, -c) is v again when b = 0
    else:
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            raise IrrationalIntersection(
                f"{Line._of(line)!r} meets {Conic._of(conic)!r} in points with irrational coordinates"
            )
        roots = [(2 * a, -b + root), (2 * a, -b - root)]
    return list(dict.fromkeys(_primitive([s * x + r * y for x, y in zip(u, v)]) for s, r in roots))


def intersect_line_conic(line: Line, conic: Conic) -> tuple[Point, ...]:
    """Rational intersection points of a line with a conic, in canonical
    order; raises as `_line_conic_meets` does."""
    return tuple(sorted(map(Point._of, _line_conic_meets(line.ints, conic.ints))))


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
        _form(conic.ints, u.ints) == 0
        and _form(conic.ints, v.ints) == 0
        and _dot(conic_gradient(conic, u), v.ints) == 0
    )

