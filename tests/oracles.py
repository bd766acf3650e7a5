"""Independent brute-force oracles and random-object generators for tests.

The oracles never share code paths with the implementations they check:
curve counts come from explicit candidate enumeration (spanned lines, line
pairs, conics through five-point subsets) plus direct evaluation of each
candidate's form, lines through two points are the oracle's own cross
product, the reference rank, reduced row echelon form and nullspace are
plain Gaussian and Gauss-Jordan elimination over Fraction (a conic's rank
is the reference rank of its symmetric matrix), the reference
determinant is a Laplace expansion, a minimal obstruction is pruned one
point at a time with the reference-rank omission test, a point
obstruction is re-checked by a reference rank per omission, and `OracleMap`
moves points, lines and conics by an integer matrix and its adjugate, on
the integer tuples. Scaled sums of currents (`combine`), component
weights (`weight_of`) and the blend and rescale constructions use only
the `DivisorCurrent` constructor and its `components`, and
`bezout_excess` finds the meets on a curve by form evaluation and sums
over them the density function it is given; `form_gradient` takes a
conic's gradient by polarization of its form. `level_contains` tests
membership in a level set by the same form evaluation, and `is_primitive`
checks an integer tuple by its gcd and the sign of its first nonzero
entry. `line_points` gives two points of a line by solving its equation
at x = 0 and y = 0 (or z = 0), and `holds_line` tests whether a form
vanishes on a line at three of its points. From `planecurrents` only the
classes `Point`, `Line`, `Conic`, `DivisorCurrent` and `LevelSet` are
imported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from hypothesis import strategies as st

from planecurrents.projective import Conic, Line, Point
from planecurrents.currents import DivisorCurrent, LevelSet


def rational_form(values) -> tuple[Fraction, ...]:
    """The canonical form of a nonzero homogeneous tuple: its entries as
    Fractions divided by the first nonzero one. Equal forms are equal
    projective classes, and the lexicographic order of the forms is the
    canonical order."""
    fracs = [Fraction(v) for v in values]
    lead = next(f for f in fracs if f != 0)
    return tuple(f / lead for f in fracs)


def random_homogeneous(rng: random.Random, size: int) -> list:
    """A nonzero tuple of small integers and Fractions, often with leading
    zeros and negative leads, so that many draws are the same class."""
    while True:
        zeros = rng.choice([0, 0, 1, 2, size - 1])
        values = [0] * zeros + [rng.randint(-3, 3) for _ in range(size - zeros)]
        if any(values):
            break
    if rng.random() < 0.3:
        values = [Fraction(v, rng.randint(1, 4)) for v in values]
    if rng.random() < 0.5:
        k = rng.choice([-6, -2, -1, 2, 3, Fraction(-5, 2), Fraction(7, 3)])
        values = [k * v for v in values]
    return values


def homogeneous_tuples(size: int, bound: int = 4):
    """Hypothesis strategy: nonzero integer tuples with entries in
    [-bound, bound], often with leading zeros and a negative lead."""
    return (
        st.tuples(st.integers(0, size - 1), st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
        .map(lambda zv: (0,) * zv[0] + tuple(zv[1][zv[0]:]))
        .filter(any)
    )


def reference_rank(rows) -> int:
    """Plain fraction Gaussian elimination, no fraction-free tricks."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def conic_rank_oracle(conic) -> int:
    """`reference_rank` of the symmetric matrix of twice the conic's form."""
    a00, a01, a02, a11, a12, a22 = conic.coeffs
    return reference_rank([[2 * a00, a01, a02], [a01, 2 * a11, a12], [a02, a12, 2 * a22]])


def reference_det(rows) -> int:
    """Determinant of a square matrix by Laplace expansion along its first
    row, the minors of the lower rows memoized on their column sets."""
    n = len(rows)
    minors = {(): 1}
    for r in range(n - 1, -1, -1):
        row = rows[r]
        minors = {
            cols: sum(
                (-1 if i % 2 else 1) * row[c] * minors[cols[:i] + cols[i + 1 :]]
                for i, c in enumerate(cols)
            )
            for cols in combinations(range(n), n - r)
        }
    return minors[tuple(range(n))]


def reference_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form by Gauss-Jordan elimination over
    Fraction, each pivot scaled to 1: its nonzero rows and their pivot
    columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_nullspace(rows, ncols) -> list[tuple[Fraction, ...]]:
    """Right nullspace basis from `reference_rref`: one vector per free
    column (ascending), 1 there and 0 at the other free columns."""
    m, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
        basis.append(tuple(vec))
    return basis


def tableau_vectors(tab, ncols) -> list[list[int]]:
    """The nullspace vectors that a tableau (d, free, rows) of
    `linalg.tableau` stands for, as they are, not made primitive: for each
    free column f, d at f, 0 at the other free columns, and minus each
    pivot's row at f at that pivot."""
    d, free, rows = tab
    vectors = []
    for k, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = d
        for c, row in rows.items():
            vec[c] = -row[k]
        vectors.append(vec)
    return vectors


def _cross(u, v) -> tuple:
    (a, b, c), (d, e, f) = u, v
    return (b * f - c * e, c * d - a * f, a * e - b * d)


def _join(p, q) -> Line:
    """The line through two distinct points: the cross product of their
    coordinates, which the line form `_form` annihilates at both."""
    return Line(*_cross(p.coords, q.coords))


def spanned_lines(points) -> list[Line]:
    out = []
    for p, q in combinations(points, 2):
        line = _join(p, q)
        if line not in out:
            out.append(line)
    return out


def m1_oracle(points) -> int:
    """Maximum points on one line by enumerating spanned lines."""
    pts = sorted(set(points))
    best = min(len(pts), 2)
    for line in spanned_lines(pts):
        best = max(best, sum(1 for p in pts if _form(line, p.coords) == 0))
    return best


def reference_conic_space(points) -> tuple[Conic, ...]:
    """The conics of `reference_nullspace` on the unscaled Fraction
    Veronese rows of the distinct points in canonical order."""
    rows = [_veronese(p.coords) for p in sorted(set(points))]
    return tuple(Conic(*vec) for vec in reference_nullspace(rows, 6))


def _candidate_conics(pts) -> list:
    candidates = []
    lines = spanned_lines(pts)
    for i, a in enumerate(lines):
        for b in lines[i:]:
            candidates.append(("pair", a, b))
    for sub in combinations(pts, 5):
        space = reference_conic_space(sub)
        if len(space) == 1:
            candidates.append(("conic", space[0], None))
    return candidates


def m2_oracle(points) -> int:
    """Maximum points on one conic.

    Any conic through >= 5 of the points is either irreducible (then it is
    the unique conic through any five of them, all in general position) or
    a line pair whose lines are spanned by the covered points; both kinds
    appear among the candidates.
    """
    pts = sorted(set(points))
    best = min(len(pts), 5)
    for kind, a, b in _candidate_conics(pts):
        if kind == "pair":
            count = sum(1 for p in pts if _form(a, p.coords) == 0 or _form(b, p.coords) == 0)
        else:
            count = sum(1 for p in pts if _form(a, p.coords) == 0)
        best = max(best, count)
    return best


def m2_minor_oracle(points) -> int:
    """Maximum points on one conic, by a descending subset search. A set
    lies on a conic iff its Veronese rows have rank below 6 (all the
    points: `reference_rank`), that is iff every 6x6 minor is zero (a
    subset: each six of its points has a zero `reference_det` on the
    integer coordinates)."""
    pts = sorted(set(points))
    rows = [_veronese(integer_coords(p)) for p in pts]
    if reference_rank(rows) < 6:
        return len(rows)
    on = {}
    for size in range(len(rows) - 1, 5, -1):
        for sub in combinations(range(len(rows)), size):
            for six in combinations(sub, 6):
                if six not in on:
                    on[six] = reference_det([rows[i] for i in six]) == 0
                if not on[six]:
                    break
            else:
                return size
    return 5


def integer_coords(p) -> list[int]:
    """The rational form of a point times the lcm of its denominators."""
    k = lcm(*(c.denominator for c in p.coords))
    return [int(c * k) for c in p.coords]


def coverable_oracle(points) -> bool:
    """True iff some conic contains all but at most one of the points: the
    `reference_rank` of the Veronese rows of the whole set, or of the set
    less one point, is below 6. Up to 8 points the enumeration of
    `m2_oracle`, a second method, must agree."""
    pts = sorted(set(points))
    rows = [_veronese(p.coords) for p in pts]
    # i = n omits nothing
    coverable = any(reference_rank(rows[:i] + rows[i + 1 :]) < 6 for i in range(len(rows) + 1))
    if len(pts) <= 8:
        assert coverable == (m2_oracle(pts) >= len(pts) - 1), pts
    return coverable


def _veronese(coords) -> tuple:
    """The degree-2 monomials at homogeneous coordinates, in the fixed
    order (x^2, xy, xz, y^2, yz, z^2)."""
    x, y, z = coords
    return (x * x, x * y, x * z, y * y, y * z, z * z)


def _form(curve, coords) -> Fraction:
    """The curve's defining form at homogeneous coordinates, evaluated
    from its coefficients (three for a line, six for a conic)."""
    if len(curve.coeffs) == 3:
        a, b, c = curve.coeffs
        x, y, z = coords
        return a * x + b * y + c * z
    return sum(k * m for k, m in zip(curve.coeffs, _veronese(coords)) if k)


def form_gradient(curve, coords) -> tuple[Fraction, ...]:
    """The gradient of the curve's form at homogeneous coordinates: a
    line's coefficients, and for a conic q, by polarization, the entries
    q(p + e_k) - q(p) - q(e_k) at the unit vectors e_k."""
    if len(curve.coeffs) == 3:
        return tuple(curve.coeffs)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    at = _form(curve, coords)
    return tuple(_form(curve, [x + u for x, u in zip(coords, e)]) - at - _form(curve, e) for e in units)


def omission_oracle(forced, points, budget):
    """(omitted, rest) for the first of omitting nothing, then each point in
    canonical order, whose rest lies on one curve of the degree the forced
    curves leave of the budget; None when no single omission does. A rest
    fits when `reference_rank` of its coordinate (degree 1) or Veronese
    (degree 2) rows is below the column count; with no degree left only an
    empty rest fits."""
    pts = sorted(set(points))
    degree_left = budget - sum(1 if len(c.coeffs) == 3 else 2 for c in forced)
    for omitted in (None, *pts):
        rest = tuple(p for p in pts if p != omitted)
        if degree_left == 1:
            fits = reference_rank([p.coords for p in rest]) < 3
        elif degree_left == 2:
            fits = reference_rank([_veronese(p.coords) for p in rest]) < 6
        else:
            fits = not rest
        if fits:
            return omitted, rest
    return None


def obstruction_oracle(isolated, obstruction, degree_left) -> bool:
    """Whether the points `obstruction` certify that no curve of degree
    `degree_left` holds all the points `isolated` but one: there are at
    least two of them, all among `isolated` (compared by `rational_form`),
    and neither the whole set nor the rest after omitting any one point
    (every copy of it) fits. A rest fits when `reference_rank` of its
    coordinate (degree 1) or Veronese (degree 2) rows is below the column
    count; with no degree left only an empty rest fits."""
    members = {rational_form(p.coords) for p in isolated}
    pts = list(dict.fromkeys(rational_form(p.coords) for p in obstruction))
    if len(obstruction) < 2 or any(f not in members for f in pts):
        return False
    for omitted in (None, *pts):
        rest = [f for f in pts if f != omitted]
        if degree_left == 1:
            fits = reference_rank(rest) < 3
        elif degree_left == 2:
            fits = reference_rank([_veronese(f) for f in rest]) < 6
        else:
            fits = not rest
        if fits:
            return False
    return True


def minimal_obstruction_oracle(forced, points, budget) -> list[Point]:
    """The obstruction that pruning in canonical order leaves: starting
    from all the (distinct) points, each point in turn is dropped if
    `omission_oracle` still finds no single omission for the rest. At
    degree 0 that leaves the last two points."""
    keep = sorted(set(points))
    for p in list(keep):
        trial = [q for q in keep if q != p]
        if omission_oracle(forced, trial, budget) is None:
            keep = trial
    return keep


def _rational_sqrt(f: Fraction):
    n, d = f.numerator, f.denominator
    if n < 0 or isqrt(n) ** 2 != n or isqrt(d) ** 2 != d:
        return None
    return Fraction(isqrt(n), isqrt(d))


def _line_basis(line) -> tuple[list, list]:
    """Two points e1, e2 that span the line, {u*e1 + v*e2}: the line
    solved for a coordinate with a nonzero coefficient."""
    k = next(i for i, c in enumerate(line.coeffs) if c != 0)
    i, j = (m for m in range(3) if m != k)
    e1, e2 = [Fraction(0)] * 3, [Fraction(0)] * 3
    e1[i], e1[k] = Fraction(1), -line.coeffs[i] / line.coeffs[k]
    e2[j], e2[k] = Fraction(1), -line.coeffs[j] / line.coeffs[k]
    return e1, e2


def line_points(line) -> tuple[Point, Point]:
    """Two distinct points of the line a*x + b*y + c*z = 0: its meets with
    x = 0 and with y = 0 when c is nonzero, and otherwise (0 : 0 : 1),
    which it then passes through, and its meet with z = 0."""
    a, b, c = line.coeffs
    if c:
        return Point(0, c, -b), Point(-c, 0, a)
    return Point(0, 0, 1), Point(b, -a, 0)


def holds_line(curve, line) -> bool:
    """Whether the curve's form vanishes on all of the line: at e1, e2 and
    e1 + e2 of `_line_basis`, three points, which a nonzero binary form of
    degree at most 2 cannot all vanish at."""
    e1, e2 = _line_basis(line)
    return all(_form(curve, p) == 0 for p in (e1, e2, [a + b for a, b in zip(e1, e2)]))


def _line_meets(line, curve) -> list[Point]:
    """Rational common points of a line and another curve: the curve's
    form restricted to the line {u*e1 + v*e2} of `_line_basis` is a binary
    form in (u, v) whose rational roots give the points.
    """
    e1, e2 = _line_basis(line)
    at = lambda u, v: [u * a + v * b for a, b in zip(e1, e2)]  # noqa: E731
    a, c = _form(curve, e1), _form(curve, e2)
    if len(curve.coeffs) == 3:
        roots = [(c, -a)]
    else:
        b = _form(curve, at(1, 1)) - a - c
        if a == 0:
            roots = [(1, 0), (c, -b)]
        else:
            root = _rational_sqrt(b * b - 4 * a * c)
            if root is None:
                raise ValueError("the line meets the conic in irrational points")
            roots = [((-b + root) / (2 * a), 1), ((-b - root) / (2 * a), 1)]
    return [Point(*at(u, v)) for u, v in roots]


def mass_oracle(current) -> Fraction:
    """Sum of the Fraction weights times the degrees (three coefficients
    for a line, six for a conic)."""
    return sum(
        (w * (1 if len(c.coeffs) == 3 else 2) for w, c in current.components), Fraction(0)
    )


def weights_through_oracle(current, point) -> list[Fraction]:
    """The Fraction weights of the components whose form vanishes at the
    point."""
    return [w for w, c in current.components if _form(c, point.coords) == 0]


def lelong_oracle(current, point) -> Fraction:
    """Sum of the Fraction weights of the components through the point:
    lines and irreducible conics are smooth, so each has multiplicity 1
    there."""
    return sum(weights_through_oracle(current, point), Fraction(0))


def combine(*terms) -> DivisorCurrent:
    """The current sum of factor * current over the (factor, current)
    terms, from the constructor alone, which merges equal curves by
    summing their weights and drops zero weights."""
    return DivisorCurrent(
        [(f * w, c) for f, current in terms for w, c in current.components]
    )


def weight_of(current, curve) -> Fraction:
    """The weight of the curve in the current, 0 when it is no component."""
    return next((w for w, c in current.components if c == curve), Fraction(0))


def blend_current(current, lines, alpha_prime) -> DivisorCurrent:
    """The blend 2/(5a') * T + (5a'-2)/(5a') * (the mean of the lines) of
    a unit-mass current T with one line or the three sides of a triangle,
    for a' = alpha_prime > 2/5: mass 1 again."""
    a = Fraction(alpha_prime)
    share = (5 * a - 2) / (5 * a * len(lines))
    return combine((2 / (5 * a), current), (share, DivisorCurrent([(1, line) for line in lines])))


def rescaled_residual(current, line) -> DivisorCurrent:
    """(T - a*[L]) / (1 - a), for the weight a < 1 of the line L in T."""
    a = weight_of(current, line)
    return DivisorCurrent([(w / (1 - a), c) for w, c in current.components if c != line])


def bezout_excess(current, curve, density) -> Fraction:
    """`density`, a function of a point, summed over the pairwise meets of
    the current (`pairwise_meets_oracle`) on which the curve's form
    vanishes, minus deg(curve) * mass. A curve C with no component in
    common with the current meets each component C_i in deg(C) * deg(C_i)
    points counted with multiplicity (Bezout), so with the density of the
    current the excess is at most 0."""
    degree = 1 if len(curve.coeffs) == 3 else 2
    on = [p for p in pairwise_meets_oracle(current) if _form(curve, p.coords) == 0]
    return sum((density(p) for p in on), Fraction(0)) - degree * mass_oracle(current)


def pairwise_meets_oracle(current) -> set[Point]:
    """The rational common points of every pair of components. Raises
    ValueError where a pair has no rational intersection representation."""
    meets = set()
    for (_, c1), (_, c2) in combinations(current.components, 2):
        if len(c2.coeffs) == 3:
            c1, c2 = c2, c1
        if len(c1.coeffs) != 3:
            raise ValueError("two conic components")
        meets.update(_line_meets(c1, c2))
    return meets


def level_set_oracle(current, threshold, strict):
    """(passing component curves, isolated points) of a current's upper
    level set, from direct evaluation of every component's form.

    Candidates are all pairwise intersection points (an isolated point has
    density above every single component's weight, so it lies on two
    components); the density at a candidate is the sum of the weights of
    the components whose form vanishes there (`lelong_oracle`). Raises
    ValueError where a pair of components has no rational intersection
    representation.
    """
    t = Fraction(threshold)
    passes = (lambda v: v > t) if strict else (lambda v: v >= t)
    comps = current.components
    curves = tuple(c for w, c in comps if passes(w))
    isolated = sorted(
        p
        for p in pairwise_meets_oracle(current)
        if passes(lelong_oracle(current, p))
        and all(_form(c, p.coords) != 0 for c in curves)
    )
    return curves, tuple(isolated)


def level_contains(level, point) -> bool:
    """Membership of a point in a level set as a set of plane points: it is
    one of the isolated points, or a component curve's form vanishes at it."""
    return point in level.isolated_points or any(
        _form(c, point.coords) == 0 for c in level.component_curves
    )


def is_primitive(ints) -> bool:
    """True iff an integer tuple is the primitive representative of its
    class: every entry an int, gcd 1, and the first nonzero entry positive."""
    ints = tuple(ints)
    if not all(type(x) is int for x in ints):
        return False
    return next((x for x in ints if x), 0) > 0 and gcd(*ints) == 1


def random_point(rng: random.Random, bound: int = 6) -> Point:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(3)]
        if any(coords):
            return Point(*coords)


def random_points(rng, count, bound=6) -> list[Point]:
    pts: list[Point] = []
    while len(pts) < count:
        p = random_point(rng, bound)
        if p not in pts:
            pts.append(p)
    return pts


def random_structured_points(rng, count) -> list[Point]:
    """Point sets biased toward collinear/co-conic structure so that rank
    tests see interesting configurations, not just generic ones."""
    style = rng.randrange(4)
    pts: list[Point] = []
    if style == 0:
        pts = random_points(rng, count)
    elif style == 1:
        # most points on a line plus noise
        base, direction = random_points(rng, 2)
        while len(pts) < max(2, count - 2):
            t = rng.randint(-5, 5)
            cand = Point(*(a + t * b for a, b in zip(base.coords, direction.coords)))
            if cand not in pts:
                pts.append(cand)
        pts += [p for p in random_points(rng, 2) if p not in pts]
    elif style == 2:
        # points on the conic x*z = y^2, parametrized by (t^2 : t : 1)
        ts = rng.sample(range(-9, 10), min(count, 12))
        pts = [Point(t * t, t, 1) for t in ts]
        if rng.random() < 0.5:
            pts.append(Point(1, 0, 0))  # the point at t = infinity
    else:
        # union of two spanned lines
        a, b, c, d = random_points(rng, 4)
        for base, tip in ((a, b), (c, d)):
            for t in range(-2, 3):
                cand = Point(*(x + t * y for x, y in zip(base.coords, tip.coords)))
                if cand not in pts:
                    pts.append(cand)
    while len(pts) < count:
        p = random_point(rng)
        if p not in pts:
            pts.append(p)
    return pts[:count]


def random_wide_points(rng, count, kind) -> list[Point]:
    """A list of `count` points of one kind, for sizes up to the points-file
    cap: "collinear" (four or more on one line, the rest random),
    "concurrent" (on three lines through one centre, which is in the list
    half the time) or "rescaled" (a structured set in which some points
    are listed again, written under another scaling, so fewer are
    distinct)."""
    if kind == "collinear":
        base, tip = random_points(rng, 2)
        pts = []
        for t in rng.sample(range(-6, 7), rng.randint(4, count)):
            pts.append(Point(*(a + t * b for a, b in zip(base.coords, tip.coords))))
    elif kind == "concurrent":
        centre = random_point(rng)
        tips: list[Point] = []
        while len(tips) < 3:
            tip = random_point(rng)
            if tip != centre and all(_form(_join(centre, t), tip.coords) != 0 for t in tips):
                tips.append(tip)
        pts = [centre] if rng.random() < 0.5 else []
        steps = iter(rng.sample(range(1, 8), 7) * 2)
        while len(pts) < count:
            t = next(steps)
            tip = tips[len(pts) % 3]
            cand = Point(*(a + t * b for a, b in zip(centre.coords, tip.coords)))
            if cand not in pts:
                pts.append(cand)
    elif kind == "rescaled":
        pts = random_structured_points(rng, count - rng.randint(1, 3))
        for p, k in zip(rng.sample(pts, count - len(pts)), (2, -3, 7)):
            pts.insert(rng.randrange(len(pts) + 1), Point(*(k * x for x in p.coords)))
        return pts
    else:
        raise ValueError(kind)
    while len(pts) < count:
        p = random_point(rng)
        if p not in pts:
            pts.append(p)
    return pts


def random_line(rng, bound: int = 6) -> Line:
    while True:
        p, q = random_point(rng, bound), random_point(rng, bound)
        if p != q:
            return _join(p, q)


def random_lines(rng, count, bound: int = 6) -> list[Line]:
    lines: list[Line] = []
    while len(lines) < count:
        cand = random_line(rng, bound)
        if cand not in lines:
            lines.append(cand)
    return lines


def random_unit_current(rng, n_lines=None) -> DivisorCurrent:
    n = n_lines or rng.randint(3, 7)
    lines = random_lines(rng, n)
    raws = [Fraction(rng.randint(1, 12)) for _ in lines]
    total = sum(raws)
    return DivisorCurrent([(r / total, line) for r, line in zip(raws, lines)])


def adjugate(m) -> list[tuple]:
    """adj(M) of a 3x3 matrix: its rows are the cross products of the
    columns of M taken cyclically, so adj(M) M = det(M) I."""
    c0, c1, c2 = zip(*m)
    return [_cross(c1, c2), _cross(c2, c0), _cross(c0, c1)]


def matvec(m, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in m]


class OracleMap:
    """The projective map of an invertible integer 3x3 matrix M. Points
    map by M, lines by adj(M)^T and quadratic forms by congruence with
    adj(M): the adjugate is det(M) times the inverse, so these are the
    images up to scale, found on the integer tuples with no inverse."""

    def __init__(self, rows):
        if reference_det(rows) == 0:
            raise ValueError("the matrix is singular")
        self.rows, self.adj_t = rows, list(zip(*adjugate(rows)))

    def point(self, p: Point) -> Point:
        return Point(*matvec(self.rows, p.ints))

    def line(self, line: Line) -> Line:
        return Line(*matvec(self.adj_t, line.ints))

    def conic(self, conic: Conic) -> Conic:
        # adj^T Q adj, with Q the matrix of twice the form, is the matrix
        # of twice the image form
        a00, a01, a02, a11, a12, a22 = conic.ints
        q = ((2 * a00, a01, a02), (a01, 2 * a11, a12), (a02, a12, 2 * a22))
        cols = self.adj_t
        m = [[sum(u[k] * q[k][l] * v[l] for k in range(3) for l in range(3)) for v in cols] for u in cols]
        return Conic(m[0][0], 2 * m[0][1], 2 * m[0][2], m[1][1], 2 * m[1][2], m[2][2])

    def curve(self, curve):
        return self.line(curve) if isinstance(curve, Line) else self.conic(curve)

    def current(self, current: DivisorCurrent) -> DivisorCurrent:
        return DivisorCurrent([(w, self.curve(c)) for w, c in current.components])

    def level_set(self, level: LevelSet) -> LevelSet:
        curves, points = map(self.curve, level.component_curves), map(self.point, level.isolated_points)
        return LevelSet(level.threshold, level.strict, curves, points)


def random_projective_map(rng, bound: int = 4) -> OracleMap:
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
        try:
            return OracleMap(rows)
        except ValueError:
            continue
