import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from planecurrents import harness, projective, serialize
from planecurrents.errors import (
    EqualLines,
    EqualPoints,
    IrrationalIntersection,
    UnsupportedDegree,
)
from planecurrents.projective import (
    _cross,
    _primitive,
    _rational_form,
    _sixes_on_a_conic,
    Conic,
    Line,
    Point,
    conic_from_lines,
    conic_gradient,
    conic_space,
    incident,
    intersect_curves,
    is_irreducible,
    join,
    line_in_conic,
    line_through,
    max_on_curve,
    meet,
    meets,
    multiplicity,
    on_common_curve,
)
from planecurrents.serialize import MAX_POINTS

import oracles
from oracles import (
    OracleMap,
    _form,
    _line_basis,
    _line_meets,
    _veronese,
    conic_rank_oracle,
    form_gradient,
    holds_line,
    homogeneous_tuples,
    is_primitive,
    line_points,
    m1_oracle,
    m2_minor_oracle,
    m2_oracle,
    random_homogeneous,
    random_point,
    random_points,
    random_projective_map,
    random_structured_points,
    random_wide_points,
    rational_form,
    reference_conic_space,
    reference_det,
    reference_rank,
)


@pytest.mark.parametrize("cls, size", [(Point, 3), (Line, 3), (Conic, 6)])
def test_order_equality_and_hash_match_the_rational_oracle(cls, size):
    # objects hold integer tuples; their order, equality and serialized
    # form must be those of the rational forms
    rng = random.Random(size * 1000 + len(cls.__name__))
    raws = [random_homogeneous(rng, size) for _ in range(300)]
    objs = [cls(*raw) for raw in raws]
    forms = [rational_form(raw) for raw in raws]
    for obj, form in zip(objs, forms):
        got = obj.coords if cls is Point else obj.coeffs
        assert got == form
        assert all(type(x) is Fraction for x in got)
    order = sorted(range(len(objs)), key=objs.__getitem__)
    assert [forms[i] for i in order] == sorted(forms)
    equal_pairs = 0
    for i in range(len(objs)):
        for j in range(len(objs)):
            assert (objs[i] == objs[j]) == (forms[i] == forms[j])
            assert (objs[i] < objs[j]) == (forms[i] < forms[j])
            if forms[i] == forms[j]:
                assert hash(objs[i]) == hash(objs[j])
                equal_pairs += i != j
    assert equal_pairs > 0


@pytest.mark.parametrize("cls, size", [(Point, 3), (Line, 3), (Conic, 6)])
@given(data=st.data())
def test_order_is_the_lexicographic_order_of_rational_forms(cls, size, data):
    a = data.draw(homogeneous_tuples(size))
    k = data.draw(st.sampled_from([None, -3, -1, 2]))
    b = data.draw(homogeneous_tuples(size)) if k is None else tuple(k * x for x in a)
    fa, fb = rational_form(a), rational_form(b)
    assert (cls(*a) < cls(*b)) == (fa < fb)
    assert (cls(*b) < cls(*a)) == (fb < fa)


def test_canonical_form_is_idempotent_and_unique():
    p = Point(2, 4, 6)
    assert p.coords == (1, 2, 3)
    assert Point(*p.coords) == p
    assert Point(-3, 6, 0) == Point(1, -2, 0)
    assert Line(0, 5, -5) == Line(0, 1, -1)
    assert Conic(2, 0, 0, -2, 0, 0) == Conic(1, 0, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        Point(0, 0, 0)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ((-2, 4, -6), (1, -2, 3)),  # negative lead and gcd 2
        ((0, 0, -5), (0, 0, 1)),  # leading zeros and a negative lead
        ((0, 6, -9, 3, 0, 12), (0, 2, -3, 1, 0, 4)),  # leading zero, gcd 3, six entries
        ((0, -14, 21), (0, 2, -3)),  # leading zero, negative lead, gcd 7
        ((3, -7, 5), (3, -7, 5)),  # already primitive
        ((-1, 0, 0), (1, 0, 0)),
    ],
)
def test_primitive(raw, expected):
    for v in (raw, list(raw), expected):
        got = _primitive(v)
        assert got == expected and type(got) is tuple
    assert rational_form(expected) == rational_form(raw)


def test_primitive_rejects_all_zero():
    for zero in ((0, 0, 0), [0] * 6):
        with pytest.raises(ValueError, match="^homogeneous coordinates must not all be zero$"):
            _primitive(zero)


_TRIPLES = st.tuples(*[st.integers(-9, 9)] * 3)


@given(_TRIPLES, _TRIPLES)
@example((1, 0, 0), (0, 0, 1))  # (0, -1, 0): a zero and a negative lead
@example((0, 2, 4), (0, -4, 2))  # (20, 0, 0): leading zeros in, gcd 20 out
def test_join_is_the_primitive_cross_product(a, b):
    cross = _cross(a, b)
    assume(any(cross))
    got = join(a, b)
    assert got == _primitive(cross) and type(got) is tuple


@given(homogeneous_tuples(3), homogeneous_tuples(3), homogeneous_tuples(3), st.integers(0, 2**32))
@example((-1, -1, -2), (0, -2, 4), (-3, 0, 6), 0)  # negative leads and common factors
def test_every_producer_stores_a_primitive_tuple(a, b, c, seed):
    # `_of` stores a tuple as given, so each source of tuples must make
    # them primitive: the constructors, the joins and meets, the product
    # of two lines, the conic space, the points spanning a line, the
    # parsed documents and the drawn lines and points of `search`
    p, q, r = Point(*a), Point(*b), Point(*c)
    l1, l2, l3 = Line(*a), Line(*b), Line(*c)
    pair = conic_from_lines(l2, l3)
    made = [p, q, r, l1, l2, l3, pair, *line_points(l1), *conic_space([p, q, r])]
    made += [serialize.parse_coordinates(Point, [str(x) for x in a], "point"),
             serialize.parse_coordinates(Line, [str(x) for x in b], "line")]
    made.append(serialize.parse_coordinates(Conic, [str(x) for x in a + c], "conic"))
    if p != q:
        made += [line_through(p, q), meet(l1, l2)]
    tuples = []
    if not line_in_conic(l1, pair):
        tuples += meets(l1.ints, pair.ints)
    rng = random.Random(seed)
    tuples += [harness._random_line(rng, 5), *harness._distinct_points(rng, 5, 3)]
    for ints in [x.ints for x in made] + tuples:
        assert is_primitive(ints), ints


def test_irrational_meet_message_names_the_primitive_curves():
    message = "Line(1, 0, 0) meets Conic(1, 0, 0, 1, 0, -3) in points with irrational coordinates"
    for line, conic in (((1, 0, 0), (1, 0, 0, 1, 0, -3)), ((-2, 0, 0), (-3, 0, 0, -3, 0, 9))):
        with pytest.raises(IrrationalIntersection, match=f"^{re.escape(message)}$"):
            meets(line, conic)


def test_a_line_sorts_before_a_conic_and_a_point_compares_with_neither():
    # z^2 has the smaller rational form, but a line sorts first by degree
    line, conic = Line(1, 0, 0), Conic(0, 0, 0, 0, 0, 1)
    assert line < conic and not conic < line
    assert sorted([conic, line]) == [line, conic]
    for curve in (line, conic):
        with pytest.raises(TypeError):
            Point(1, 0, 0) < curve
        with pytest.raises(TypeError):
            curve < Point(0, 0, 1)
    with pytest.raises(TypeError):
        line < (1, 0, 0)


@given(homogeneous_tuples(6, bound=30))
def test_rational_form_is_the_text_of_the_fractions(v):
    ints = _primitive(v)
    lead = next(x for x in ints if x)
    text = [str(Fraction(x, lead)) for x in ints]
    assert _rational_form(ints) == text
    point = Point(*v[:3]) if any(v[:3]) else Point(*v[3:])
    assert repr(Conic(*v)) == f"Conic({', '.join(text)})"
    assert repr(point) == f"Point({', '.join(map(str, point.coords))})"
    assert str(point) == "(%s : %s : %s)" % point.coords


def test_incidence_basics():
    assert incident(Point(1, 0, 0), Line(0, 0, 1))
    assert incident(Point(1, 1, 0), Conic(1, 0, 0, -1, 0, 0))  # x^2 - y^2
    assert incident(Point(2, 3, 1), Line(1, 1, -5))
    assert not incident(Point(1, 2, 1), Conic(1, 0, 0, -1, 0, 0))


def test_line_through_and_meet():
    assert line_through(Point(0, 0, 1), Point(1, 0, 1)) == Line(0, 1, 0)
    assert line_through(Point(1, 0, 0), Point(0, 1, 0)) == Line(0, 0, 1)
    joined = line_through(Point(1, 2, 1), Point(3, 4, 1))
    assert incident(Point(1, 2, 1), joined) and incident(Point(3, 4, 1), joined)

    assert meet(Line(1, 0, 0), Line(0, 1, 0)) == Point(0, 0, 1)
    assert meet(Line(0, 0, 1), Line(1, 1, 1)) == Point(1, -1, 0)

    with pytest.raises(EqualPoints):
        line_through(Point(1, 2, 3), Point(2, 4, 6))
    with pytest.raises(EqualLines):
        meet(Line(1, 2, 3), Line(2, 4, 6))


def test_duality_on_random_pairs():
    rng = random.Random(2)
    for _ in range(100):
        p, q = random_points(rng, 2)
        line = line_through(p, q)
        assert incident(p, line) and incident(q, line)
        l1 = line_through(*random_points(rng, 2))
        l2 = line_through(*random_points(rng, 2))
        if l1 != l2:
            x = meet(l1, l2)
            assert incident(x, l1) and incident(x, l2)


def test_multiplicity():
    assert multiplicity(Point(5, 1, 3), Line(1, -2, -1)) == 1
    assert multiplicity(Point(1, 1, 1), Line(1, 0, 0)) == 0
    pair = conic_from_lines(Line(1, 0, 0), Line(0, 1, 0))  # x*y = 0
    assert multiplicity(Point(0, 0, 1), pair) == 2  # singular point of the pair
    assert multiplicity(Point(0, 1, 5), pair) == 1
    assert multiplicity(Point(1, 1, 1), pair) == 0
    smooth = Conic(0, 0, 1, -1, 0, 0)  # x*z = y^2, irreducible
    assert is_irreducible(smooth)
    assert multiplicity(Point(1, 1, 1), smooth) == 1
    assert multiplicity(Point(1, 2, 3), smooth) == 0


@given(homogeneous_tuples(3), homogeneous_tuples(3))
def test_line_pair_is_double_at_its_meet(a, b):
    # the pair's form and the oracle's gradient vanish where the lines
    # meet; elsewhere on each line the gradient does not
    l1, l2 = Line(*a), Line(*b)
    assume(l1 != l2)
    pair, double = conic_from_lines(l1, l2), meet(l1, l2)
    assert multiplicity(double, pair) == 2
    assert not any(form_gradient(pair, double.coords))
    for line in (l1, l2):
        e1, e2 = _line_basis(line)
        for u, v in ((1, 0), (0, 1), (1, 1), (2, -3)):
            p = Point(*(u * x + v * y for x, y in zip(e1, e2)))
            if p != double:
                assert multiplicity(p, pair) == 1 and any(form_gradient(pair, p.coords))


def test_conic_rank_classification():
    assert conic_rank_oracle(Conic(0, 0, 1, -1, 0, 0)) == 3  # irreducible
    assert conic_rank_oracle(conic_from_lines(Line(1, 0, 0), Line(0, 1, 0))) == 2  # pair
    line = Line(1, -1, 2)
    assert conic_rank_oracle(conic_from_lines(line, line)) == 1  # double line


def test_is_irreducible_is_rank_three():
    # the determinant test of is_irreducible against the rank of the same
    # matrix: random conics with 1- and 64-digit coefficients, line pairs
    # and double lines with 1- and 32-digit line coefficients
    rng = random.Random(61)
    ranks = []
    for trial in range(400):
        bound = (2, 10**64 - 1, 10**32)[trial % 3]
        conic = Conic(*(rng.randint(-bound, bound) for _ in range(5)), rng.randint(1, bound))
        l1, l2 = (Line(rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(2))
        for q in (conic, conic_from_lines(l1, l2), conic_from_lines(l1, l1)):
            ranks.append(conic_rank_oracle(q))
            assert is_irreducible(q) == (ranks[-1] == 3), q
    assert set(ranks) == {1, 2, 3}


def test_conic_space_dimensions():
    assert len(conic_space([])) == 6
    generic5 = [Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Point(1, 1, 1), Point(1, 2, 4)]
    space = conic_space(generic5)
    assert len(space) == 1
    for p in generic5:
        assert incident(p, space[0])
    # six vertices of four general lines support no conic at all
    lines = [Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1)]
    vertices = [meet(a, b) for i, a in enumerate(lines) for b in lines[i + 1 :]]
    assert len(conic_space(vertices)) == 0


def test_on_common_curve_and_degree_errors():
    assert on_common_curve([Point(1, 0, 0), Point(0, 1, 0)], 1)
    assert on_common_curve(random_points(random.Random(3), 5), 2)
    assert not on_common_curve([Point(1, 0, 0), Point(0, 1, 0), Point(1, 1, 1)], 1)
    with pytest.raises(UnsupportedDegree):
        on_common_curve([Point(1, 0, 0)], 3)
    with pytest.raises(UnsupportedDegree):
        max_on_curve([Point(1, 0, 0)], 0)


def test_max_on_curve_small_cases():
    collinear3 = [Point(0, 0, 1), Point(1, 0, 1), Point(2, 0, 1)]
    off = Point(1, 1, 1)
    assert max_on_curve(collinear3 + [off], 1) == 3
    assert max_on_curve([], 1) == 0
    assert max_on_curve([off], 2) == 1


def test_max_on_curve_bounds_and_monotonicity():
    rng = random.Random(7)
    for _ in range(40):
        pts = random_structured_points(rng, rng.randint(1, 8))
        m1 = max_on_curve(pts, 1)
        m2 = max_on_curve(pts, 2)
        assert min(len(pts), 2) <= m1 <= len(pts)
        assert min(len(pts), 5) <= m2 <= len(pts)
        assert m1 <= m2
        sub = pts[: rng.randint(0, len(pts))]
        assert max_on_curve(sub, 1) <= m1
        assert max_on_curve(sub, 2) <= m2


def test_max_on_curve_matches_oracles():
    rng = random.Random(13)
    for _ in range(60):
        pts = random_structured_points(rng, rng.randint(1, 8))
        assert max_on_curve(pts, 1) == m1_oracle(pts)
        assert max_on_curve(pts, 2) == m2_oracle(pts)


def test_max_on_curve_matches_oracles_up_to_the_cap():
    # m2_oracle takes up to 0.6 s at 10 points, so degree 2 sees fewer sets
    rng = random.Random(41)
    for kind in ("collinear", "concurrent", "rescaled"):
        for _ in range(15):
            pts = random_wide_points(rng, rng.randint(9, MAX_POINTS), kind)
            assert max_on_curve(pts, 1) == m1_oracle(pts)
        for size in (9, 10):
            pts = random_wide_points(rng, size, kind)
            assert max_on_curve(pts, 1) == m1_oracle(pts)
            assert max_on_curve(pts, 2) == m2_oracle(pts)
    for size in (9, 10, 11, 12):
        pts = random_structured_points(rng, size)
        assert max_on_curve(pts, 1) == m1_oracle(pts)
        if size <= 10:
            assert max_on_curve(pts, 2) == m2_oracle(pts)
    assert max_on_curve([Point(1, 2, 3), Point(2, 4, 6), Point(0, 0, 1)], 1) == 2
    # degree 2 at the cap, where m2_oracle is too slow
    rng = random.Random(47)
    for kind in ("collinear", "concurrent", "rescaled", "structured"):
        for size in (11, 12) * 3:
            if kind == "structured":
                pts = random_structured_points(rng, size)
            else:
                pts = random_wide_points(rng, size, kind)
            assert max_on_curve(pts, 2) == m2_minor_oracle(pts)


def _planted(rng, n, kind, off) -> list[Point]:
    """n points moved by a random projective map: n - off on the smooth
    conic x*z = y^2 (kind "conic") or on the line pair x*y = 0 with at
    least four on y = 0 (kind "pair"), and `off` more on neither."""
    if kind == "conic":
        on = [Point(t * t, t, 1) for t in rng.sample(range(-9, 10), n - off)]
        on_curve = lambda x, y, z: x * z == y * y
    else:
        k1 = max(4, (n - off + 1) // 2)
        on = [Point(t, 0, 1) for t in rng.sample(range(-7, 8), k1)]
        on += [Point(0, t, 1) for t in rng.sample([*range(-7, 0), *range(1, 8)], n - off - k1)]
        on_curve = lambda x, y, z: x * y == 0
    offs: list[Point] = []
    while len(offs) < off:
        p = random_point(rng)
        if not on_curve(*p.coords) and p not in offs:
            offs.append(p)
    pmap = random_projective_map(rng, bound=2)
    return [pmap.point(p) for p in on + offs]


def test_max_on_curve_ignores_order_and_stops_at_a_coloop():
    # the points are read into a set, unsorted: shuffled lists with points
    # listed again under another scaling give the oracles' counts
    rng = random.Random(61)
    for _ in range(40):
        pts = random_structured_points(rng, rng.randint(1, 7))
        again = [Point(*(k * x for x in p.coords)) for p, k in zip(rng.sample(pts, min(3, len(pts))), (2, -3, 5))]
        shuffled = pts + again
        rng.shuffle(shuffled)
        assert max_on_curve(shuffled, 1) == max_on_curve(pts, 1) == m1_oracle(pts)
        assert max_on_curve(shuffled, 2) == max_on_curve(pts, 2) == m2_oracle(pts)
    # planted sets up to the cap: n - 1 on a conic is a coloop (the stop at
    # n - 1), n - 2 two proportional dependency columns, n - 3 from nine
    # points on the bracket search, and a line pair with four or more
    # collinear points makes six on a conic with every other point
    counts = set()
    for n in range(6, MAX_POINTS + 1):
        for kind, off in (
            ("conic", 1), ("conic", 2), ("conic", 3), ("pair", 0), ("pair", 1), ("pair", 2), ("pair", 3)
        ):
            if n - off < 4:  # the line pair takes four points on one line
                continue
            pts = _planted(rng, n, kind, off)
            m2 = m2_minor_oracle(pts)
            assert m2 >= n - off
            if kind == "conic" and off == 1:
                assert m2 == n - 1
            counts.add(n - m2)
            for order in (pts, pts[::-1], rng.sample(pts, n)):
                assert max_on_curve(order, 1) == m1_oracle(pts)
                assert max_on_curve(order, 2) == m2
    assert counts == {0, 1, 2, 3}


def test_max_on_curve_reads_two_off_without_brackets(monkeypatch):
    # all but two on a conic is a circuit of two in the dual: two
    # proportional dependency columns, which may differ in sign; and eight
    # points with no such pair and no six on a conic give 5
    def no_brackets(coords):
        raise AssertionError("the bracket search ran")

    monkeypatch.setattr(projective, "_sixes_on_a_conic", no_brackets)
    rng = random.Random(29)
    planted = [_planted(rng, n, kind, 2) for n in range(7, MAX_POINTS + 1) for kind in ("conic", "pair")]
    generic: list[list[Point]] = []
    while len(generic) < 4:
        pts = random_points(rng, 8)
        if m2_minor_oracle(pts) == 5:
            generic.append(pts)
    counts = set()
    for pts in planted + generic:
        m2 = m2_minor_oracle(pts)
        counts.add(len(pts) - m2)
        for order in (pts, pts[::-1], rng.sample(pts, len(pts))):
            assert max_on_curve(order, 2) == m2
    assert {2, 3} <= counts


def test_max_on_curve_reads_its_points_once():
    rng = random.Random(53)
    for _ in range(20):
        pts = random_structured_points(rng, rng.randint(6, 10))
        for degree in (1, 2):
            assert max_on_curve(iter(pts), degree) == max_on_curve(pts, degree)


def _six_point_tuples(rng):
    """(kind, six integer triples): random, with three or four collinear,
    with points at infinity, on a conic, and on a line pair; small
    coordinates and coordinates up to about 10^6."""

    def rand(bound):
        while True:
            p = [rng.randint(-bound, bound) for _ in range(3)]
            if any(p):
                return p

    def on_line(p, q):
        s, t = rng.randint(-2, 2), rng.randint(1, 2)
        return [s * x + t * y for x, y in zip(p, q)]

    for bound in (3, 10**6):
        small = min(bound, 1000)
        yield "random", [rand(bound) for _ in range(6)]
        p, q = rand(bound // 3 or 1), rand(bound // 3 or 1)
        yield "three collinear", [p, q, on_line(p, q)] + [rand(bound) for _ in range(3)]
        yield "four collinear", [p, q, on_line(p, q), on_line(p, q), rand(bound), rand(bound)]
        infinite = [rand(bound)[:2] + [0] for _ in range(rng.randint(1, 3))]
        yield "at infinity", infinite + [rand(bound) for _ in range(6 - len(infinite))]
        yield "conic", [
            [s * s, s * t, t * t]
            for s, t in ((rng.randint(-small, small), rng.randint(-small, small)) for _ in range(6))
            if s or t
        ]
        a, b, c, d = (rand(bound // 3 or 1) for _ in range(4))
        yield "line pair", [on_line(a, b) for _ in range(3)] + [on_line(c, d) for _ in range(3)]


def test_bracket_test_matches_the_veronese_rank():
    rng = random.Random(59)
    seen = {True: 0, False: 0}
    pmap = random_projective_map(rng)
    for _ in range(60):
        for kind, six in _six_point_tuples(rng):
            if len(six) != 6 or not all(any(p) for p in six):
                continue
            if kind == "conic" and rng.random() < 0.5:
                six = [list(pmap.point(Point(*p)).ints) for p in six]
            rng.shuffle(six)
            rows = [_veronese(p) for p in six]
            expected = reference_rank(rows) < 6
            assert (reference_det(rows) == 0) == expected
            assert (list(_sixes_on_a_conic(six)) == [tuple(range(6))]) == expected, (kind, six)
            seen[expected] += 1
    assert min(seen.values()) > 100


def test_conic_space_is_the_reference_basis_of_unscaled_rows():
    # the Covered witness is conic_space(...)[0]; points like (7 : 3 : 11)
    # have canonical coordinates (1, 3/7, 11/7) with large denominators
    rng = random.Random(43)
    for _ in range(60):
        if rng.random() < 0.5:
            pts = random_points(rng, rng.randint(1, 5), bound=40)
        else:
            pmap = random_projective_map(rng)
            ts = rng.sample(range(-9, 10), rng.randint(5, 8))
            pts = [pmap.point(Point(t * t, t, 1)) for t in ts]
        expected = reference_conic_space(pts)
        assert conic_space(pts) == expected
        assert conic_space([Point(*(7 * x for x in p.coords)) for p in reversed(pts)]) == expected
        assert conic_space(pts + pts[:2]) == expected


def test_two_points_and_samples_lie_on_line():
    rng = random.Random(23)
    for _ in range(50):
        line = line_through(*random_points(rng, 2))
        u, v = line_points(line)
        assert u != v and incident(u, line) and incident(v, line)


def test_intersect_line_conic_rational_cases():
    conic = Conic(0, 0, 1, -1, 0, 0)  # x*z = y^2
    secant = line_through(Point(0, 0, 1), Point(1, 1, 1))
    pts = intersect_curves(secant, conic)
    assert set(pts) == {Point(0, 0, 1), Point(1, 1, 1)}
    assert set(intersect_curves(Line(0, 1, -2), conic)) == {
        Point(1, 0, 0),
        Point(4, 2, 1),
    }
    # tangent at (0:0:1) is x = 0
    tangent = Line(1, 0, 0)
    assert intersect_curves(tangent, conic) == (Point(0, 0, 1),)
    with pytest.raises(IrrationalIntersection):
        intersect_curves(Line(1, 0, -2), conic)  # x = 2z forces y^2 = 2z^2


def _meets_match_oracle(line, conic) -> str:
    """Compare with the oracle; name the case: which quadratic coefficient
    is zero, or how many points there are."""
    u, v = line_points(line)
    try:
        expected = tuple(sorted(set(_line_meets(line, conic))))
    except ValueError:
        with pytest.raises(IrrationalIntersection):
            intersect_curves(line, conic)
        return "irrational"
    assert intersect_curves(line, conic) == expected
    if _form(conic, v.coords) == 0:
        return "q(v) = 0, tangent" if len(expected) == 1 else "q(v) = 0, secant"
    return "tangent" if len(expected) == 1 else "secant"


def test_intersect_line_conic_matches_oracle():
    rng = random.Random(71)
    seen = []
    for trial in range(300):
        scale = 1 if trial % 2 else Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if trial % 3 == 0:
            coeffs = [scale * rng.randint(-6, 6) for _ in range(6)]
            if not any(coeffs) or not is_irreducible(Conic(*coeffs)):
                continue
            conic = Conic(*coeffs)
            line = Line(*(scale * rng.randint(-6, 6) for _ in range(2)), rng.randint(1, 6))
            seen.append(_meets_match_oracle(line, conic))
            continue
        # a conic through a point with y = 0, which line_points
        # gives as v for most lines through it
        p = Point(rng.choice([1, scale]), 0, rng.randint(-6, 6))
        pts = [p, *random_points(rng, 4)]
        space = conic_space(pts)
        if len(space) != 1 or not is_irreducible(space[0]):
            continue
        conic = space[0]
        lines = [
            line_through(pts[1], pts[2]),
            line_through(p, pts[rng.randint(1, 4)]),
            line_through(pts[1], random_point(rng)),
            Line(*conic_gradient(conic, p)),
            Line(*conic_gradient(conic, pts[1])),
            Line(rng.randint(-6, 6), rng.randint(-6, 6), scale),
        ]
        seen += [_meets_match_oracle(line, conic) for line in lines]
    kinds = set(seen)
    assert kinds == {
        "irrational", "secant", "tangent", "q(v) = 0, secant", "q(v) = 0, tangent"
    }, kinds


def test_intersect_line_conic_line_in_a_line_pair():
    rng = random.Random(73)
    for _ in range(40):
        l1, l2 = (line_through(*random_points(rng, 2)) for _ in range(2))
        for line in (l1, l2):
            with pytest.raises(ValueError):
                intersect_curves(line, conic_from_lines(l1, l2))


def test_intersect_curves_dispatch():
    l1, l2 = Line(1, 0, 0), Line(0, 1, 0)
    assert intersect_curves(l1, l2) == (Point(0, 0, 1),)
    conic = Conic(0, 0, 1, -1, 0, 0)
    assert Point(0, 0, 1) in intersect_curves(l1, conic)
    with pytest.raises(IrrationalIntersection):
        intersect_curves(conic, Conic(1, 0, 0, 1, 0, -1))
    with pytest.raises(ValueError):
        intersect_curves(l1, l1)


def _meets_or_message(c1, c2):
    try:
        return list(meets(c1.ints, c2.ints))
    except IrrationalIntersection as exc:
        return str(exc)


def test_meets_is_symmetric_in_line_and_conic():
    # lines through two of the points (t^2 : t : 1) of x*z = y^2 meet it
    # rationally, most random lines do not
    conic = Conic(0, 0, 1, -1, 0, 0)
    rng = random.Random(79)
    kinds = set()
    for _ in range(60):
        s, t = rng.sample(range(-6, 7), 2)
        for line in (line_through(Point(s * s, s, 1), Point(t * t, t, 1)), oracles.random_line(rng)):
            got = _meets_or_message(line, conic)
            assert _meets_or_message(conic, line) == got
            kinds.add(type(got))
    assert kinds == {list, str}
    assert _meets_or_message(conic, Conic(1, 0, 0, 1, 0, -1)) == (
        "intersections of two conic components are not representable over the rationals"
    )


def test_line_in_conic():
    line = Line(1, -1, 0)
    other = Line(2, 1, 1)
    pair = conic_from_lines(line, other)
    assert line_in_conic(line, pair)
    assert line_in_conic(other, pair)
    assert not line_in_conic(Line(1, 0, 0), pair)
    assert not line_in_conic(line, Conic(0, 0, 1, -1, 0, 0))


@given(homogeneous_tuples(3), homogeneous_tuples(3), homogeneous_tuples(3), homogeneous_tuples(6))
def test_line_in_conic_is_the_form_vanishing_at_three_points(a, b, c, d):
    # the oracle evaluates the form at three distinct points of the line.
    # The product of the line with another holds it; a product of two
    # other lines through two of its points vanishes there and holds it
    # only when one of them is the line; a drawn conic seldom holds it
    line, other = Line(*a), Line(*b)
    u, v = line_points(line)
    pairs = [conic_from_lines(line, other), conic_from_lines(other, line), Conic(*d)]
    w = Point(*c)
    if w != u and w != v:
        pairs.append(conic_from_lines(line_through(u, w), line_through(v, w)))
    if not incident(w, line):
        pairs.append(conic_from_lines(line_through(u, w), other))
    for conic in pairs:
        assert line_in_conic(line, conic) == holds_line(conic, line)


def test_oracles_import_only_the_classes():
    # the oracles check the package, so they may not run its logic
    names = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("planecurrents") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planecurrents"):
            names.update(alias.name for alias in node.names)
    assert names and names <= {"Point", "Line", "Conic", "DivisorCurrent", "LevelSet"}


def test_apply_transform_identity_and_permutation():
    p, line, conic = Point(1, 2, 3), Line(1, 2, 3), Conic(0, 0, 1, -1, 0, 0)
    identity = OracleMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (identity.point(p), identity.line(line), identity.conic(conic)) == (p, line, conic)
    # (x : y : z) -> (y : z : x): a*x + b*y + c*z becomes b*x + c*y + a*z,
    # and x*z - y^2 becomes y*z - x^2
    perm = OracleMap([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert perm.point(p) == Point(2, 3, 1)
    assert perm.line(line) == Line(2, 3, 1)
    assert perm.conic(conic) == Conic(-1, 0, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="singular"):
        OracleMap([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def test_transform_preserves_incidence_and_multiplicity():
    rng = random.Random(31)
    conic = Conic(0, 0, 1, -1, 0, 0)
    pair = conic_from_lines(Line(1, 0, 0), Line(0, 1, 1))
    for _ in range(100):
        pmap = random_projective_map(rng)
        p = random_point(rng)
        line = line_through(*random_points(rng, 2))
        assert incident(p, line) == incident(pmap.point(p), pmap.line(line))
        for q in (conic, pair):
            assert multiplicity(p, q) == multiplicity(pmap.point(p), pmap.conic(q))
        assert conic_rank_oracle(q) == conic_rank_oracle(pmap.conic(q))


def test_transform_preserves_max_on_curve():
    rng = random.Random(37)
    for _ in range(30):
        pts = random_structured_points(rng, rng.randint(3, 8))
        pmap = random_projective_map(rng)
        moved = [pmap.point(p) for p in pts]
        assert max_on_curve(moved, 1) == max_on_curve(pts, 1)
        assert max_on_curve(moved, 2) == max_on_curve(pts, 2)
