import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecurrents.currents import DivisorCurrent, LevelSet
from planecurrents.errors import (
    IrrationalIntersection,
    NegativeWeight,
    NonpositiveThreshold,
    ReducibleConic,
)
from planecurrents.projective import (
    _cross,
    _span,
    Conic,
    Line,
    Point,
    conic_from_lines,
    conic_gradient,
    incident,
    intersect_curves,
    is_irreducible,
    line_through,
    meet,
)

from oracles import (
    _join,
    bezout_excess,
    combine,
    holds_line,
    homogeneous_tuples,
    lelong_oracle,
    level_contains,
    level_set_oracle,
    line_points,
    mass_oracle,
    pairwise_meets_oracle,
    random_lines,
    random_point,
    random_points,
    random_projective_map,
    random_unit_current,
    rational_form,
    reference_conic_space,
    weight_of,
    weights_through_oracle,
)

QUAD_LINES = [Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1)]
SMOOTH_CONIC = Conic(0, 0, 1, -1, 0, 0)  # x*z = y^2


def quarter_current() -> DivisorCurrent:
    return DivisorCurrent([(Fraction(1, 4), l) for l in QUAD_LINES])


def test_mass():
    assert quarter_current().mass == 1
    assert DivisorCurrent().mass == 0
    mixed = DivisorCurrent([(Fraction(1, 4), SMOOTH_CONIC), (Fraction(1, 2), Line(1, 0, 0))])
    assert mixed.mass == 1  # conic counts twice


def test_component_normalization():
    line = Line(1, 2, 3)
    merged = DivisorCurrent([(Fraction(1, 4), line), (Fraction(1, 4), line)])
    assert merged.components == ((Fraction(1, 2), line),)
    dropped = DivisorCurrent([(0, line)])
    assert dropped.components == ()
    with pytest.raises(NegativeWeight):
        DivisorCurrent([(-1, line)])
    with pytest.raises(ReducibleConic):
        DivisorCurrent([(1, conic_from_lines(Line(1, 0, 0), Line(0, 1, 0)))])


def test_lelong_numbers():
    t = quarter_current()
    assert t.lelong_number(Point(0, 0, 1)) == Fraction(1, 2)  # on x=0 and y=0
    assert t.lelong_number(Point(1, 2, 3)) == 0
    mixed = DivisorCurrent([(Fraction(1, 3), SMOOTH_CONIC), (Fraction(1, 3), Line(1, 0, 0))])
    # (0:0:1) lies on the conic and on the line
    assert mixed.lelong_number(Point(0, 0, 1)) == Fraction(2, 3)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=8))
def test_lelong_linearity(num, den):
    rng = random.Random(num * 8 + den)
    factor = Fraction(num, den)
    t1 = random_unit_current(rng)
    t2 = random_unit_current(rng)
    p = random_point(rng)
    combined = combine((factor, t1), (1, t2))
    assert combined.lelong_number(p) == factor * t1.lelong_number(p) + t2.lelong_number(p)


def test_lelong_bounded_by_mass():
    rng = random.Random(17)
    for _ in range(100):
        t = random_unit_current(rng)
        for p in t.support_intersections():
            assert t.lelong_number(p) <= t.mass


def test_bezout_mass_bound_for_noncomponent_lines():
    rng = random.Random(19)
    for _ in range(100):
        t = random_unit_current(rng)
        line = random_lines(rng, 1)[0]
        if weight_of(t, line) != 0:
            continue
        crossing = {meet(line, c) for c in t.curves if c != line}
        assert sum(t.lelong_number(p) for p in crossing) <= t.mass


def test_support_intersections_rejects_conic_pairs():
    c2 = Conic(1, 0, 0, 1, 0, -1)
    t = DivisorCurrent([(Fraction(1, 4), SMOOTH_CONIC), (Fraction(1, 4), c2)])
    with pytest.raises(IrrationalIntersection):
        t.support_intersections()
    secant_free = DivisorCurrent(
        [(Fraction(1, 3), SMOOTH_CONIC), (Fraction(1, 3), Line(1, 0, -2))]
    )
    with pytest.raises(IrrationalIntersection):
        secant_free.level_set(Fraction(1, 6))


def test_level_set_quadrilateral():
    t = quarter_current()
    level = t.level_set(Fraction(1, 3), strict=True)
    assert level.component_curves == ()
    assert len(level.isolated_points) == 6
    assert all(t.lelong_number(p) == Fraction(1, 2) for p in level.isolated_points)


def test_level_set_includes_full_lines():
    t = DivisorCurrent([(Fraction(1, 3), l) for l in QUAD_LINES[:3]])
    level = t.level_set(Fraction(2, 9), strict=True)
    assert len(level.component_curves) == 3
    assert level.isolated_points == ()
    above_mass = t.level_set(2, strict=False)
    assert above_mass.component_curves == () and above_mass.isolated_points == ()
    with pytest.raises(NonpositiveThreshold):
        t.level_set(0)


def test_level_set_completeness_at_intersections():
    rng = random.Random(23)
    for _ in range(60):
        t = random_unit_current(rng)
        threshold = Fraction(rng.randint(1, 6), rng.randint(7, 24))
        strict = rng.random() < 0.5
        level = t.level_set(threshold, strict=strict)
        for p in t.support_intersections():
            nu = t.lelong_number(p)
            passes = nu > threshold if strict else nu >= threshold
            assert level_contains(level, p) == passes


def test_level_set_monotonicity():
    rng = random.Random(29)
    for _ in range(40):
        t = random_unit_current(rng)
        probes = list(t.support_intersections())
        for line in t.curves:
            u, v = (p.ints for p in line_points(line))
            probes.extend(Point(*(a + k * b for a, b in zip(u, v))) for k in (1, 2, 3))
        t1 = Fraction(rng.randint(1, 5), rng.randint(6, 20))
        t2 = t1 + Fraction(1, rng.randint(4, 9))
        strict_level = t.level_set(t1, strict=True)
        wide_level = t.level_set(t1, strict=False)
        higher = t.level_set(t2, strict=False)
        for p in probes:
            assert not level_contains(strict_level, p) or level_contains(wide_level, p)
            assert not level_contains(higher, p) or level_contains(wide_level, p)


def test_level_set_projective_invariance():
    rng = random.Random(31)
    for _ in range(50):
        t = random_unit_current(rng)
        pmap = random_projective_map(rng)
        moved = pmap.current(t)
        assert moved.mass == t.mass
        p = random_point(rng)
        assert moved.lelong_number(pmap.point(p)) == t.lelong_number(p)
        threshold = Fraction(rng.randint(1, 5), rng.randint(6, 18))
        level = t.level_set(threshold, strict=True)
        moved_level = moved.level_set(threshold, strict=True)
        assert moved_level == pmap.level_set(level)


def test_level_set_validation():
    with pytest.raises(ValueError):
        LevelSet(Fraction(1, 2), True, (Line(1, 0, 0),), (Point(0, 1, 0),))
    with pytest.raises(ValueError, match=r"^isolated point \(0 : 1 : 0\) lies on a component curve$"):
        LevelSet(Fraction(1, 2), True, (Line(1, 0, 0),), (Point(0, 1, 0),))
    with pytest.raises(ValueError, match="^isolated points must be pairwise distinct$"):
        LevelSet(Fraction(1, 2), True, (), (Point(1, 2, 3), Point(2, 4, 6)))
    ok = LevelSet(Fraction(1, 2), False, (), (Point(1, 2, 3), Point(1, 0, 0)))
    assert ok.isolated_points == tuple(sorted((Point(1, 2, 3), Point(1, 0, 0))))
    assert not ok.component_curves


def _unit_weights(rng, curves) -> DivisorCurrent:
    raws = [Fraction(rng.randint(1, 12)) for _ in curves]
    total = sum(r * c.degree for r, c in zip(raws, curves))
    return DivisorCurrent([(r / total, c) for r, c in zip(raws, curves)])


def _concurrent_current(rng) -> DivisorCurrent:
    """Three or four lines through one point plus a few random lines."""
    centre = random_point(rng)
    spokes = dict.fromkeys(line_through(centre, q) for q in random_points(rng, 5) if q != centre)
    lines = list(spokes)[: rng.randint(3, 4)] + random_lines(rng, rng.randint(1, 3))
    return _unit_weights(rng, list(dict.fromkeys(lines)))


def _conic_chord_current(rng) -> DivisorCurrent:
    """A projective image of x*z = y^2 with chords through its rational
    points, two of them through the first point, plus the tangent there."""
    pmap = random_projective_map(rng)
    ts = rng.sample(range(-4, 5), 5)
    pts = [pmap.point(Point(t * t, t, 1)) for t in ts]
    conic = pmap.conic(SMOOTH_CONIC)
    pairs = [(0, 1), (0, 2)] + [rng.sample(range(5), 2) for _ in range(rng.randint(1, 3))]
    chords = dict.fromkeys(line_through(pts[i], pts[j]) for i, j in pairs)
    tangent = Line(*conic_gradient(conic, pts[0]))
    return _unit_weights(rng, [conic, tangent, *chords])


def _thresholds(rng, current):
    """Weights and sums of two or three weights, where a density can sit
    exactly at the threshold, plus one random value."""
    ws = [w for w, _ in current.components]
    sums = [a + b for a in ws for b in ws] + [a + b + c for a, b, c in zip(ws, ws[1:], ws[2:])]
    return rng.sample(ws + sums, 4) + [Fraction(rng.randint(1, 9), rng.randint(10, 30))]


def _assert_matches_oracle(current, threshold, strict):
    level = current.level_set(threshold, strict=strict)
    curves, isolated = level_set_oracle(current, threshold, strict)
    assert set(level.component_curves) == set(curves)
    assert level.isolated_points == isolated


@pytest.mark.parametrize(
    "make", [random_unit_current, _concurrent_current, _conic_chord_current]
)
def test_level_set_matches_oracle(make):
    rng = random.Random(37)
    for _ in range(25):
        current = make(rng)
        for threshold in _thresholds(rng, current):
            for strict in (False, True):
                _assert_matches_oracle(current, threshold, strict)


@pytest.mark.parametrize(
    "make", [random_unit_current, _concurrent_current, _conic_chord_current]
)
def test_level_set_is_the_public_constructor(make):
    # `level_set` calls the public constructor on the parts the incidence
    # map gives; built from shuffled parts, it must give the same level set
    rng = random.Random(41)
    for _ in range(25):
        current = make(rng)
        for threshold in _thresholds(rng, current):
            for strict in (False, True):
                level = current.level_set(threshold, strict=strict)
                t, curves, points = current._level_parts(threshold, strict)
                rng.shuffle(points)
                public = LevelSet(t, strict, curves[::-1], points)
                assert level == public and repr(level) == repr(public)
                assert type(level.threshold) is Fraction and level.strict is strict
                assert type(level.component_curves) is tuple and type(level.isolated_points) is tuple
                assert hash(level) == hash(public)


@pytest.mark.parametrize("make, through", [(_concurrent_current, 3), (_conic_chord_current, 4)])
def test_oracle_currents_have_rich_points(make, through):
    # three or more lines in one point; conic, tangent and two chords in one point
    rng = random.Random(37)
    for _ in range(5):
        current = make(rng)
        richest = max(
            sum(incident(p, c) for c in current.curves) for p in current.support_intersections()
        )
        assert richest >= through


def _bezout_curves(current):
    """The lines through two pairwise meets of the current and the conics
    through five with a one-dimensional `reference_conic_space`, leaving
    out the components and every curve that holds a component line."""
    meets = sorted(pairwise_meets_oracle(current))
    lines = {_join(p, q) for p, q in combinations(meets, 2)}
    spaces = (reference_conic_space(five) for five in combinations(meets, 5))
    conics = {space[0] for space in spaces if len(space) == 1}
    component_lines = [c for c in current.curves if isinstance(c, Line)]
    return [
        c
        for c in (*lines, *conics)
        if c not in current.curves and not any(holds_line(c, l) for l in component_lines)
    ]


def _few_line_current(rng) -> DivisorCurrent:
    """A unit current of three to five lines: at most ten meets, so 252
    five-point subsets at most."""
    return random_unit_current(rng, rng.randint(3, 5))


@pytest.mark.parametrize("make", [_few_line_current, _conic_chord_current])
def test_bezout_excess_is_never_positive(make):
    # a curve sharing no component with the current takes at most
    # deg * mass of density at the meets on it, by `lelong_number` and by
    # the incidence map's density numerators over `den`, as by the oracle
    rng = random.Random(61)
    for _ in range(10):
        current = make(rng)
        incidence = current._incidence_map()
        densities = (
            current.lelong_number,
            lambda p: Fraction(incidence[p.ints][0], current.den),
        )
        for curve in _bezout_curves(current):
            excess = bezout_excess(current, curve, lambda p: lelong_oracle(current, p))
            assert excess <= 0, (current, curve)
            for density in densities:
                assert bezout_excess(current, curve, density) == excess, (current, curve)


def _assert_integer_weights(current):
    """`den` is the lcm of the weight denominators, `nums` the weights over
    it, and mass and densities agree with the Fraction oracle."""
    weights = [w for w, _ in current.components]
    assert current.den == lcm(*(w.denominator for w in weights))
    assert [Fraction(n, current.den) for n in current.nums] == weights
    assert current.mass == mass_oracle(current)
    for p in current.support_intersections():
        assert current.lelong_number(p) == lelong_oracle(current, p)


MERSENNE_61 = 2**61 - 1  # prime, so coprime to 3, 5 and 7


def _coprime_current(rng) -> DivisorCurrent:
    """Random lines weighted over the pairwise coprime denominators 3, 5, 7
    and 2^61 - 1 (and 1, as ints or Fractions); some lines are listed twice,
    once rescaled, so that their weights merge."""
    components = []
    for line in random_lines(rng, rng.randint(3, 6)):
        for _ in range(rng.choice([1, 1, 2])):
            den = rng.choice([1, 3, 5, 7, MERSENNE_61])
            num = rng.randint(1, 2 * den)
            weight = num if den == 1 and rng.random() < 0.5 else Fraction(num, den)
            k = rng.choice([1, -2, 3])
            components.append((weight, Line(*(k * x for x in line.ints))))
    rng.shuffle(components)
    return DivisorCurrent(components)


def test_integer_weights_fixed_currents():
    empty = DivisorCurrent()
    assert (empty.den, empty.nums, empty.mass) == (1, (), 0)
    assert empty.lelong_number(Point(1, 2, 3)) == 0
    for strict in (False, True):
        assert empty.level_set(Fraction(1, 3), strict) == LevelSet(Fraction(1, 3), strict)

    x, y, z = QUAD_LINES[:3]
    merged = DivisorCurrent(
        [(Fraction(1, 3), x), (Fraction(1, 5), Line(2, 0, 0)), (1, y), (Fraction(2, 7), z)]
    )
    assert merged.components == ((Fraction(2, 7), z), (Fraction(1), y), (Fraction(8, 15), x))
    assert (merged.den, merged.nums) == (105, (30, 105, 56))
    assert merged.lelong_number(Point(0, 0, 1)) == Fraction(23, 15)
    assert merged.mass == Fraction(191, 105)
    _assert_integer_weights(merged)

    tiny = DivisorCurrent([(Fraction(1, MERSENNE_61), x), (Fraction(2, 3), y), (2, z)])
    assert tiny.den == 3 * MERSENNE_61
    _assert_integer_weights(tiny)
    # the strict level set at the density of (0:0:1) leaves it out, >= keeps it
    nu = Fraction(1, MERSENNE_61) + Fraction(2, 3)
    assert tiny.level_set(nu, strict=True).isolated_points == ()
    assert tiny.level_set(nu).isolated_points == (Point(0, 0, 1),)
    assert tiny.level_set(nu - Fraction(1, 13 * tiny.den), strict=True).isolated_points == (
        Point(0, 0, 1),
    )


def test_integer_weights_match_the_fraction_oracle():
    rng = random.Random(47)
    for _ in range(20):
        current = _coprime_current(rng)
        _assert_integer_weights(current)
        for p in random_points(rng, 3):
            assert current.lelong_number(p) == lelong_oracle(current, p)
        densities = {lelong_oracle(current, p) for p in current.support_intersections()}
        exact = sorted(densities | {w for w, _ in current.components})
        # just below and above a density: denominators that do not divide den
        near = [t + s * Fraction(1, 13 * current.den) for t in exact for s in (-1, 1)]
        assert all(current.den % t.denominator for t in near)
        for threshold in rng.sample(exact, min(6, len(exact))) + rng.sample(near, 4):
            for strict in (False, True):
                _assert_matches_oracle(current, threshold, strict)


def test_concurrent_lines_share_one_map_entry():
    # three lines through (1:1:1) whose pairwise cross products are
    # (1, 1, 1), (2, 2, 2) and (-1, -1, -1): one key, one point
    concurrent = [Line(1, -1, 0), Line(0, 1, -1), Line(1, 1, -2)]
    raw = {_cross(a.ints, b.ints) for a, b in combinations(concurrent, 2)}
    assert raw == {(1, 1, 1), (2, 2, 2), (-1, -1, -1)}
    weights = [Fraction(1, 4), Fraction(1, 6), Fraction(1, 3)]
    current = DivisorCurrent(list(zip(weights, concurrent)) + [(Fraction(1, 4), Line(0, 0, 1))])
    centre = Point(1, 1, 1)
    assert current._incidence_map()[centre.ints] == (9, 4)  # 3/4 and 1/3 over den 12
    points = current.support_intersections()
    assert points.count(centre) == 1 and len(points) == 4
    assert points == tuple(sorted(points))
    assert current.lelong_number(centre) == sum(weights)
    assert current.level_set(sum(weights)).isolated_points == (centre,)
    assert current.level_set(sum(weights), strict=True).isolated_points == ()


def _assert_map_matches_oracle(current):
    """The map has one key per pairwise meet, and each entry is the
    density and the heaviest weight through the point, over `den`."""
    incidence = current._incidence_map()
    assert set(incidence) == {p.ints for p in pairwise_meets_oracle(current)}
    for key, (density, heaviest) in incidence.items():
        through = weights_through_oracle(current, Point(*key))
        assert (Fraction(density, current.den), Fraction(heaviest, current.den)) == (
            sum(through),
            max(through),
        )


def _chords_through(conic_points, pairs, weights):
    """The conic x*z = y^2 and the chords through the given pairs of its
    points (t^2 : t : 1), with the conic's weight last."""
    pts = [Point(t * t, t, 1) for t in conic_points]
    chords = [line_through(pts[i], pts[j]) for i, j in pairs]
    return DivisorCurrent(list(zip(weights, chords + [SMOOTH_CONIC])))


def test_incidence_map_matches_the_oracle():
    rng = random.Random(53)
    for make in (random_unit_current, _concurrent_current, _conic_chord_current):
        for _ in range(25):
            _assert_map_matches_oracle(make(rng))

    # four lines through (0:0:1) that sort after the other three, so the
    # first line through it has the fourth-last row; the heaviest of them
    # is neither of the first pair
    spokes = [Line(1, b, 0) for b in (5, 6, 7, 9)]
    others = [Line(1, -3, 2), Line(1, -1, 5), Line(1, 0, -4)]
    weights = [Fraction(k, 40) for k in (3, 2, 4, 7, 6, 9, 5)]
    last = DivisorCurrent(list(zip(weights, spokes + others)))
    assert last.curves[-4:] == tuple(spokes)
    assert last._incidence_map()[(0, 0, 1)] == (16, 7)  # 3 + 2 + 4 + 7 and 7, over den 40
    _assert_map_matches_oracle(last)

    # the conic meets two chords at (1:1:1), and three at (0:0:1); a third
    # chord, (4:2:1)-(9:3:1), passes through neither
    two = _chords_through(
        [1, 2, 0, 3], [(0, 1), (0, 2), (1, 3)], [Fraction(k, 30) for k in (3, 5, 4, 7)]
    )
    assert two._incidence_map()[(1, 1, 1)] == (15, 7)  # 3 + 5 + 7 and the conic's 7, over 30
    three = _chords_through(
        [0, 1, -1, 2, 3], [(0, 1), (0, 2), (0, 3), (3, 4)], [Fraction(k, 30) for k in (2, 6, 3, 4, 5)]
    )
    assert three._incidence_map()[(0, 0, 1)] == (16, 6)  # 2 + 6 + 3 + 5 and 6, over 30
    for current in (two, three):
        _assert_map_matches_oracle(current)


def test_incidence_map_matches_the_oracle_at_tangents():
    # tangents to x*z = y^2 at (0:0:1), (4:2:1) and (1:0:0), and lines
    # through (1:0:0), the second spanning point of each of these lines
    # (the a == 0 branch of the line-conic meets), beside two chords
    tangents = [Line(1, 0, 0), Line(1, -4, 4), Line(0, 0, 1)]
    through_v = [Line(0, 1, -t) for t in (1, -1, 3)]
    chords = [Line(1, -3, 2), Line(1, 1, -2)]
    spanning = [_span(line.ints)[1] for line in through_v + [Line(0, 0, 1)]]
    assert all(incident(Point(*v), SMOOTH_CONIC) for v in spanning)
    lines = tangents + through_v + chords
    current = DivisorCurrent([(Fraction(k, 40), c) for k, c in enumerate(lines + [SMOOTH_CONIC], 1)])
    for line in tangents:
        assert len(intersect_curves(line, SMOOTH_CONIC)) == 1
    _assert_map_matches_oracle(current)
    rng = random.Random(59)
    for _ in range(10):
        _assert_map_matches_oracle(random_projective_map(rng).current(current))


def test_incidence_cache_is_invisible():
    rng = random.Random(43)
    current = _conic_chord_current(rng)
    twin = DivisorCurrent(current.components)
    before = (repr(current), hash(current), current.den, current.nums)
    threshold = Fraction(1, 4)
    level = current.level_set(threshold, strict=True)
    assert current == twin and hash(current) == hash(twin)
    assert (repr(current), hash(current), current.den, current.nums) == before
    assert (twin.den, twin.nums) == (current.den, current.nums)
    for name in ("den", "nums", "_incidence"):
        with pytest.raises(AttributeError):
            setattr(current, name, None)
    assert current.level_set(threshold, strict=True) == level
    assert twin.level_set(threshold, strict=True) == level

    # derived currents have new components and build their own map
    conic = next(c for c in current.curves if isinstance(c, Conic))
    chord = next(c for c in current.curves if isinstance(c, Line))
    # tangents at the conic's marked points meet it rationally
    on_conic = [p for p in current.support_intersections() if incident(p, conic)]
    extra = DivisorCurrent([(Fraction(1, 5), Line(*conic_gradient(conic, p))) for p in on_conic])
    derived = [
        DivisorCurrent([(w, c) for w, c in current.components if c != chord]),
        DivisorCurrent([(w / 2 if c == conic else w, c) for w, c in current.components]),
        combine((Fraction(3, 2), current)),
        random_projective_map(rng).current(current),
        combine((1, current), (1, extra)),
    ]
    for other in derived:
        _assert_integer_weights(other)
        for t in (Fraction(1, 4), Fraction(1, 3)):
            _assert_matches_oracle(other, t, strict=True)
    assert current.level_set(threshold, strict=True) == level
    assert (repr(current), hash(current), current.den, current.nums) == before


def test_irrational_intersection_raises_every_time():
    two_conics = DivisorCurrent(
        [(Fraction(1, 4), SMOOTH_CONIC), (Fraction(1, 4), Conic(1, 0, 0, 1, 0, -1))]
    )
    secant_free = DivisorCurrent(
        [(Fraction(1, 3), SMOOTH_CONIC), (Fraction(1, 3), Line(1, 0, -2))]
    )
    for current in (two_conics, secant_free):
        for _ in range(2):
            with pytest.raises(IrrationalIntersection):
                current.level_set(Fraction(1, 6))
            with pytest.raises(IrrationalIntersection):
                current.support_intersections()


def _first_irrational_pair_message(current):
    """The message of `intersect_curves` on the first line-conic pair,
    in component-pair order, without rational meets."""
    for line in (c for c in current.curves if isinstance(c, Line)):
        for conic in (c for c in current.curves if isinstance(c, Conic)):
            try:
                intersect_curves(line, conic)
            except IrrationalIntersection as exc:
                return str(exc)
    raise AssertionError("every line meets every conic rationally")


def test_irrational_pair_among_rational_ones_raises_its_own_message():
    # x = 2z meets x*z = y^2 where y^2 = 2z^2, and x + 2y + 5z = 0 nowhere
    # real; the chords and the line y = z meet it rationally and sort before
    # and after them. With x^2 + y^2 = z^2 as well, x - 3y + 2z meets that
    # conic irrationally, an earlier pair than x = 2z with either conic
    lines = [Line(0, 1, -1), Line(1, -3, 2), Line(1, 0, -2), Line(1, 1, -2), Line(1, 2, 5)]
    one = DivisorCurrent([(Fraction(1, 8), c) for c in lines + [SMOOTH_CONIC]])
    two = DivisorCurrent([(Fraction(1, 8), c) for c in lines + [SMOOTH_CONIC, Conic(1, 0, 0, 1, 0, -1)]])
    assert _first_irrational_pair_message(one) == str(
        pytest.raises(IrrationalIntersection, intersect_curves, Line(1, 0, -2), SMOOTH_CONIC).value
    )
    assert _first_irrational_pair_message(two) != _first_irrational_pair_message(one)
    for current in (one, two):
        message = _first_irrational_pair_message(current)
        for _ in range(2):
            with pytest.raises(IrrationalIntersection) as err:
                current.level_set(Fraction(1, 6))
            assert str(err.value) == message
            with pytest.raises(IrrationalIntersection) as err:
                current.support_intersections()
            assert str(err.value) == message


_CURVES = st.one_of(
    homogeneous_tuples(3).map(lambda v: Line(*v)),
    homogeneous_tuples(6).map(lambda v: Conic(*v)).filter(is_irreducible),
)


@given(st.data())
def test_component_order_is_degree_then_rational_form(data):
    # one sort by the curves' `<`; the result must be the order of the key
    # (degree, curve), and of degree then rational form, with duplicates
    # (equal classes under different scalings too) merged
    pool = data.draw(st.lists(_CURVES, min_size=1, max_size=6))
    scaled = [type(c)(*(k * x for x in c.ints)) for c in pool for k in (-2, 3)]
    pool += scaled[: data.draw(st.integers(0, len(scaled)))]
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.fractions(0, 2, max_denominator=6)), max_size=12
    ))
    components = [(w, pool[i]) for i, w in picks]
    merged = {}
    for w, c in components:
        merged[c] = merged.get(c, 0) + w
    kept = [(w, c) for c, w in merged.items() if w]
    current = DivisorCurrent(components)
    assert current.components == tuple(sorted(kept, key=lambda wc: (wc[1].degree, wc[1])))
    assert list(current.curves) == sorted(
        (c for _, c in kept), key=lambda c: (len(c.ints), rational_form(c.ints))
    )
