import random
from fractions import Fraction

import pytest

from planecurrents.cover import (
    Covered,
    CoverInstance,
    NotCoverable,
    UncoverableCurve,
    UncoveredPoints,
    _conic_point_search,
    beta_of,
    check_cover_instance,
    conic_cover_check,
    evaluate_cover,
    find_heavy_points,
    line_cover_check,
    no_conic_all_but_one,
    verify_verdict,
    witness_contains_points,
)
from planecurrents.currents import DivisorCurrent, LevelSet
from planecurrents.errors import AlphaOutOfRange, InvalidInstance
from planecurrents.projective import (
    Conic,
    Line,
    Point,
    incident,
    is_irreducible,
    max_on_curve,
)

from oracles import (
    _form,
    coverable_oracle,
    random_projective_map,
    random_structured_points,
    random_unit_current,
    reference_conic_points,
)

HALF = Fraction(1, 2)
SMOOTH_CONIC = Conic(0, 0, 1, -1, 0, 0)  # x*z = y^2


def finite_level(points, threshold=HALF, strict=True) -> LevelSet:
    return LevelSet(threshold, strict, (), tuple(points))


def test_beta_of():
    assert beta_of(HALF) == Fraction(1, 3)
    assert beta_of(Fraction(9, 20)) == Fraction(11, 30)
    assert beta_of(Fraction(2, 3)) == Fraction(2, 9)
    with pytest.raises(AlphaOutOfRange):
        beta_of(Fraction(2, 5))


def test_line_cover_small_point_sets():
    verdict = line_cover_check(finite_level([Point(1, 0, 0), Point(0, 1, 0)]))
    assert isinstance(verdict, Covered) and verdict.omitted is None
    assert isinstance(verdict.witness, Line)

    empty = line_cover_check(finite_level([]))
    assert isinstance(empty, Covered) and empty.omitted is None

    single = line_cover_check(finite_level([Point(1, 2, 3)]))
    assert isinstance(single, Covered) and incident(Point(1, 2, 3), single.witness)


def test_line_cover_three_collinear_plus_one():
    pts = [Point(0, 0, 1), Point(1, 0, 1), Point(2, 0, 1), Point(1, 1, 1)]
    level = finite_level(pts)
    verdict = line_cover_check(level)
    assert isinstance(verdict, Covered)
    assert verdict.omitted == Point(1, 1, 1)
    assert verify_verdict(level, verdict, budget=1)


def test_line_cover_forced_line_with_one_stray_point():
    level = LevelSet(HALF, True, (Line(0, 0, 1),), (Point(1, 1, 1),))
    verdict = line_cover_check(level)
    assert isinstance(verdict, Covered)
    assert verdict.witness == Line(0, 0, 1) and verdict.omitted == Point(1, 1, 1)
    assert verify_verdict(level, verdict, budget=1)


def test_line_cover_two_full_lines_not_coverable():
    level = LevelSet(HALF, True, (Line(1, 0, 0), Line(0, 1, 0)), ())
    verdict = line_cover_check(level)
    assert isinstance(verdict, NotCoverable)
    assert isinstance(verdict.obstruction, UncoverableCurve)
    assert verify_verdict(level, verdict, budget=1)


def test_line_cover_conic_component_not_coverable():
    level = LevelSet(HALF, True, (SMOOTH_CONIC,), ())
    verdict = line_cover_check(level)
    assert isinstance(verdict, NotCoverable)
    assert verdict.obstruction == UncoverableCurve(SMOOTH_CONIC)


def test_line_cover_obstruction_is_minimal_square():
    pts = [Point(0, 0, 1), Point(1, 0, 0), Point(0, 1, 0), Point(1, 1, 1)]
    level = finite_level(pts)
    verdict = line_cover_check(level)
    assert isinstance(verdict, NotCoverable)
    assert isinstance(verdict.obstruction, UncoveredPoints)
    assert len(verdict.obstruction.points) == 4
    assert verify_verdict(level, verdict, budget=1)


def test_conic_cover_forced_line_plus_points():
    forced = Line(0, 0, 1)
    off = [Point(0, 1, 1), Point(1, 2, 1), Point(2, 3, 1)]  # collinear, off z=0
    level = LevelSet(HALF, True, (forced,), tuple(off))
    verdict = conic_cover_check(level)
    assert isinstance(verdict, Covered) and verdict.omitted is None
    assert isinstance(verdict.witness, Conic)
    assert verify_verdict(level, verdict)


def test_conic_cover_forced_conic_with_stray_points():
    level = LevelSet(HALF, True, (SMOOTH_CONIC,), (Point(1, 1, 0),))
    verdict = conic_cover_check(level)
    assert isinstance(verdict, Covered)
    assert verdict.witness == SMOOTH_CONIC and verdict.omitted == Point(1, 1, 0)
    assert verify_verdict(level, verdict)

    two_off = LevelSet(HALF, True, (SMOOTH_CONIC,), (Point(1, 1, 0), Point(1, 2, 0)))
    verdict = conic_cover_check(two_off)
    assert isinstance(verdict, NotCoverable)
    assert isinstance(verdict.obstruction, UncoveredPoints)
    assert len(verdict.obstruction.points) == 2
    assert verify_verdict(two_off, verdict)


def test_conic_cover_degree_overflow():
    lines = (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1))
    level = LevelSet(Fraction(2, 9), True, lines, ())
    verdict = conic_cover_check(level)
    assert isinstance(verdict, NotCoverable)
    assert isinstance(verdict.obstruction, UncoverableCurve)
    assert verify_verdict(level, verdict)

    mixed = LevelSet(HALF, True, (Line(1, 1, 1), SMOOTH_CONIC), ())
    verdict = conic_cover_check(mixed)
    assert isinstance(verdict, NotCoverable)
    assert verdict.obstruction == UncoverableCurve(SMOOTH_CONIC)


def test_conic_cover_pure_points_matches_m2_rule():
    rng = random.Random(41)
    for _ in range(80):
        pts = random_structured_points(rng, rng.randint(0, 9))
        level = finite_level(pts)
        verdict = conic_cover_check(level)
        expected = max_on_curve(pts, 2) >= len(pts) - 1
        assert isinstance(verdict, Covered) == expected
        assert verify_verdict(level, verdict)
        if isinstance(verdict, NotCoverable):
            assert len(verdict.obstruction.points) >= 2


def test_conic_cover_matches_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(60):
        pts = random_structured_points(rng, rng.randint(0, 9))
        level = finite_level(pts)
        verdict = conic_cover_check(level)
        assert isinstance(verdict, Covered) == coverable_oracle(pts)


def test_deterministic_witness_choice():
    pts = random_structured_points(random.Random(47), 7)
    level = finite_level(pts)
    assert conic_cover_check(level) == conic_cover_check(level)


def test_verdict_projective_invariance():
    rng = random.Random(53)
    for _ in range(40):
        t = random_unit_current(rng)
        level = t.level_set(Fraction(1, 4), strict=True)
        verdict = conic_cover_check(level)
        pmap = random_projective_map(rng)
        moved_level = level.transformed(pmap)
        moved_verdict = conic_cover_check(moved_level)
        assert isinstance(moved_verdict, type(verdict))
        if isinstance(verdict, Covered):
            # a transformed witness of the original is a witness of the image
            transformed = Covered(
                pmap.conic(verdict.witness)
                if isinstance(verdict.witness, Conic)
                else pmap.line(verdict.witness),
                None if verdict.omitted is None else pmap.point(verdict.omitted),
            )
            assert verify_verdict(moved_level, transformed)


def test_threshold_scaling_equivalence():
    rng = random.Random(59)
    for _ in range(30):
        t = random_unit_current(rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        threshold = Fraction(rng.randint(1, 4), rng.randint(5, 15))
        scaled_level = t.scaled(c).level_set(c * threshold, strict=True)
        level = t.level_set(threshold, strict=True)
        assert scaled_level.component_curves == level.component_curves
        assert scaled_level.isolated_points == level.isolated_points
        assert isinstance(conic_cover_check(scaled_level), type(conic_cover_check(level)))


def test_cover_instance_validation():
    quad = DivisorCurrent(
        [(Fraction(1, 4), l) for l in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1))]
    )
    heavy = find_heavy_points(quad, HALF)
    assert len(heavy) == 6
    instance = CoverInstance(quad, HALF, heavy)
    assert instance.beta == Fraction(1, 3)
    assert instance.densities == tuple(quad.lelong_number(p) for p in heavy)

    with pytest.raises(InvalidInstance):
        CoverInstance(quad, Fraction(2, 5), heavy)  # alpha too small
    with pytest.raises(InvalidInstance):
        CoverInstance(quad, HALF, heavy[:3])  # too few points
    with pytest.raises(InvalidInstance):
        CoverInstance(quad, HALF, heavy[:3] + (Point(7, 11, 13),))  # light point
    with pytest.raises(InvalidInstance):
        CoverInstance(quad.scaled(Fraction(1, 2)), HALF, heavy)  # mass != 1


def test_check_cover_instance_on_quadrilateral():
    quad = DivisorCurrent(
        [(Fraction(1, 4), l) for l in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1))]
    )
    instance, level, verdict = evaluate_cover(quad, HALF)
    assert isinstance(verdict, Covered) and verdict.omitted is not None
    assert check_cover_instance(instance) == verdict
    assert verify_verdict(level, verdict)
    assert witness_contains_points(verdict, instance.heavy_points) in (True, False)


def test_find_heavy_points_on_full_line():
    heavy_line = DivisorCurrent(
        [
            (Fraction(3, 5), Line(0, 0, 1)),
            (Fraction(1, 5), Line(1, 0, 0)),
            (Fraction(1, 5), Line(0, 1, 0)),
        ]
    )
    heavy = find_heavy_points(heavy_line, Fraction(11, 20))
    assert len(heavy) >= 4
    assert all(heavy_line.lelong_number(p) >= Fraction(11, 20) for p in heavy)


def test_find_heavy_points_on_conic_component():
    t = DivisorCurrent(
        [
            (Fraction(9, 20), SMOOTH_CONIC),
            (Fraction(1, 20), Line(1, 0, 0)),
            (Fraction(1, 20), Line(0, 0, 1)),
        ]
    )
    heavy = find_heavy_points(t, Fraction(9, 20))
    assert len(heavy) >= 4
    assert all(incident(p, SMOOTH_CONIC) for p in heavy)


def _search_matches_oracle(conic):
    assert is_irreducible(conic)
    found = _conic_point_search(conic, 6)
    assert found == reference_conic_points(conic, 6)
    assert len(set(found)) == len(found)
    assert all(_form(conic, p.coords) == 0 for p in found)
    return found


def test_conic_point_search_matches_oracle():
    rng = random.Random(67)
    searched = []
    while len(searched) < 60:
        ints = [rng.randint(-6, 6) for _ in range(6)]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)]
        for coeffs in (ints, fracs):
            if any(coeffs) and is_irreducible(Conic(*coeffs)):
                searched.append(_search_matches_oracle(Conic(*coeffs)))
    for _ in range(40):
        searched.append(_search_matches_oracle(random_projective_map(rng).conic(SMOOTH_CONIC)))
    # both kinds occur: conics with and without a point on the grid
    assert any(searched) and not all(searched)


def test_conic_point_search_base_points_at_infinity():
    # x*z = y^2 through (1:0:0), where the tangent z = 0 holds every (1:t:0):
    # those chords give nothing new, and (x:y:1) gives (y^2:y:1)
    assert _search_matches_oracle(SMOOTH_CONIC) == (
        Point(1, 0, 0),
        Point(100, -10, 1),
        Point(81, -9, 1),
        Point(64, -8, 1),
        Point(49, -7, 1),
        Point(36, -6, 1),
    )
    # x*y + y^2 = z^2 through (1:0:0); x^2 + x*y = z^2 through (0:1:0);
    # -15x^2 + 2xy + y^2 + xz + z^2 = 0 meets z = 0 at (1:-5:0) and (1:3:0)
    for conic, base in (
        (Conic(0, 1, 0, 1, 0, -1), Point(1, 0, 0)),
        (Conic(1, 1, 0, 0, 0, -1), Point(0, 1, 0)),
        (Conic(-15, 2, 1, 1, 0, 1), Point(1, -5, 0)),
    ):
        found = _search_matches_oracle(conic)
        assert found[0] == base and len(found) == 6


def test_conic_point_search_without_a_grid_point():
    # x^2 + y^2 = 3z^2 has no rational point at all
    assert _search_matches_oracle(Conic(1, 0, 0, 1, 0, -3)) == ()
    # this one goes through (5:0:2) and (3:-4:0), neither of them on the grid
    conic = Conic(
        1, Fraction(-65, 4), Fraction(-11, 4), Fraction(-51, 4), Fraction(269, 16), Fraction(5, 8)
    )
    assert incident(Point(5, 0, 2), conic) and incident(Point(3, -4, 0), conic)
    assert _search_matches_oracle(conic) == ()


def test_no_conic_all_but_one():
    rng = random.Random(61)
    for _ in range(30):
        pts = random_structured_points(rng, rng.randint(2, 9))
        level = finite_level(pts)
        assert no_conic_all_but_one(level) == (max_on_curve(pts, 2) < len(pts) - 1)
    with pytest.raises(ValueError):
        no_conic_all_but_one(LevelSet(HALF, True, (Line(1, 0, 0),), ()))
    # six points: all but one always fit on a conic
    assert not no_conic_all_but_one(finite_level(random_structured_points(rng, 6)))


def test_witness_contains_points_reporting():
    level = finite_level([Point(1, 0, 0), Point(0, 1, 0)])
    verdict = conic_cover_check(level)
    assert witness_contains_points(verdict, level.isolated_points) is True
    not_cov = conic_cover_check(
        LevelSet(HALF, True, (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1)), ())
    )
    assert witness_contains_points(not_cov, level.isolated_points) is None
