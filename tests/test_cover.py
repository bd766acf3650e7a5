import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecurrents import cover, linalg
from planecurrents.cover import (
    Covered,
    NotCoverable,
    UncoverableCurve,
    UncoveredPoints,
    _minimal_obstruction,
    beta_of,
    conic_cover_check,
    evaluate_cover,
    find_heavy_points,
    line_cover_check,
    verify_verdict,
)
from planecurrents.currents import DivisorCurrent, LevelSet
from planecurrents.errors import AlphaOutOfRange, IrrationalIntersection, NonpositiveThreshold
from planecurrents.serialize import MAX_POINTS, parse_points_file
from planecurrents.projective import (
    Conic,
    Line,
    Point,
    _rows_of,
    incident,
    max_on_curve,
)

import corpus
from oracles import (
    _join,
    _veronese,
    combine,
    coverable_oracle,
    level_set_oracle,
    mass_oracle,
    minimal_obstruction_oracle,
    obstruction_oracle,
    omission_oracle,
    random_point,
    random_points,
    random_projective_map,
    random_structured_points,
    random_unit_current,
    random_wide_points,
    reference_conic_space,
    reference_nullspace,
    reference_rank,
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


def _line_pair(a, b) -> Conic:
    """The product of two line forms as a conic."""
    (a0, a1, a2), (b0, b1, b2) = a.coeffs, b.coeffs
    return Conic(
        a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0, a1 * b1, a1 * b2 + a2 * b1, a2 * b2
    )


def _expected_witness(forced, rest, budget):
    """The canonical witness for the oracle's rest: the forced curves, then
    the line through the first two points of the rest (or through its one
    point and the first of (1:0:0), (0:1:0) off it), or the first conic of
    the reference conic space."""
    if len(rest) >= 2:
        line = _join(rest[0], rest[1])
    elif rest:
        line = _join(rest[0], next(e for e in (Point(1, 0, 0), Point(0, 1, 0)) if e != rest[0]))
    else:
        line = Line(0, 0, 1)
    if budget == 1:
        return forced[0] if forced else line
    if len(forced) == 2:
        return _line_pair(*forced)
    if forced:
        return forced[0] if isinstance(forced[0], Conic) else _line_pair(forced[0], line)
    return reference_conic_space(rest)[0]


def _matches_omission_oracle(forced, points, budget):
    """The cover verdict agrees with `omission_oracle`: the same omission
    and the canonical witness of its rest, or an obstruction when it has
    none. Returns the verdict."""
    level = LevelSet(HALF, True, forced, points)
    verdict = (line_cover_check if budget == 1 else conic_cover_check)(level)
    assert verify_verdict(level, verdict, budget)
    expected = omission_oracle(level.component_curves, points, budget)
    if expected is None:
        assert isinstance(verdict, NotCoverable)
        assert isinstance(verdict.obstruction, UncoveredPoints)
    else:
        omitted, rest = expected
        assert isinstance(verdict, Covered)
        assert verdict.omitted == omitted
        assert verdict.witness == _expected_witness(level.component_curves, rest, budget)
    return verdict


def test_omission_every_point_a_coloop():
    # six points on no conic: each five of them lie on one, so every point
    # is a coloop and the first is omitted
    six = [Point(*c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))]
    assert reference_rank([_veronese(p.coords) for p in six]) == 6
    verdict = _matches_omission_oracle((), six, 2)
    assert verdict.omitted == min(six)
    # three points off one line, at degree 1
    three = [Point(2, 1, 1), Point(0, 1, 3), Point(1, -1, 1)]
    assert reference_rank([p.coords for p in three]) == 3
    verdict = _matches_omission_oracle((), three, 1)
    assert verdict.omitted == min(three)


def test_omission_single_coloop_not_first():
    on_conic = [Point(t * t, t, 1) for t in (-3, -1, 1, 2, 3, 4)]
    stray = Point(1, 5, 1)
    pts = on_conic + [stray]
    assert sorted(pts).index(stray) > 0
    assert _matches_omission_oracle((), pts, 2).omitted == stray
    # the same at degree 1: four collinear points and one off their line
    on_line = [Point(1, t, 1) for t in (-2, 0, 3, 7)]
    stray = Point(1, 1, 2)
    assert sorted(on_line + [stray]).index(stray) > 0
    assert _matches_omission_oracle((), on_line + [stray], 1).omitted == stray


def test_omission_no_coloop():
    on_conic = [Point(t * t, t, 1) for t in (-3, -1, 1, 2, 3, 4)]
    strays = [Point(1, 5, 1), Point(2, 1, 7)]
    verdict = _matches_omission_oracle((), on_conic + strays, 2)
    # both strays and five of the six conic points, the first one pruned
    assert verdict == NotCoverable(UncoveredPoints(sorted(on_conic + strays)[1:]))
    _assert_minimal((), verdict, 2)


def test_omission_at_the_point_cap(tmp_path):
    # nine points on y = 0 and three off it, not on one line: each of the
    # three is a coloop, and the first of them is omitted
    on_line = [Point(t, 0, 1) for t in range(-4, 5)]
    off = [Point(3, 1, 1), Point(1, 2, 1), Point(-2, 5, 1)]
    assert len(on_line + off) == MAX_POINTS
    verdict = _matches_omission_oracle((), on_line + off, 2)
    assert verdict.omitted == min(off)
    # eleven on a conic and one off it: one coloop; two off it: none
    conic = [Point(t * t, t, 1) for t in range(-5, 6)]
    assert _matches_omission_oracle((), conic + [Point(1, 5, 1)], 2).omitted == Point(1, 5, 1)
    two_off = conic[1:] + [Point(1, 5, 1), Point(2, 1, 7)]
    assert isinstance(_matches_omission_oracle((), two_off, 2), NotCoverable)
    rng = random.Random(71)
    for _ in range(20):
        pts = random_structured_points(rng, MAX_POINTS)
        for budget in (1, 2):
            _matches_omission_oracle((), pts, budget)
    for kind in ("collinear", "concurrent", "rescaled"):
        for _ in range(10):
            pts = set(random_wide_points(rng, MAX_POINTS, kind))
            for budget in (1, 2):
                _matches_omission_oracle((), pts, budget)
    # the point files of the command corpus, at 1 and at 64 digits: an
    # obstruction is the canonical pruning, and without its first point it
    # does not verify
    docs = corpus.documents(tmp_path)
    for name in corpus.POINT_FILES:
        pts = parse_points_file(json.loads(Path(docs[name]).read_text()))
        for budget in (1, 2):
            verdict = _matches_omission_oracle((), pts, budget)
            if isinstance(verdict, NotCoverable):
                assert verdict == NotCoverable(UncoveredPoints(minimal_obstruction_oracle((), pts, budget)))
                dropped = NotCoverable(UncoveredPoints(verdict.obstruction.points[1:]))
                assert not verify_verdict(finite_level(pts), dropped, budget)


def test_omission_with_a_forced_line():
    forced = (Line(0, 0, 1),)
    collinear = [Point(t, 1, 1) for t in (-1, 0, 2, 5)]
    assert _matches_omission_oracle(forced, collinear, 2).omitted is None
    stray = Point(1, 3, 1)
    assert _matches_omission_oracle(forced, collinear + [stray], 2).omitted == stray
    three = [Point(1, 0, 1), Point(0, 1, 1), Point(1, 1, 1)]
    assert _matches_omission_oracle(forced, three, 2).omitted == min(three)
    assert isinstance(_matches_omission_oracle(forced, three + [Point(2, 3, 1)], 2), NotCoverable)
    rng = random.Random(73)
    for _ in range(40):
        pts = [p for p in random_structured_points(rng, rng.randint(0, 10)) if p.coords[2] != 0]
        _matches_omission_oracle(forced, pts, 2)


def test_omission_with_no_degree_left():
    stray = [Point(1, 1, 0), Point(1, 2, 0), Point(1, 3, 0)]
    two_lines = (Line(1, 0, 0), Line(0, 1, 0))
    stray_off_lines = [Point(1, 1, 1), Point(1, 2, 1), Point(2, 3, 1)]
    for forced, budget, pts in (
        ((SMOOTH_CONIC,), 2, stray),
        (two_lines, 2, stray_off_lines),
        ((Line(0, 0, 1),), 1, stray_off_lines),
    ):
        for k in range(len(pts) + 1):
            verdict = _matches_omission_oracle(forced, pts[:k], budget)
            assert isinstance(verdict, Covered) == (k <= 1)
            if k == 1:
                assert verdict.omitted == pts[0]


def _assert_minimal(forced, verdict, budget):
    obs = verdict.obstruction.points
    assert omission_oracle(forced, obs, budget) is None
    if len(obs) > 2:
        for p in obs:
            assert omission_oracle(forced, [q for q in obs if q != p], budget) is not None


def test_obstructions_are_minimal():
    rng = random.Random(79)
    sets = [random_structured_points(rng, rng.randint(2, MAX_POINTS)) for _ in range(60)]
    for kind in ("collinear", "concurrent", "rescaled"):
        sets += [set(random_wide_points(rng, rng.randint(9, MAX_POINTS), kind)) for _ in range(15)]
    seen = 0
    for pts in sets:
        level = finite_level(pts)
        for budget, check in ((1, line_cover_check), (2, conic_cover_check)):
            verdict = check(level)
            if isinstance(verdict, NotCoverable):
                _assert_minimal((), verdict, budget)
                seen += len(verdict.obstruction.points) > 2
    assert seen >= 10


def test_obstructions_are_the_canonical_pruning():
    # not just some minimal obstruction: the one pruning in canonical order
    # leaves, which at degree 0 is the last two points
    strays = [Point(1, 1, 0), Point(1, 2, 0), Point(1, 3, 0)]
    no_rational_point = Conic(1, 0, 0, 1, 0, -3)  # x^2 + y^2 = 3z^2
    level = LevelSet(HALF, True, (no_rational_point,), strays)
    assert minimal_obstruction_oracle((no_rational_point,), strays, 2) == strays[1:]
    assert conic_cover_check(level) == NotCoverable(UncoveredPoints(strays[1:]))
    rng = random.Random(83)
    draws = [
        lambda n: random_points(rng, n),
        lambda n: random_structured_points(rng, n),
        *(lambda n, kind=kind: random_wide_points(rng, n, kind) for kind in ("collinear", "concurrent", "rescaled")),
    ]
    forced_sets = (
        ((), (1, 2)),
        ((Line(0, 0, 1),), (1, 2)),
        ((SMOOTH_CONIC,), (2,)),
        ((Line(1, 0, 0), Line(0, 1, 0)), (2,)),
    )
    seen = Counter()
    for forced, budgets in forced_sets:
        for draw in draws:
            for n in (6, 8, 10, MAX_POINTS, rng.randint(6, MAX_POINTS)):
                pts = [p for p in set(draw(n)) if not any(incident(p, c) for c in forced)]
                level = LevelSet(HALF, True, forced, pts)
                for budget in budgets:
                    verdict = (line_cover_check if budget == 1 else conic_cover_check)(level)
                    if omission_oracle(forced, pts, budget) is None:
                        expected = minimal_obstruction_oracle(forced, pts, budget)
                        assert verdict == NotCoverable(UncoveredPoints(expected))
                        seen[budget - sum(c.degree for c in forced)] += 1
    assert min(seen[0], seen[1], seen[2]) >= 10, seen


def _spans_the_reference_dependencies(vectors, columns, kept):
    """The vectors are primitive integer vectors, zero off the kept columns
    (points), and a basis of the reference nullspace of the kept columns."""
    rows = [[row[j] for j in kept] for row in columns]
    expected = reference_nullspace(rows, len(kept))
    on_kept = [[vec[j] for j in kept] for vec in vectors]
    assert all(type(x) is int for vec in vectors for x in vec)
    assert all(gcd(*vec) == 1 for vec in vectors)
    assert all(not vec[j] for vec in vectors for j in range(len(vec)) if j not in kept)
    assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows for vec in on_kept)
    assert len(vectors) == len(expected) == reference_rank(on_kept)


def test_pruning_keeps_the_dependencies_exact(monkeypatch):
    # after every step of the pruning, the vectors held span exactly the
    # dependencies among the points kept, and a drop is kept iff they
    # still cover every point kept. With the points from the last one back
    # the pivots are visited last and a step rarely combines vectors, so
    # the same vectors are also pruned in the reverse column order, where
    # the pivots come first
    steps = []

    def recording(deps, i):
        rest = without(deps, i)
        steps.append((deps, i, rest))
        return rest

    without = cover._without
    monkeypatch.setattr(cover, "_without", recording)
    rng = random.Random(97)
    seen = Counter()
    for _ in range(150):
        points = sorted(set(random_structured_points(rng, rng.randint(7, MAX_POINTS))))
        n = len(points)
        for degree in (1, 2):
            columns = list(zip(*_rows_of([p.ints for p in points[::-1]], degree)[0]))
            basis, deps = linalg.kernel(columns, n)
            if len(basis) < len(columns) or not all(any(vec[j] for vec in deps) for j in range(n)):
                continue
            reversed_order = ([row[::-1] for row in columns], [vec[::-1] for vec in deps])
            for columns, deps in ((columns, deps), reversed_order):
                steps.clear()
                result = _minimal_obstruction(deps, n)
                held, kept = deps, list(range(n))
                _spans_the_reference_dependencies(held, columns, kept)
                held_counts = [len(held)]
                for before, i, rest in steps:
                    assert before is held
                    trial = [j for j in kept if j != i]
                    _spans_the_reference_dependencies(rest, columns, trial)
                    seen["combined"] += sum(bool(vec[i]) for vec in before) > 1
                    if all(any(vec[j] for vec in rest) for j in trial):
                        held, kept = rest, trial
                    else:
                        seen["refused"] += 1
                    held_counts.append(len(held))
                # the steps end at the first column where one dependency is
                # held, every later drop being refused, or after all n
                assert result == kept and len(steps) == (held_counts.index(1) if 1 in held_counts else n)
                seen["sets"] += 1
    assert min(seen.values()) >= 30, seen


def test_verify_verdict_rechecks_point_obstructions():
    conic = [Point(t * t, t, 1) for t in (-3, -1, 1, 2, 3)]
    strays = [Point(1, 5, 1), Point(2, 1, 7)]
    level = finite_level(conic + strays)
    # every single omission leaves six points on no conic
    assert verify_verdict(level, NotCoverable(UncoveredPoints(conic + strays)))
    # false certificates: omitting the one stray fits, and so does any five
    assert not verify_verdict(level, NotCoverable(UncoveredPoints(conic + strays[:1])))
    assert not verify_verdict(level, NotCoverable(UncoveredPoints(conic[:4] + strays)))
    assert not verify_verdict(level, NotCoverable(UncoveredPoints(strays[:1])))
    # no degree left: any two points are an obstruction, one is not
    forced = LevelSet(HALF, True, (SMOOTH_CONIC,), tuple(strays))
    assert verify_verdict(forced, NotCoverable(UncoveredPoints(strays)))
    assert not verify_verdict(forced, NotCoverable(UncoveredPoints(strays[:1])))
    # degree 1: four points with no three collinear, but not three points
    assert verify_verdict(level, NotCoverable(UncoveredPoints(conic[:3] + strays[1:])), budget=1)
    assert not verify_verdict(level, NotCoverable(UncoveredPoints(conic[:3])), budget=1)


def _first_in_order(rng, head, count):
    """`head`, points of the form (1 : b : c) with b <= -4, then random
    points (1 : b : c) with b >= -3 up to `count`, so that `head` comes
    first in canonical order."""
    pts = list(head)
    while len(pts) < count:
        p = Point(1, Fraction(rng.randint(-3, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        if p not in pts:
            pts.append(p)
    return pts


def _with_coloop(rng, degree, at):
    """A point set whose rows have full rank and exactly one coloop, a point
    off a line (degree 1) or off x*z = y^2 (degree 2): the first, a middle
    or the last row of the greedy basis taken in canonical order."""
    ncols = 3 if degree == 1 else 6
    on = (sorted(Point(1, t, 2 * t + 1) for t in rng.sample(range(-9, 10), rng.randint(ncols, ncols + 3)))
          if degree == 1 else
          sorted(Point(1, t, t * t) for t in rng.sample(range(-9, 10), rng.randint(ncols, ncols + 3))))
    # the coloop sits just before on[0], between on[k - 1] and on[k], or after on[-1]
    k = {"first": 0, "middle": rng.randint(1, ncols - 2), "last": len(on)}[at]
    low = on[k - 1].coords[1] if k else Fraction(-20)
    high = on[k].coords[1] if k < len(on) else Fraction(20)
    while True:
        b = low + (high - low) * Fraction(rng.randint(1, 9), 10)
        p = Point(1, b, rng.randint(-40, 40))
        if (p.coords[2] != 2 * b + 1) if degree == 1 else (p.coords[2] != b * b):
            return on[:k] + [p] + on[k:]


def _greedy_basis(rows) -> list[int]:
    """Indices of the greedy basis of the rows taken in order, by reference rank."""
    basis: list[int] = []
    for i, row in enumerate(rows):
        if reference_rank([rows[j] for j in basis] + [row]) > len(basis):
            basis.append(i)
    return basis


def _dependent_between(rng, degree, scale):
    """Points (1 : b : c), so in canonical order by b: up to two random
    points (degree 2 only), then points of one line, then random points.
    The third collinear row (degree 1) or the fourth (degree 2) is in the
    span of the rows before it, and basis rows follow it, and rows follow
    the last basis row. At scale 10**30 the c have up to 64 digits."""
    def bs(low, high, count):
        return [k * scale + rng.randrange(scale) for k in rng.sample(range(low, high), count)]

    wide = 10**4 * scale**2 - 1
    m, q = (rng.randint(-100 * scale, 100 * scale) for _ in range(2))
    pts = [Point(1, b, rng.randint(-wide, wide)) for b in bs(-30, -20, rng.randint(0, 2) if degree == 2 else 0)]
    pts += [Point(1, b, m * b + q) for b in bs(-20, -10, degree + 2)]
    pts += [Point(1, b, rng.randint(-wide, wide)) for b in bs(-10, 10, rng.randint(5, 7))]
    return pts


def test_verify_verdict_matches_the_rank_oracle():
    # the whole set and every omission against `obstruction_oracle`, on the
    # cover checks' own obstructions and tampered ones
    rng = random.Random(907)
    cases = []  # (level, points of the claimed obstruction, budget)

    def claims(level, budget):
        pts = list(level.isolated_points)
        verdict = (line_cover_check if budget == 1 else conic_cover_check)(level)
        claimed = [pts, pts[1:], rng.sample(pts, rng.randint(0, len(pts))), rng.sample(pts, rng.randint(0, len(pts)))]
        if isinstance(verdict, NotCoverable) and isinstance(verdict.obstruction, UncoveredPoints):
            obs = list(verdict.obstruction.points)
            claimed.append(obs)
            claimed += [obs[:i] + obs[i + 1:] for i in range(len(obs))]
            claimed += [obs + [p] for p in rng.sample(pts, min(2, len(pts))) if p not in obs]
            claimed.append(obs + [obs[-1]])  # a point listed twice
            claimed.append(obs + [random_point(rng, 40)])  # most likely off the level set
        cases.extend((level, c, budget) for c in claimed)

    for _ in range(25):
        n = rng.randint(7, MAX_POINTS)
        for pts in (random_points(rng, n), random_structured_points(rng, n)):
            level = finite_level(set(pts))
            claims(level, 1)
            claims(level, 2)
    # a forced line leaves degree 1 of budget 2; a forced conic leaves 0
    for forced in ((Line(0, 0, 1),), (SMOOTH_CONIC,)):
        for _ in range(10):
            pts = [p for p in set(random_structured_points(rng, rng.randint(7, MAX_POINTS)))
                   if not any(incident(p, c) for c in forced)]
            claims(LevelSet(HALF, True, forced, pts), 2)
    # dependent first rows: three collinear points first at degree 1, six
    # on a conic first at degree 2, so that the basis skips rows
    for _ in range(15):
        ts = rng.sample(range(-20, -3), 6)
        collinear = [Point(1, -9, c) for c in rng.sample(range(-9, 10), 3)]
        on_conic = [Point(1, t, t * t) for t in ts]
        for head, budget in ((collinear, 1), (on_conic, 2)):
            level = finite_level(_first_in_order(rng, head, rng.randint(len(head) + 2, MAX_POINTS)))
            assert list(level.isolated_points[: len(head)]) == sorted(head)
            claims(level, budget)
    # one coloop, the first, a middle or the last basis row: omitting it fits
    for at in ("first", "middle", "last"):
        for degree in (1, 2):
            for _ in range(6):
                level = finite_level(_with_coloop(rng, degree, at))
                rows = [_veronese(p.coords) if degree == 2 else p.coords for p in level.isolated_points]
                basis = _greedy_basis(rows)
                coloop_rows = [i for i in range(len(rows)) if reference_rank(rows[:i] + rows[i + 1:]) < len(basis)]
                assert len(coloop_rows) == 1 and coloop_rows[0] in basis
                position = basis.index(coloop_rows[0])
                assert {"first": position == 0, "middle": 0 < position < len(basis) - 1,
                        "last": position == len(basis) - 1}[at]
                claims(level, degree)
    # a dependent row between basis rows and rows after the last one, at
    # small and at 64-digit coordinates: an omission's continuation reads
    # rows the first pass left out of the basis and rows it never read
    for scale in (1, 10**30):
        for degree in (1, 2):
            for _ in range(6):
                level = finite_level(_dependent_between(rng, degree, scale))
                rows = [_veronese(p.coords) if degree == 2 else p.coords for p in level.isolated_points]
                basis = _greedy_basis(rows)
                assert len(basis) == 3 * degree and basis[-1] < len(rows) - 1
                assert any(i not in basis for i in range(basis[-1])), basis
                claims(level, degree)
    results = Counter()
    for level, claimed, budget in cases:
        degree_left = budget - level.total_component_degree
        expected = obstruction_oracle(level.isolated_points, claimed, degree_left)
        assert verify_verdict(level, NotCoverable(UncoveredPoints(claimed)), budget) == expected, (
            level, claimed, budget)
        results[expected] += 1
    assert results[True] >= 100 and results[False] >= 100, results


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
    # the first curve in canonical order past the budget: the third line
    assert verdict.obstruction == UncoverableCurve(level.component_curves[2])
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
        moved_level = pmap.level_set(level)
        moved_verdict = conic_cover_check(moved_level)
        assert isinstance(moved_verdict, type(verdict))
        if isinstance(verdict, Covered):
            # a transformed witness of the original is a witness of the image
            transformed = Covered(
                pmap.curve(verdict.witness),
                None if verdict.omitted is None else pmap.point(verdict.omitted),
            )
            assert verify_verdict(moved_level, transformed)


def test_threshold_scaling_equivalence():
    rng = random.Random(59)
    for _ in range(30):
        t = random_unit_current(rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        threshold = Fraction(rng.randint(1, 4), rng.randint(5, 15))
        scaled_level = combine((c, t)).level_set(c * threshold, strict=True)
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
    outcome = evaluate_cover(quad, HALF)
    assert outcome.reason is None and outcome.beta == Fraction(1, 3)
    assert outcome.heavy_points == heavy and outcome.heavy_curves == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.reason = "edited"

    def rejected(current, alpha, reason):
        outcome = evaluate_cover(current, alpha)
        assert outcome.reason == reason
        assert outcome.level is None and outcome.verdict is None

    rejected(quad, Fraction(2, 5), "alpha must exceed 2/5, got 2/5")
    triangle = DivisorCurrent([(Fraction(1, 3), l) for l in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1))])
    rejected(triangle, HALF, "needs a component of weight >= 1/2 or four points of density >= 1/2, got 3")
    rejected(combine((HALF, quad)), HALF, "current mass is 1/2, expected exactly 1")


# each builds a record from fresh, equal fields
RECORDS = {
    "Covered": lambda: Covered(Conic(1, 0, 0, 1, 0, -1), Point(0, 0, 1)),
    "UncoverableCurve": lambda: UncoverableCurve(Line(0, 0, 1)),
    "UncoveredPoints": lambda: UncoveredPoints((Point(1, 0, 0), Point(0, 1, 0))),
    "NotCoverable": lambda: NotCoverable(UncoverableCurve(Line(0, 0, 1))),
    "LevelSet": lambda: LevelSet(1, 1, (Line(0, 0, 1),), (Point(1, 1, 1),)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(twin, field))
    if name == "UncoveredPoints":
        pts = (Point(1, 2, 3), Point(0, 0, 1), Point(1, 0, 0), Point(0, 1, 0))
        assert UncoveredPoints(p for p in pts) == UncoveredPoints(tuple(sorted(pts)))
    if name == "LevelSet":
        assert record.threshold == 1 and type(record.threshold) is Fraction and record.strict is True
        with pytest.raises(ValueError, match="^isolated points must be pairwise distinct$"):
            LevelSet(HALF, True, (), (Point(1, 1, 1), Point(2, 2, 2)))
        with pytest.raises(ValueError, match=r"^isolated point .* lies on a component curve$"):
            LevelSet(HALF, True, (Line(0, 0, 1),), (Point(1, -1, 0),))


NO_POINT_CONIC = Conic(1, 0, 0, 1, 0, -3)  # x^2 + y^2 = 3z^2: no rational point


def test_heavy_conic_without_rational_points_is_covered():
    current = DivisorCurrent([(HALF, NO_POINT_CONIC)])
    alpha = Fraction(9, 20)
    assert find_heavy_points(current, alpha) == ()
    outcome = evaluate_cover(current, alpha)
    level, verdict = outcome.level, outcome.verdict
    assert outcome.heavy_points == () and outcome.heavy_curves == ((HALF, NO_POINT_CONIC),)
    assert level.component_curves == (NO_POINT_CONIC,) and level.isolated_points == ()
    assert verdict == Covered(NO_POINT_CONIC)
    assert verify_verdict(level, verdict)


def test_component_weight_equal_to_alpha_is_heavy():
    current = DivisorCurrent([(HALF, NO_POINT_CONIC)])
    outcome = evaluate_cover(current, HALF)
    verdict = outcome.verdict
    assert verdict == Covered(NO_POINT_CONIC) and verify_verdict(outcome.level, verdict)
    # just above the weight, no component is heavy and no point is either
    assert evaluate_cover(current, Fraction(11, 20)).reason.endswith("got 0")
    # the same with a line of weight exactly alpha and one heavy point
    lines = DivisorCurrent(
        [(HALF, Line(0, 0, 1)), (Fraction(1, 4), Line(1, 0, 0)), (Fraction(1, 4), Line(0, 1, 0))]
    )
    outcome = evaluate_cover(lines, HALF)
    assert outcome.reason is None and outcome.heavy_curves == ((HALF, Line(0, 0, 1)),)
    assert outcome.heavy_points == (Point(0, 0, 1),)


def test_heavy_line_with_three_heavy_points():
    # z = 0 has weight alpha; (0:0:1) is an isolated heavy point off it
    current = DivisorCurrent(
        [(HALF, Line(0, 0, 1)), (Fraction(1, 4), Line(1, 0, 0)), (Fraction(1, 4), Line(0, 1, 0))]
    )
    three = (Point(0, 0, 1), Point(1, 0, 0), Point(0, 1, 0))
    assert current.level_set(HALF).isolated_points == (Point(0, 0, 1),)
    assert [current.lelong_number(p) for p in three] == [HALF, Fraction(3, 4), Fraction(3, 4)]
    outcome = evaluate_cover(current, HALF)
    # the two points on the heavy line are not listed
    assert outcome.heavy_points == (Point(0, 0, 1),)
    verdict = outcome.verdict
    assert isinstance(verdict, Covered) and verify_verdict(outcome.level, verdict)
    # below alpha the line is no longer heavy, and three points are too few
    lighter = DivisorCurrent(
        [(Fraction(2, 5), Line(0, 0, 1)), (Fraction(3, 10), Line(1, 0, 0)), (Fraction(3, 10), Line(0, 1, 0))]
    )
    assert all(lighter.lelong_number(p) >= HALF for p in three)
    outcome = evaluate_cover(lighter, HALF)
    assert outcome.heavy_points == tuple(sorted(three)) and outcome.reason.endswith("got 3")


def test_conic_witness_is_the_reference_kernel_vector():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(0, 5)
        pts = random_points(rng, n, bound=rng.choice([3, 40])) if n else []
        verdict = conic_cover_check(finite_level(pts))
        assert verdict == Covered(reference_conic_space(pts)[0])


def test_witness_is_the_reference_witness_of_the_rest():
    # the witness is fitted to the basis points of the rest only; it must
    # be the reference conic of the whole rest, or the oracle's join of
    # two rest points, also when the rest has rank below 5
    rng = random.Random(89)
    sets = [
        [Point(t, 1, 1) for t in range(-2, 2)] + [Point(1, 5, 1), Point(3, -2, 1)],
        [Point(t, 0, 1) for t in range(-3, 4)] + [Point(1, 2, 1)],
        [Point(t * t, t, 1) for t in range(-3, 4)] + [Point(1, 5, 1)],
        [Point(1, t, 2 * t + 1) for t in range(-4, 5)],
    ]
    for _ in range(60):
        n = rng.randint(6, MAX_POINTS)
        sets.append(random_structured_points(rng, n))
        sets.append(random_wide_points(rng, n, rng.choice(["collinear", "concurrent", "rescaled"])))
    forced_line = (Line(0, 0, 1),)
    seen = Counter()
    for pts in sets:
        for forced, budget in (((), 1), ((), 2), (forced_line, 2)):
            points = sorted({p for p in pts if not any(incident(p, c) for c in forced)})
            verdict = (line_cover_check if budget == 1 else conic_cover_check)(LevelSet(HALF, True, forced, points))
            if not isinstance(verdict, Covered) or len(points) < 6:
                continue
            rest = [p for p in points if p != verdict.omitted]
            if forced:
                expected = _line_pair(forced[0], _join(rest[0], rest[1]))
            elif budget == 1:
                expected = _join(rest[0], rest[1])
            else:
                expected = reference_conic_space(rest)[0]
                if reference_rank([_veronese(p.coords) for p in rest]) < 5:
                    seen["rank below 5"] += 1
            assert verdict.witness == expected
            seen[forced, budget, verdict.omitted is None] += 1
    assert min(seen.values()) >= 5 and len(seen) == 7, seen


def test_check_cover_instance_on_quadrilateral():
    quad = DivisorCurrent(
        [(Fraction(1, 4), l) for l in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1))]
    )
    outcome = evaluate_cover(quad, HALF)
    level, verdict = outcome.level, outcome.verdict
    assert isinstance(verdict, Covered) and verdict.omitted is not None
    assert level == quad.level_set(outcome.beta, strict=True)
    assert conic_cover_check(level) == verdict
    assert verify_verdict(level, verdict)


@pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(1, 5), 0, Fraction(-1, 2)])
def test_evaluate_cover_rejects_alpha_at_most_two_fifths(alpha):
    quad = DivisorCurrent(
        [(Fraction(1, 4), l) for l in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1))]
    )
    outcome = evaluate_cover(quad, alpha)
    assert outcome.reason == f"alpha must exceed 2/5, got {alpha}"
    assert outcome.heavy_points == () and outcome.level is None and outcome.verdict is None
    # the mass is checked first
    assert evaluate_cover(combine((HALF, quad)), alpha).reason == "current mass is 1/2, expected exactly 1"


def test_mass_and_alpha_are_checked_before_heavy_points():
    # the line meets the conic in irrational points, so the incidence map
    # raises; no heavy point is looked for when the mass or alpha fails
    light = DivisorCurrent([(Fraction(1, 4), Line(1, 0, 0)), (Fraction(1, 4), NO_POINT_CONIC)])
    for alpha in (Fraction(2, 5), HALF):
        outcome = evaluate_cover(light, alpha)
        assert outcome.reason == "current mass is 3/4, expected exactly 1" and outcome.heavy_points == ()
    unit = DivisorCurrent([(Fraction(1, 3), Line(1, 0, 0)), (Fraction(1, 3), NO_POINT_CONIC)])
    outcome = evaluate_cover(unit, Fraction(2, 5))
    assert outcome.reason == "alpha must exceed 2/5, got 2/5" and outcome.heavy_points == ()
    with pytest.raises(IrrationalIntersection):
        evaluate_cover(unit, HALF)


def test_find_heavy_points_on_full_line():
    heavy_line = DivisorCurrent(
        [
            (Fraction(3, 5), Line(0, 0, 1)),
            (Fraction(1, 5), Line(1, 0, 0)),
            (Fraction(1, 5), Line(0, 1, 0)),
        ]
    )
    alpha = Fraction(11, 20)
    level = heavy_line.level_set(alpha, strict=False)
    assert level.component_curves == (Line(0, 0, 1),)
    # (1:0:0) and (0:1:0), of density 4/5, lie on the heavy line and are
    # not listed; (0:0:1), off it, has density 2/5
    heavy = find_heavy_points(heavy_line, alpha)
    assert heavy == level.isolated_points == ()
    outcome = evaluate_cover(heavy_line, alpha)
    assert outcome.reason is None and outcome.heavy_points == ()
    assert outcome.heavy_curves == ((Fraction(3, 5), Line(0, 0, 1)),)


def test_find_heavy_points_on_conic_component():
    t = DivisorCurrent(
        [
            (Fraction(9, 20), SMOOTH_CONIC),
            (Fraction(1, 20), Line(1, 0, 0)),
            (Fraction(1, 20), Line(0, 0, 1)),
        ]
    )
    alpha = Fraction(9, 20)
    level = t.level_set(alpha, strict=False)
    assert level.component_curves == (SMOOTH_CONIC,)
    heavy = find_heavy_points(t, alpha)
    assert heavy == level.isolated_points == ()
    outcome = evaluate_cover(t, alpha)
    assert outcome.reason is None and outcome.heavy_points == ()
    assert outcome.heavy_curves == ((alpha, SMOOTH_CONIC),)


ORACLE_ALPHAS = (Fraction(9, 20), HALF, Fraction(3, 5))


def test_find_heavy_points_matches_the_level_set_oracle():
    rng = random.Random(73)
    outcomes = Counter()
    for i in range(200):
        current = random_unit_current(rng)
        alpha = ORACLE_ALPHAS[i % 3]
        heavy = find_heavy_points(current, alpha)
        _, isolated = level_set_oracle(current, alpha, strict=False)
        assert heavy == isolated
        heavy_curve = any(w >= alpha for w, _ in current.components)
        holds = heavy_curve or len(isolated) >= 4
        # the densities behind the decision agree with the oracle's
        assert (evaluate_cover(current, alpha).reason is None) == holds
        outcomes[heavy_curve, len(isolated) >= 4] += 1
    # heavy curves, four or more points, and neither all occur
    assert outcomes[True, False] and outcomes[False, True] and outcomes[False, False]


# lines with coefficients in [-2, 2] often meet three or more at a point,
# and meet the conic x*z = y^2 at rational and at irrational points
_SMALL_LINES = st.tuples(*[st.integers(-2, 2)] * 3).filter(any).map(lambda v: Line(*v))
_THRESHOLDS = st.one_of(
    st.sampled_from([Fraction(9, 20), HALF, Fraction(3, 5), Fraction(2, 5), Fraction(1, 3)]),
    st.fractions(-1, 1, max_denominator=40),
)


@st.composite
def _currents(draw, mass=st.just(Fraction(1))):
    """A current of small lines and, sometimes, the conic x*z = y^2, with
    weights proportional to drawn integers that give it the drawn mass."""
    curves = draw(st.lists(_SMALL_LINES, min_size=1, max_size=7))
    if draw(st.booleans()):
        curves.append(SMOOTH_CONIC)
    raws = draw(st.lists(st.integers(1, 9), min_size=len(curves), max_size=len(curves)))
    m = draw(mass)
    total = sum(r * c.degree for r, c in zip(raws, curves))
    return DivisorCurrent([(Fraction(r) * m / total, c) for r, c in zip(raws, curves)])


@given(_currents(), _THRESHOLDS)
def test_find_heavy_points_is_the_level_set_points(current, alpha):
    try:
        expected = current.level_set(alpha).isolated_points
    except (IrrationalIntersection, NonpositiveThreshold) as exc:
        with pytest.raises(type(exc)):
            find_heavy_points(current, alpha)
        return
    assert find_heavy_points(current, alpha) == expected


@given(_currents(st.sampled_from([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(7, 6)])), st.data())
def test_evaluate_cover_decides_as_the_fraction_reference(current, data):
    # the weights and the mass are tested on integer numerators; the
    # reference tests them as Fractions. Alpha is often a weight, where
    # >= and > part; at alpha = 1, beta is 0 and the strict level set
    # there is every component curve and no point
    weights = st.sampled_from([w for w, _ in current.components])
    alpha = data.draw(st.one_of(_THRESHOLDS, weights).filter(lambda a: a <= 1))
    try:
        outcome = evaluate_cover(current, alpha)
    except IrrationalIntersection:
        return
    a, mass = Fraction(alpha), mass_oracle(current)
    heavy_curves = tuple((w, c) for w, c in current.components if w >= a)
    # heavy points are looked for only once the mass and alpha pass
    heavy = find_heavy_points(current, a) if mass == 1 and a > Fraction(2, 5) else ()
    if mass != 1:
        reason = f"current mass is {mass}, expected exactly 1"
    elif a <= Fraction(2, 5):
        reason = f"alpha must exceed 2/5, got {a}"
    elif len(heavy) < 4 and not heavy_curves:
        reason = f"needs a component of weight >= {a} or four points of density >= {a}, got {len(heavy)}"
    else:
        reason = None
    assert outcome.reason == reason
    assert outcome.heavy_curves == heavy_curves
    assert outcome.heavy_points == heavy
    assert (outcome.verdict is None) == (reason is not None)


def _digest_corpus(rng) -> list[list[Point]]:
    """Seeded 7-12 point sets for the digest below: generic sets, sets
    with 0-2 points off a planted conic or line pair moved by a random
    projective map, and the same kinds with coordinates of up to 64
    digits (on x*z = y^2 and x*y = 0 themselves)."""

    def big(digits):
        return rng.randint(-(10**digits) + 1, 10**digits - 1)

    def offs(on, count, on_curve, draw):
        extra: list[Point] = []
        while len(extra) < count:
            p = draw()
            if not on_curve(p.ints) and p not in on and p not in extra:
                extra.append(p)
        return extra

    def big_point():
        while True:
            coords = [big(64) for _ in range(3)]
            if any(coords):
                return Point(*coords)

    def conic_point(digits):
        s, t = big(digits), big(digits)
        return Point(s * s, s * t, t * t) if s or t else Point(1, 0, 0)

    def pair_point(digits, on_y):
        a, b = big(digits), big(digits)
        return (Point(a, 0, b) if on_y else Point(0, a, b)) if a or b else Point(1, 1, 0)

    on_conic = lambda v: v[0] * v[2] == v[1] * v[1]
    on_pair = lambda v: v[0] * v[1] == 0
    sets = []
    for n in range(7, MAX_POINTS + 1):
        sets.append(random_points(rng, n))
        sets.append(random_points(rng, n, bound=10**63))
        for off in (0, 1, 2):
            for on_curve, draw in ((on_conic, conic_point), (on_pair, pair_point)):
                for digits in (1, 31):
                    # a line pair holds 0, 1, 2 or half of its points on x = 0
                    split = rng.choice((0, 1, 2, (n - off) // 2))
                    on: list[Point] = []
                    while len(on) < n - off:
                        p = draw(digits) if draw is conic_point else draw(digits, len(on) >= split)
                        if p not in on:
                            on.append(p)
                    if digits == 1:
                        pts = on + offs(on, off, on_curve, lambda: random_point(rng))
                        pmap = random_projective_map(rng, bound=2)
                        sets.append([pmap.point(p) for p in pts])
                    else:
                        sets.append(on + offs(on, off, on_curve, big_point))
    return sets


# sha-256 of the reprs of max_on_curve at degrees 1 and 2, both cover
# verdicts and both verify_verdict results over `_digest_corpus`, recorded
# before the fraction-free pivot step went in: the kernel behind all six
# may change, none of them may
POINT_SET_DIGEST = "9173ddb89f4b14995a6733b5ea4d46f88ce210b7b1e38664b0249036ac9dea29"


def test_point_set_results_are_pinned():
    rng = random.Random(2401)
    lines = []
    for pts in _digest_corpus(rng):
        level = finite_level(pts)
        v1, v2 = line_cover_check(level), conic_cover_check(level)
        results = (max_on_curve(pts, 1), max_on_curve(pts, 2), v1, v2,
                   verify_verdict(level, v1, 1), verify_verdict(level, v2, 2))
        lines.append(repr(results))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == POINT_SET_DIGEST, (len(lines), digest)
