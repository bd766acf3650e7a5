"""Acceptance suite: one test per exit criterion, each printed with its
runtime so the whole contract is auditable in one pytest -s run. All
comparisons are exact rational equalities; the only tolerances are the
wall-clock budgets."""

import random
import time
from fractions import Fraction
from itertools import combinations, islice

import pytest

from planecurrents.cover import (
    Covered,
    NotCoverable,
    UncoverableCurve,
    conic_cover_check,
    evaluate_cover,
    find_heavy_points,
    verify_verdict,
)
from planecurrents.currents import DivisorCurrent, LevelSet
from planecurrents.gallery import build
from planecurrents.harness import GenSpec, generate
from planecurrents.projective import (
    conic_space,
    incident,
    line_through,
    max_on_curve,
    multiplicity,
)

from oracles import (
    blend_current,
    combine,
    coverable_oracle,
    m2_oracle,
    random_line,
    random_point,
    random_projective_map,
    random_structured_points,
    random_unit_current,
    rescaled_residual,
    weight_of,
)


class _budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.label}: {status} [{elapsed:.2f}s < {self.seconds:.0f}s]")
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        else:
            print(f"ACCEPTANCE {self.label}: FAIL [{elapsed:.2f}s]")
        return False


SEVEN_TABLE = {
    "q1": Fraction(83, 180),
    "q2": Fraction(84, 180),
    "q3": Fraction(83, 180),
    "p1": Fraction(68, 180),
    "p2": Fraction(67, 180),
    "p3": Fraction(67, 180),
    "p4": Fraction(67, 180),
    "p5": Fraction(67, 180),
    "p6": Fraction(74, 180),
}


def test_criterion_1_seven_line_density_table():
    with _budget("1 seven-line density table", 1.0):
        arr = build("seven-lines")
        assert arr.current.mass == 1
        for label, expected in SEVEN_TABLE.items():
            assert arr.current.lelong_number(arr.points[label]) == expected


def test_criterion_2_six_line_threshold_sharpness():
    with _budget("2 six-line threshold sharpness", 1.0):
        arr = build("six-lines")
        beta = Fraction(1, 3)
        strict = arr.current.level_set(beta, strict=True)
        expected = tuple(sorted(arr.points[f"q{i}"] for i in range(1, 5)))
        assert strict.component_curves == () and strict.isolated_points == expected
        verdict = evaluate_cover(arr.current, arr.alpha).verdict
        assert isinstance(verdict, Covered) and verdict.omitted is None

        wide = arr.current.level_set(beta, strict=False)
        assert len(wide.isolated_points) == 7
        assert max_on_curve(wide.isolated_points, 2) == 5
        assert isinstance(conic_cover_check(wide), NotCoverable)


def test_criterion_3_four_line_single_omission():
    with _budget("3 four-line single omission", 1.0):
        arr = build("four-lines")
        verdict = evaluate_cover(arr.current, arr.alpha).verdict
        assert isinstance(verdict, Covered) and verdict.omitted is not None
        assert verify_verdict(arr.current.level_set(Fraction(1, 3), True), verdict)
        # no conic covers all six: every five-point conic omits the sixth
        vertices = sorted(arr.points.values())
        for sub in combinations(vertices, 5):
            space = conic_space(sub)
            assert len(space) == 1
            rest = next(p for p in vertices if p not in sub)
            assert not incident(rest, space[0])


def test_criterion_4_three_line_failure_mode():
    with _budget("4 three-line failure mode", 1.0):
        arr = build("three-lines")
        heavy = find_heavy_points(arr.current, arr.alpha)
        assert len(heavy) == 3
        outcome = evaluate_cover(arr.current, arr.alpha)
        assert outcome.heavy_points == heavy and outcome.heavy_curves == ()
        assert outcome.reason is not None and outcome.verdict is None
        level = arr.current.level_set(Fraction(2, 9), strict=True)
        verdict = conic_cover_check(level)
        assert isinstance(verdict, NotCoverable)
        assert isinstance(verdict.obstruction, UncoverableCurve)
        assert verify_verdict(level, verdict)


def test_criterion_5_seven_line_max_on_conic():
    with _budget("5 seven-line max on conic", 5.0):
        arr = build("seven-lines")
        assert max_on_curve(tuple(arr.points.values()), 2) == 7


def test_criterion_6_randomized_covered_suite():
    with _budget("6 randomized covered suite (1000 valid)", 60.0):
        alphas = (Fraction(9, 20), Fraction(1, 2), Fraction(3, 5))
        checked = 0
        for n_lines in (4, 5, 6, 7):
            spec = GenSpec(
                n_lines=n_lines,
                coefficient_bound=5,
                weight_scheme="random",
                alphas=alphas,
                seed=1000 + n_lines,
            )
            valid_here = 0
            for item in islice(generate(spec), 1200):
                if item.tag != "ok":
                    continue
                level = item.current.level_set(item.outcome.beta, strict=True)
                verdict = conic_cover_check(level)
                assert isinstance(verdict, Covered), (
                    f"counterexample at n={n_lines}, index={item.index}: {verdict!r}"
                )
                valid_here += 1
                checked += 1
                if valid_here == 250:
                    break
            assert valid_here == 250, f"only {valid_here} valid instances at n={n_lines}"
        assert checked == 1000


def test_criterion_7_oracle_equivalence():
    with _budget("7 oracle equivalence", 30.0):
        rng = random.Random(7001)
        for _ in range(200):
            pts = random_structured_points(rng, rng.randint(0, 8))
            assert max_on_curve(pts, 2) == m2_oracle(pts)
        rng = random.Random(7002)
        for _ in range(100):
            pts = random_structured_points(rng, rng.randint(0, 10))
            level = LevelSet(Fraction(1, 2), True, (), tuple(pts))
            verdict = conic_cover_check(level)
            assert isinstance(verdict, Covered) == coverable_oracle(pts)


def test_criterion_8_invariance_suites():
    with _budget("8 invariance suites", 30.0):
        rng = random.Random(8001)
        for _ in range(100):
            t = random_unit_current(rng)
            pmap = random_projective_map(rng)
            moved = pmap.current(t)
            p = random_point(rng)
            assert moved.lelong_number(pmap.point(p)) == t.lelong_number(p)
            pts = random_structured_points(rng, rng.randint(2, 7))
            moved_pts = [pmap.point(q) for q in pts]
            assert max_on_curve(moved_pts, 1) == max_on_curve(pts, 1)
            assert max_on_curve(moved_pts, 2) == max_on_curve(pts, 2)
            level = t.level_set(Fraction(1, 4), strict=True)
            verdict = conic_cover_check(level)
            moved_verdict = conic_cover_check(pmap.level_set(level))
            assert isinstance(moved_verdict, type(verdict))

        rng = random.Random(8002)
        for _ in range(200):
            t1 = random_unit_current(rng)
            t2 = random_unit_current(rng)
            factor = Fraction(rng.randint(0, 9), rng.randint(1, 9))
            p = random_point(rng)
            combined = combine((factor, t1), (1, t2))
            assert combined.lelong_number(p) == factor * t1.lelong_number(p) + t2.lelong_number(p)


def test_criterion_9_construction_identities():
    with _budget("9 construction identities", 5.0):
        rng = random.Random(9001)
        count = 0
        while count < 100:
            den = rng.randint(11, 60)
            alpha_prime = Fraction(rng.randint((2 * den) // 5 + 1, den - 1), den)
            beta_prime = Fraction(2, 3) * (1 - alpha_prime)
            assert 4 * alpha_prime + 6 * beta_prime == 4

            t = random_unit_current(rng)
            corners = random_structured_points(rng, 3)
            if max_on_curve(corners, 1) > 2:
                continue
            sides = [line_through(p, q) for p, q in combinations(corners, 2)]
            assert blend_current(t, sides, alpha_prime).mass == 1
            assert blend_current(t, [random_line(rng)], alpha_prime).mass == 1

            # residual rescale: line weight above the bound pushes an
            # off-line point of density > beta' strictly past 1/2
            bound = (4 * alpha_prime - 1) / 3
            a = bound + (1 - bound) / rng.randint(3, 9)
            w = beta_prime + (1 - a - beta_prime) / rng.randint(2, 9)
            if w <= beta_prime or a + w >= 1:
                continue
            line = random_line(rng)
            p = random_point(rng)
            if incident(p, line):
                continue
            q = random_point(rng)
            if q == p:
                continue
            through = line_through(p, q)
            if through == line:
                continue
            filler = 1 - a - w
            spare = random_line(rng)
            if spare in (line, through):
                continue
            t = DivisorCurrent([(a, line), (w, through), (filler, spare)])
            if t.mass != 1 or t.lelong_number(p) <= beta_prime:
                continue
            residual = rescaled_residual(t, line)
            assert residual.mass == 1 and weight_of(t, line) == a > bound
            expected = (t.lelong_number(p) - a * multiplicity(p, line)) / (1 - a)
            assert residual.lelong_number(p) == expected > Fraction(1, 2)
            count += 1
