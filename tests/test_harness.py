import json
import random
from fractions import Fraction
from itertools import islice

import pytest

from planecurrents.cover import Covered, NotCoverable, conic_cover_check, evaluate_cover, find_heavy_points
from planecurrents.errors import InvalidSpec
from planecurrents.gallery import build
from planecurrents.harness import (
    MAX_COEFFICIENT_BOUND,
    GenSpec,
    _below,
    _random_line,
    _random_point,
    generate,
    run_suite,
)
from planecurrents.projective import Line, Point, line_through
from planecurrents.serialize import level_set_to_json, parse_instance

from oracles import OracleMap, adjugate, matvec, weight_of
from sweep import FRAME_LINES, GridTooLarge, SweepGrid, exhaustive_sweep


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GenSpec(n_lines=2).validate()
    with pytest.raises(InvalidSpec):
        GenSpec(coefficient_bound=0).validate()
    with pytest.raises(InvalidSpec, match=f"at most 2\\*\\*31 = {MAX_COEFFICIENT_BOUND}$"):
        GenSpec(coefficient_bound=MAX_COEFFICIENT_BOUND + 1).validate()
    GenSpec(coefficient_bound=MAX_COEFFICIENT_BOUND).validate()
    for n_conics in (-1, 2):
        with pytest.raises(InvalidSpec, match=f"n_conics must be 0 or 1, got {n_conics}$"):
            GenSpec(n_conics=n_conics).validate()
    GenSpec(n_conics=1).validate()
    GenSpec(n_lines=99, n_conics=1).validate()
    for n_lines, n_conics in ((101, 0), (100, 1)):
        with pytest.raises(InvalidSpec, match="n_lines \\+ n_conics must be at most 100, got 101$"):
            GenSpec(n_lines=n_lines, n_conics=n_conics).validate()
    with pytest.raises(InvalidSpec):
        GenSpec(weight_scheme="exotic").validate()
    with pytest.raises(InvalidSpec):
        GenSpec(alphas=(Fraction(2, 5),)).validate()
    with pytest.raises(InvalidSpec):
        run_suite(GenSpec(), 0)


def test_generation_is_deterministic():
    spec = GenSpec(n_lines=5, weight_scheme="random", seed=99)
    first = [(g.tag, g.current, g.alpha) for g in islice(generate(spec), 40)]
    second = [(g.tag, g.current, g.alpha) for g in islice(generate(spec), 40)]
    assert first == second


def test_generated_instances_are_valid_unit_mass():
    spec = GenSpec(n_lines=6, weight_scheme="random", seed=3)
    for item in islice(generate(spec), 60):
        if item.current is not None:
            assert item.current.mass == 1
        if item.tag == "ok":
            outcome = item.outcome
            assert outcome.heavy_curves or len(outcome.heavy_points) >= 4
            assert all(
                item.current.lelong_number(p) >= item.alpha for p in outcome.heavy_points
            )


def test_triangle_spec_single_trial_skips_precondition():
    spec = GenSpec(n_lines=3, weight_scheme="uniform", alphas=(Fraction(2, 3),), seed=0)
    report = run_suite(spec, 1)
    assert report.skipped == {"skipped-precondition": 1}
    assert report.valid == 0


def test_uniform_four_lines_match_quadrilateral_shape():
    from planecurrents.cover import Covered

    spec = GenSpec(n_lines=4, weight_scheme="uniform", alphas=(Fraction(1, 2),), seed=5)
    generic = 0
    for item in islice(generate(spec), 40):
        if item.tag != "ok":
            continue
        # generic means no three of the four lines are concurrent
        if len(item.current.support_intersections()) != 6:
            continue
        generic += 1
        verdict = conic_cover_check(item.current.level_set(item.outcome.beta, strict=True))
        # same shape as the canonical quadrilateral: covered, one omission
        assert isinstance(verdict, Covered) and verdict.omitted is not None
    assert generic > 10


def test_run_suite_deterministic():
    spec = GenSpec(n_lines=5, weight_scheme="random", seed=11)
    first = run_suite(spec, 60)
    again = run_suite(spec, 60)
    assert first.to_json_dict() == again.to_json_dict()
    assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
        again.to_json_dict(), sort_keys=True
    )


def test_conic_pencil_instances_validate():
    spec = GenSpec(
        n_lines=4,
        n_conics=1,
        weight_scheme="random",
        alphas=(Fraction(9, 20),),
        seed=13,
    )
    seen_ok = 0
    for item in islice(generate(spec), 80):
        if item.tag == "ok":
            seen_ok += 1
            assert any(c.degree == 2 for c in item.current.curves)
            item.current.support_intersections()  # must stay rational
    assert seen_ok > 0


def _randint_point(rng, bound):
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(coords):
            return coords


@pytest.mark.parametrize("seed", [0, 1, 5, 2024])
@pytest.mark.parametrize("bound", [1, 2, 5, 8, MAX_COEFFICIENT_BOUND])
def test_random_draws_keep_the_randint_stream(seed, bound):
    # `search` reports are pinned per --seed, so the generator's draws must
    # stay the randint(-bound, bound) stream on every Python version: a
    # point is the raw tuple drawn, and a line the primitive tuple of the
    # line through the first two draws that are different points. At the
    # largest bound an entry takes 33 bits, two 32-bit words per draw
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(40):
        assert _random_point(rng, bound) == _randint_point(reference, bound)
        while True:
            p, q = Point(*_randint_point(reference, bound)), Point(*_randint_point(reference, bound))
            if p != q:
                break
        assert _random_line(rng, bound) == line_through(p, q).ints
    assert rng.random() == reference.random()


def test_below_draws_what_randrange_draws():
    # 2**32 + 1 takes 33 bits, two words per try, and about half the tries
    for n in [*range(1, 41), 2**32 + 1]:
        rng, reference = random.Random(n), random.Random(n)
        assert [_below(rng, n) for _ in range(60)] == [reference.randrange(n) for _ in range(60)]
        assert rng.random() == reference.random()


@pytest.mark.parametrize(
    "alpha, tag, heaviest",
    [
        (Fraction(19, 20), "ok", Fraction(19, 20)),
        # the heavy line takes all the mass and the other lines weight 0
        (Fraction(1), "skipped-degenerate", None),
    ],
)
def test_heavy_line_draws_above_nine_tenths(alpha, tag, heaviest):
    spec = GenSpec(n_lines=5, weight_scheme="random", alphas=(alpha,), seed=1)
    heavy = [item for item in islice(generate(spec), 240) if item.strategy == "heavy-line"]
    assert len(heavy) > 40
    assert {item.tag for item in heavy} == {tag}
    for item in heavy:
        if heaviest is None:
            assert item.current is None
            continue
        weights = [w for w, _ in item.current.components]
        assert sum(weights) == 1 and max(weights) == heaviest
        if tag == "ok":
            assert [w for w, _ in item.outcome.heavy_curves] == [heaviest]
            assert isinstance(item.outcome.verdict, Covered)


def test_heavy_line_draws_above_one_are_invalid():
    # no weight or density of a unit-mass current reaches alpha > 1, so the
    # spec is rejected before any draw
    spec = GenSpec(n_lines=5, weight_scheme="random", alphas=(Fraction(3, 2),), seed=1)
    with pytest.raises(InvalidSpec, match="^alpha must be at most 1, got 3/2$"):
        spec.validate()
    with pytest.raises(InvalidSpec):
        next(generate(spec))
    with pytest.raises(InvalidSpec):
        run_suite(spec, 30)
    GenSpec(alphas=(Fraction(1),)).validate()


@pytest.mark.parametrize("n_conics, scheme", [(0, "uniform"), (0, "random"), (1, "random")])
def test_generated_validity_is_the_cover_instance_rule(n_conics, scheme):
    spec = GenSpec(
        n_lines=4 + n_conics,
        n_conics=n_conics,
        weight_scheme=scheme,
        alphas=(Fraction(9, 20), Fraction(1, 2)),
        seed=29,
    )
    tags = {}
    for item in islice(generate(spec), 80):
        tags[item.tag] = tags.get(item.tag, 0) + 1
        if item.tag not in ("ok", "skipped-precondition"):
            continue
        heavy = find_heavy_points(item.current, item.alpha)
        holds = any(w >= item.alpha for w, _ in item.current.components) or len(heavy) >= 4
        assert item.tag == ("ok" if holds else "skipped-precondition")
    assert tags.get("ok", 0) > 0


@pytest.mark.parametrize("n_conics, scheme", [(0, "uniform"), (0, "random"), (1, "random")])
def test_generated_outcome_is_evaluate_cover(n_conics, scheme):
    spec = GenSpec(
        n_lines=4 + n_conics,
        n_conics=n_conics,
        weight_scheme=scheme,
        alphas=(Fraction(9, 20), Fraction(1, 2), Fraction(3, 5)),
        seed=31,
    )
    tags = set()
    for item in islice(generate(spec), 80):
        tags.add(item.tag)
        if item.current is None or item.tag == "skipped-invalid":
            assert item.outcome is None
            continue
        assert item.outcome == evaluate_cover(item.current, item.alpha)
        assert (item.outcome.verdict is not None) == (item.tag == "ok")
    assert "ok" in tags and "skipped-precondition" in tags


def test_counterexample_payloads_reverify(monkeypatch):
    # force real counterexamples by shrinking beta: with threshold 1/40 far
    # more points pass, so some valid instances stop being coverable
    import planecurrents.cover as C
    import sweep as S

    monkeypatch.setattr(C, "beta_of", lambda a: Fraction(1, 40))
    monkeypatch.setattr(S, "beta_of", lambda a: Fraction(1, 40))
    suite = run_suite(GenSpec(n_lines=6, weight_scheme="random", seed=17), 80)
    sweep = exhaustive_sweep(SweepGrid(n_lines=6, coefficient_bound=1))
    assert suite.counterexamples, "shrunken threshold should produce counterexamples"
    assert sweep.counterexamples, "shrunken threshold should produce counterexamples"
    for payload in suite.counterexamples + sweep.counterexamples:
        assert payload["verified"] is True
        current, alpha = parse_instance(payload["instance"])
        heavy = find_heavy_points(current, alpha)
        assert any(w >= alpha for w, _ in current.components) or len(heavy) >= 4
        assert all(current.lelong_number(p) >= alpha for p in heavy)
        level = current.level_set(Fraction(1, 40), strict=True)
        assert payload["level_set"] == level_set_to_json(level)
        assert isinstance(conic_cover_check(level), NotCoverable)
    indices = [payload["index"] for payload in suite.counterexamples]
    assert indices == sorted(set(indices))
    for payload in suite.counterexamples:
        assert set(payload) - {"index"} == set(sweep.counterexamples[0])


def test_sweep_four_lines_all_covered():
    grid = SweepGrid(n_lines=4, coefficient_bound=0, alphas=(Fraction(1, 2),))
    report = exhaustive_sweep(grid)
    assert report.tried == 1
    assert report.covered == 1 and report.not_coverable == 0
    assert report.valid == 1


def test_sweep_empty_grid():
    grid = SweepGrid(n_lines=5, coefficient_bound=0, alphas=(Fraction(1, 2),))
    report = exhaustive_sweep(grid)
    assert report.tried == 0 and report.covered == 0


def test_sweep_grid_cap():
    with pytest.raises(GridTooLarge):
        exhaustive_sweep(SweepGrid(n_lines=7, coefficient_bound=2, max_instances=10))


def _frame_map(lines):
    """Projective map sending four general-position lines to the frame.
    With the first three line vectors as the columns of A and
    lam = adj(A) l4, so that A lam = det(A) l4, the matrix N = A diag(lam)
    sends e1, e2, e3 and (1, 1, 1) to multiples of the four lines. Lines
    move by adj(M)^T, which for M = N^T is adj(N), a multiple of N^-1."""
    lam = matvec(adjugate(list(zip(*(l.ints for l in lines[:3])))), lines[3].ints)
    return OracleMap([[k * x for x in l.ints] for k, l in zip(lam, lines)])


def test_sweep_reproduces_seven_line_profile():
    arr = build("seven-lines")
    ordered = [arr.lines[k] for k in ("L1", "L2", "L3", "l1", "l2", "l3", "l4")]
    weights = {line: weight_of(arr.current, line) for line in ordered}
    pmap = _frame_map(ordered[:4])
    frame_images = [pmap.line(l) for l in ordered[:4]]
    assert tuple(frame_images) == FRAME_LINES

    rest = sorted(pmap.line(l) for l in ordered[4:])
    weight_by_image = {pmap.line(l): w for l, w in weights.items()}
    vector = tuple(weight_by_image[l] for l in (*frame_images, *rest))
    decoys = tuple(
        l for l in (Line(1, 2, 1), Line(1, 0, 3), Line(2, 1, 1)) if l not in rest
    )
    grid = SweepGrid(
        n_lines=7,
        weight_vectors=(vector,),
        alphas=(Fraction(9, 20),),
        extra_pool=tuple(sorted((*rest, *decoys))),
        max_instances=500,
    )
    report = exhaustive_sweep(grid)
    assert report.profile_counts.get("precondition-failed/not-coverable/points", 0) >= 1
    assert report.m2_max == 7
    assert report.counterexamples == ()  # no *valid* instance fails
