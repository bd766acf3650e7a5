import dataclasses
import random
from fractions import Fraction

import pytest

from planecurrents import gallery
from planecurrents.cover import conic_cover_check, evaluate_cover, verify_verdict
from planecurrents.currents import DivisorCurrent
from planecurrents.errors import DegenerateSeed
from planecurrents.gallery import Arrangement
from planecurrents.projective import Point, max_on_curve

from oracles import random_projective_map


@pytest.mark.parametrize("name", gallery.NAMES)
def test_all_facts_pass(name):
    arrangement = gallery.build(name)
    for fact in gallery.verify(arrangement):
        assert fact.ok, f"{name}: {fact.name}: {fact.detail}"


def test_unknown_name():
    with pytest.raises(KeyError):
        gallery.build("five-lines")


def test_seven_lines_table():
    arr = gallery.build("seven-lines")
    table = {
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
    for label, expected in table.items():
        assert arr.current.lelong_number(arr.points[label]) == expected
    assert arr.current.mass == 1
    assert arr.alpha == Fraction(81, 180)


def test_audit_rejects_tampered_weights():
    for name in gallery.NAMES:
        arr = gallery.build(name)
        tampered = Arrangement(
            name=arr.name,
            current=DivisorCurrent(
                [
                    (w + Fraction(1, 180) if i == 0 else w, c)
                    for i, (w, c) in enumerate(arr.current.components)
                ]
            ),
            alpha=arr.alpha,
            points=arr.points,
            lines=arr.lines,
            expected_nu=arr.expected_nu,
            incidences=arr.incidences,
        )
        facts = gallery.verify(tampered)
        assert any(not f.ok for f in facts)
        assert not next(f for f in facts if f.name == "mass").ok
        # one nudged expected density fails that density's fact and no other
        for label in arr.points:
            nudged = Arrangement(
                name=arr.name,
                current=arr.current,
                alpha=arr.alpha,
                points=arr.points,
                lines=arr.lines,
                expected_nu={**arr.expected_nu, label: arr.expected_nu[label] + Fraction(1, 180)},
                incidences=arr.incidences,
            )
            failed = [f.name for f in gallery.verify(nudged) if not f.ok]
            assert failed == [f"lelong-{label}"], (name, failed)


def test_audit_rejects_mislabeled_incidence():
    arr = gallery.build("six-lines")
    broken = Arrangement(
        name=arr.name,
        current=arr.current,
        alpha=arr.alpha,
        points=arr.points,
        lines=arr.lines,
        expected_nu=arr.expected_nu,
        incidences={**arr.incidences, "L1": frozenset({"q2", "q3"})},
    )
    audit = next(f for f in gallery.verify(broken) if f.name == "incidence-audit")
    assert not audit.ok and "unexpected" in audit.detail


@pytest.mark.parametrize(
    "seed, reason",
    [
        # apex on a side: the lines are built, and the audit rejects them
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)), "not pairwise distinct"),
        # apex on a vertex: no line runs through a point twice
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)), "is degenerate"),
    ],
    ids=["apex-on-side", "repeated-point"],
)
def test_degenerate_seed_detection(monkeypatch, seed, reason):
    import planecurrents.gallery as g

    entry = g._TABLE["six-lines"]
    seeds = dict(zip(entry.seeds, seed))
    monkeypatch.setitem(g._TABLE, "six-lines", dataclasses.replace(entry, seeds=seeds))
    with pytest.raises(DegenerateSeed, match=reason):
        g.build("six-lines")


def test_incidence_lists_that_stop_growing_are_degenerate(monkeypatch):
    import planecurrents.gallery as g

    # L6 lists one built point, so neither L6 nor p3 (on L3 and L6) is determined
    entry = g._TABLE["six-lines"]
    lines = {**entry.lines, "L6": "q4 p3"}
    monkeypatch.setitem(g._TABLE, "six-lines", dataclasses.replace(entry, lines=lines))
    with pytest.raises(DegenerateSeed, match=r"do not determine \['L6', 'p3'\]"):
        g.build("six-lines")


def test_quadrangle_omits_one_point_at_both_alphas():
    arr = gallery.build("quadrangle")
    for alpha in (Fraction(1, 2), Fraction(9, 20)):
        outcome = evaluate_cover(arr.current, alpha)
        assert outcome.reason is None
        assert outcome.heavy_points == tuple(sorted(arr.points[l] for l in "abcd"))
        assert outcome.level.isolated_points == tuple(sorted(arr.points[l] for l in "abcdef"))
        assert outcome.verdict.omitted == Point(0, 0, 1)
        assert verify_verdict(outcome.level, outcome.verdict)


def test_facts_stable_under_projective_transform():
    rng = random.Random(67)
    for name in gallery.NAMES:
        arr = gallery.build(name)
        pmap = random_projective_map(rng)
        moved = Arrangement(
            name=arr.name,
            current=pmap.current(arr.current),
            alpha=arr.alpha,
            points={k: pmap.point(p) for k, p in arr.points.items()},
            lines={k: pmap.line(l) for k, l in arr.lines.items()},
            expected_nu=arr.expected_nu,
            incidences=arr.incidences,
        )
        for fact in gallery.verify(moved):
            assert fact.ok, f"{name} (transformed): {fact.name}: {fact.detail}"


def test_four_lines_every_five_subset_conic_omits_a_point():
    from itertools import combinations

    from planecurrents.projective import conic_space, incident

    arr = gallery.build("four-lines")
    vertices = sorted(arr.points.values())
    assert max_on_curve(vertices, 2) == 5
    for sub in combinations(vertices, 5):
        space = conic_space(sub)
        assert len(space) == 1
        rest = next(p for p in vertices if p not in sub)
        assert not incident(rest, space[0])


def test_six_lines_strict_verdict_and_wide_m2():
    arr = gallery.build("six-lines")
    assert evaluate_cover(arr.current, arr.alpha).verdict.omitted is None
    wide = arr.current.level_set(Fraction(1, 3), strict=False)
    assert len(wide.isolated_points) == 7
    assert max_on_curve(wide.isolated_points, 2) == 5
    from planecurrents.cover import NotCoverable

    assert isinstance(conic_cover_check(wide), NotCoverable)
