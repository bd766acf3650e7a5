"""Canonical weighted line arrangements with known density profiles.

Four constructions, named by their line counts, each packaged with the
exact densities and incidence structure it must exhibit:

* four-lines:  four lines in general position, weight 1/4 each; the six
  vertices all have density 1/2 and every conic misses at least one.
* six-lines:   a triangle, an interior-ish apex and the three connecting
  lines, weight 1/6 each; the four density-1/2 points sit on a conic, yet
  at the non-strict threshold 1/3 the seven marked points admit no conic
  through more than five.
* three-lines: a triangle with weight 1/3 per side; only three points
  reach density 2/3, and the level set just below is a union of lines no
  conic can absorb.
* seven-lines: the diagonal configuration of a complete quadrilateral with
  weights (46, 37, 37, 19, 19, 11, 11)/180; exactly three points exceed
  density 81/180, they are collinear, and no conic holds more than seven
  of the nine marked points.

The constructions are combinatorial; coordinates are fixed rational seeds
validated by a full incidence audit, so every stated fact is independent
of the particular coordinatization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import (
    Covered,
    NotCoverable,
    UncoverableCurve,
    conic_cover_check,
    evaluate_cover,
    verify_verdict,
)
from .currents import DivisorCurrent
from .errors import DegenerateSeed, EqualLines, EqualPoints
from .projective import (
    Line,
    Point,
    incident,
    line_through,
    max_on_curve,
    meet,
    on_common_curve,
)

NAMES = ("four-lines", "six-lines", "three-lines", "seven-lines")


@dataclass(eq=False)
class Arrangement:
    name: str
    current: DivisorCurrent
    alpha: Fraction
    points: dict[str, Point]
    lines: dict[str, Line]
    expected_nu: dict[str, Fraction]
    incidences: dict[str, frozenset[str]]


@dataclass(frozen=True)
class Fact:
    name: str
    ok: bool
    detail: str


def _audit_errors(arr: Arrangement) -> list[str]:
    """Exact incidence audit: labeled points and lines must realize the
    expected incidences and nothing else, and all labels must be distinct."""
    problems = []
    pts = list(arr.points.values())
    if len(set(pts)) != len(pts):
        problems.append("labeled points are not pairwise distinct")
    lns = list(arr.lines.values())
    if len(set(lns)) != len(lns):
        problems.append("labeled lines are not pairwise distinct")
    for line_label, line in arr.lines.items():
        expected = arr.incidences[line_label]
        for point_label, point in arr.points.items():
            actual = incident(point, line)
            if actual != (point_label in expected):
                kind = "unexpected" if actual else "missing"
                problems.append(f"{kind} incidence {point_label} on {line_label}")
    return problems


def _quadrilateral_vertices(lines: dict[str, Line]) -> dict[str, Point]:
    labels = sorted(lines)
    points = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            points[f"v{a[-1]}{b[-1]}"] = meet(lines[a], lines[b])
    return points


def _build_four_lines() -> Arrangement:
    lines = {
        "L1": Line(1, 0, 0),
        "L2": Line(0, 1, 0),
        "L3": Line(0, 0, 1),
        "L4": Line(1, 1, 1),
    }
    points = _quadrilateral_vertices(lines)
    w = Fraction(1, 4)
    incidences = {
        "L1": frozenset({"v12", "v13", "v14"}),
        "L2": frozenset({"v12", "v23", "v24"}),
        "L3": frozenset({"v13", "v23", "v34"}),
        "L4": frozenset({"v14", "v24", "v34"}),
    }
    return Arrangement(
        name="four-lines",
        current=DivisorCurrent([(w, l) for l in lines.values()]),
        alpha=Fraction(1, 2),
        points=points,
        lines=lines,
        expected_nu={label: Fraction(1, 2) for label in points},
        incidences=incidences,
    )


# the triangle q1 q2 q3 and the apex q4
_SIX_LINE_SEED = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _build_six_lines() -> Arrangement:
    q1, q2, q3, q4 = (Point(*c) for c in _SIX_LINE_SEED)
    try:
        lines = {
            "L1": line_through(q2, q3),
            "L2": line_through(q1, q3),
            "L3": line_through(q1, q2),
            "L4": line_through(q4, q1),
            "L5": line_through(q4, q2),
            "L6": line_through(q4, q3),
        }
        p1 = meet(lines["L4"], lines["L1"])
        p2 = meet(lines["L5"], lines["L2"])
        p3 = meet(lines["L6"], lines["L3"])
    except (EqualPoints, EqualLines) as exc:
        raise DegenerateSeed(f"seed {_SIX_LINE_SEED} is degenerate ({exc})") from None
    points = {"q1": q1, "q2": q2, "q3": q3, "q4": q4, "p1": p1, "p2": p2, "p3": p3}
    incidences = {
        "L1": frozenset({"q2", "q3", "p1"}),
        "L2": frozenset({"q1", "q3", "p2"}),
        "L3": frozenset({"q1", "q2", "p3"}),
        "L4": frozenset({"q4", "q1", "p1"}),
        "L5": frozenset({"q4", "q2", "p2"}),
        "L6": frozenset({"q4", "q3", "p3"}),
    }
    nu = {f"q{i}": Fraction(1, 2) for i in range(1, 5)}
    nu.update({f"p{i}": Fraction(1, 3) for i in range(1, 4)})
    arr = Arrangement(
        name="six-lines",
        current=DivisorCurrent([(Fraction(1, 6), l) for l in lines.values()]),
        alpha=Fraction(1, 2),
        points=points,
        lines=lines,
        expected_nu=nu,
        incidences=incidences,
    )
    problems = _audit_errors(arr)
    if problems or max_on_curve([p1, p2, p3, q4], 1) != 2:
        raise DegenerateSeed("; ".join(problems) or "apex and feet are not in general position")
    return arr


def _build_three_lines() -> Arrangement:
    lines = {"L1": Line(1, 0, 0), "L2": Line(0, 1, 0), "L3": Line(0, 0, 1)}
    points = {
        "q1": meet(lines["L2"], lines["L3"]),
        "q2": meet(lines["L1"], lines["L3"]),
        "q3": meet(lines["L1"], lines["L2"]),
    }
    incidences = {
        "L1": frozenset({"q2", "q3"}),
        "L2": frozenset({"q1", "q3"}),
        "L3": frozenset({"q1", "q2"}),
    }
    return Arrangement(
        name="three-lines",
        current=DivisorCurrent([(Fraction(1, 3), l) for l in lines.values()]),
        alpha=Fraction(2, 3),
        points=points,
        lines=lines,
        expected_nu={label: Fraction(2, 3) for label in points},
        incidences=incidences,
    )


# the points p2, p3, p4, p5 the construction starts from
_SEVEN_LINE_SEED = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))

_SEVEN_LINE_WEIGHTS = {
    "L1": Fraction(46, 180),
    "L2": Fraction(37, 180),
    "L3": Fraction(37, 180),
    "l1": Fraction(19, 180),
    "l2": Fraction(19, 180),
    "l3": Fraction(11, 180),
    "l4": Fraction(11, 180),
}

_SEVEN_LINE_NU = {
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


def _build_seven_lines() -> Arrangement:
    p2, p3, p4, p5 = (Point(*c) for c in _SEVEN_LINE_SEED)
    try:
        l1 = line_through(p2, p4)
        l2 = line_through(p3, p5)
        l3 = line_through(p2, p5)
        l4 = line_through(p3, p4)
        big2 = line_through(p2, p3)
        big3 = line_through(p4, p5)
        q2 = meet(l1, l2)
        p1 = meet(l3, l4)
        p6 = meet(big2, big3)
        big1 = line_through(q2, p1)
        q1 = meet(big1, big2)
        q3 = meet(big1, big3)
    except (EqualPoints, EqualLines) as exc:
        raise DegenerateSeed(f"seed {_SEVEN_LINE_SEED} is degenerate ({exc})") from None
    points = {
        "q1": q1, "q2": q2, "q3": q3,
        "p1": p1, "p2": p2, "p3": p3, "p4": p4, "p5": p5, "p6": p6,
    }
    lines = {
        "L1": big1, "L2": big2, "L3": big3,
        "l1": l1, "l2": l2, "l3": l3, "l4": l4,
    }
    incidences = {
        "L1": frozenset({"q1", "q2", "q3", "p1"}),
        "L2": frozenset({"q1", "p2", "p3", "p6"}),
        "L3": frozenset({"q3", "p4", "p5", "p6"}),
        "l1": frozenset({"q2", "p2", "p4"}),
        "l2": frozenset({"q2", "p3", "p5"}),
        "l3": frozenset({"p1", "p2", "p5"}),
        "l4": frozenset({"p1", "p3", "p4"}),
    }
    arr = Arrangement(
        name="seven-lines",
        current=DivisorCurrent([(_SEVEN_LINE_WEIGHTS[label], lines[label]) for label in lines]),
        alpha=Fraction(9, 20),
        points=points,
        lines=lines,
        expected_nu=dict(_SEVEN_LINE_NU),
        incidences=incidences,
    )
    problems = _audit_errors(arr)
    if problems:
        raise DegenerateSeed("; ".join(problems))
    return arr


_BUILDERS = {
    "four-lines": _build_four_lines,
    "six-lines": _build_six_lines,
    "three-lines": _build_three_lines,
    "seven-lines": _build_seven_lines,
}


def build(name: str) -> Arrangement:
    if name not in _BUILDERS:
        raise KeyError(f"unknown arrangement {name!r}; choose from {NAMES}")
    return _BUILDERS[name]()


def _common_facts(arr: Arrangement) -> list[Fact]:
    facts = [
        Fact("mass", arr.current.mass == 1, f"mass = {arr.current.mass}"),
    ]
    problems = _audit_errors(arr)
    facts.append(
        Fact("incidence-audit", not problems, "; ".join(problems) or "exact match")
    )
    for label in sorted(arr.points):
        nu = arr.current.lelong_number(arr.points[label])
        want = arr.expected_nu[label]
        facts.append(Fact(f"lelong-{label}", nu == want, f"{nu} (expected {want})"))
    return facts


def _rejected(outcome) -> Fact:
    """The fact that the hypothesis fails, with the reason it does."""
    detail = outcome.reason or "instance unexpectedly valid"
    return Fact("instance-rejected", outcome.reason is not None, detail)


def _facts_four_lines(arr: Arrangement) -> list[Fact]:
    facts = []
    outcome = evaluate_cover(arr.current, arr.alpha)
    level, verdict = outcome.level, outcome.verdict
    vertices = tuple(sorted(arr.points.values()))
    facts.append(
        Fact(
            "strict-level-on-six-vertices",
            not level.component_curves and level.isolated_points == vertices,
            f"{len(level.component_curves)} curves, {len(level.isolated_points)} points",
        )
    )
    omits_one = isinstance(verdict, Covered) and verdict.omitted is not None
    facts.append(
        Fact(
            "covered-omitting-one",
            omits_one and verify_verdict(level, verdict),
            repr(verdict),
        )
    )
    pair_counts = set()
    lines = list(arr.lines.values())
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            pair_counts.add(
                sum(1 for p in vertices if incident(p, a) or incident(p, b))
            )
    facts.append(
        Fact("line-pairs-cover-five", pair_counts == {5}, f"pair counts {pair_counts}")
    )
    return facts


def _facts_six_lines(arr: Arrangement) -> list[Fact]:
    facts = []
    outcome = evaluate_cover(arr.current, arr.alpha)
    strict, verdict = outcome.level, outcome.verdict
    apex_points = tuple(sorted(arr.points[f"q{i}"] for i in range(1, 5)))
    facts.append(
        Fact(
            "strict-level-is-four-points",
            not strict.component_curves and strict.isolated_points == apex_points,
            f"{len(strict.isolated_points)} points",
        )
    )
    facts.append(
        Fact(
            "strict-covered-omitting-none",
            isinstance(verdict, Covered)
            and verdict.omitted is None
            and verify_verdict(strict, verdict),
            repr(verdict),
        )
    )
    wide = arr.current.level_set(outcome.beta, strict=False)
    facts.append(
        Fact(
            "wide-level-has-seven-points",
            not wide.component_curves and len(wide.isolated_points) == 7,
            f"{len(wide.isolated_points)} points",
        )
    )
    m2 = max_on_curve(wide.isolated_points, 2)
    facts.append(Fact("wide-max-on-conic-is-five", m2 == 5, f"max on conic = {m2}"))
    wide_verdict = conic_cover_check(wide)
    facts.append(
        Fact(
            "wide-not-coverable",
            isinstance(wide_verdict, NotCoverable)
            and m2 < len(wide.isolated_points) - 1
            and verify_verdict(wide, wide_verdict),
            repr(wide_verdict),
        )
    )
    off_apex = [arr.points[l] for l in ("p1", "p2", "p3", "q4")]
    m1 = max_on_curve(off_apex, 1)
    facts.append(Fact("feet-and-apex-general-position", m1 == 2, f"max on line = {m1}"))
    return facts


def _facts_three_lines(arr: Arrangement) -> list[Fact]:
    facts = []
    outcome = evaluate_cover(arr.current, arr.alpha)
    heavy = outcome.heavy_points
    facts.append(
        Fact("exactly-three-heavy-points", len(heavy) == 3, f"{len(heavy)} points")
    )
    facts.append(_rejected(outcome))
    level = arr.current.level_set(Fraction(2, 9), strict=True)
    facts.append(
        Fact(
            "level-is-three-full-lines",
            len(level.component_curves) == 3 and not level.isolated_points,
            f"{len(level.component_curves)} curves",
        )
    )
    verdict = conic_cover_check(level)
    facts.append(
        Fact(
            "not-coverable-curve-obstruction",
            isinstance(verdict, NotCoverable)
            and isinstance(verdict.obstruction, UncoverableCurve)
            and verify_verdict(level, verdict),
            repr(verdict),
        )
    )
    return facts


def _facts_seven_lines(arr: Arrangement) -> list[Fact]:
    facts = []
    outcome = evaluate_cover(arr.current, arr.alpha)
    heavy = outcome.heavy_points
    expected_heavy = tuple(sorted(arr.points[l] for l in ("q1", "q2", "q3")))
    facts.append(
        Fact(
            "exactly-three-heavy-points",
            heavy == expected_heavy,
            f"{len(heavy)} points",
        )
    )
    facts.append(
        Fact(
            "heavy-points-collinear",
            on_common_curve(heavy, 1),
            "on the top-weight line",
        )
    )
    facts.append(_rejected(outcome))
    beta = Fraction(11, 30)
    level = arr.current.level_set(beta, strict=True)
    marked = tuple(sorted(arr.points.values()))
    facts.append(
        Fact(
            "level-is-the-nine-marked-points",
            not level.component_curves and level.isolated_points == marked,
            f"{len(level.isolated_points)} points",
        )
    )
    m2 = max_on_curve(marked, 2)
    facts.append(Fact("max-on-conic-is-seven", m2 == 7, f"max on conic = {m2}"))
    verdict = conic_cover_check(level)
    facts.append(
        Fact(
            "not-coverable",
            isinstance(verdict, NotCoverable) and verify_verdict(level, verdict),
            repr(verdict),
        )
    )
    return facts


_FACT_BUILDERS = {
    "four-lines": _facts_four_lines,
    "six-lines": _facts_six_lines,
    "three-lines": _facts_three_lines,
    "seven-lines": _facts_seven_lines,
}


def verify(arr: Arrangement) -> tuple[Fact, ...]:
    """Recompute every expected fact of an arrangement; all facts must
    pass on an untampered build."""
    return tuple(_common_facts(arr) + _FACT_BUILDERS[arr.name](arr))
