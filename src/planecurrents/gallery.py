"""Canonical weighted line arrangements with known density profiles.

Each arrangement is one entry of `_TABLE`: seed coordinates for a few
labels (the frame points, or the frame lines), each line as the labels of
the points on it, the line weights, alpha, the expected density of every
point label, and a tuple of facts.

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
* quadrangle:  the six sides of a complete quadrangle abcd, two opposite
  pairs at 19/100 and the third at 3/25; the two heavier diagonal points
  join the level set, and the conic through five of its six points must
  leave one out.

The incidence lists are read twice. `build` reads them as a
construction: a line with two built points is the line through them, a
point on two built lines is their meet, until every label is built. The
audit then reads them as a specification: every labeled point lies on
exactly the lines that list it. So the lists cannot describe one
arrangement while the coordinates realize another, and every stated fact
is independent of the particular coordinatization.

`verify` checks the mass, the audit and every density, then each fact of
the entry, read through `Arrangement.points`, with one of five kinds;
"strict" and "wide" name the strict and non-strict level sets at
beta = `beta_of(alpha)`:

* heavy:    the heavy points at alpha are the given labels;
* rejected: whether the hypothesis of the cover theorem fails;
* level:    the level set has the given number of curves and exactly the
  given isolated points;
* verdict:  `conic_cover_check` of the level set has the given shape,
  passes `verify_verdict`, and on the strict set of a valid instance is
  the verdict of `evaluate_cover`;
* max:      `max_on_curve` of the given points at degree 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import (
    Covered,
    UncoverableCurve,
    beta_of,
    conic_cover_check,
    evaluate_cover,
    verify_verdict,
)
from .currents import DivisorCurrent
from .errors import DegenerateSeed, EqualLines, EqualPoints
from .projective import Line, Point, incident, line_through, max_on_curve, meet


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


@dataclass(frozen=True)
class _Entry:
    seeds: dict[str, tuple[int, int, int]]  # a line's label seeds a Line
    lines: dict[str, str]  # line label -> labels of the points on it
    weights: dict[str, Fraction]
    alpha: Fraction
    nu: dict[str, Fraction]  # every point label -> its expected density
    facts: tuple[tuple, ...]  # (name, kind, *arguments of the kind)


def _each(labels: str, value: str) -> dict[str, Fraction]:
    return dict.fromkeys(labels.split(), Fraction(value))


_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))

_TABLE = {
    "four-lines": _Entry(
        seeds=dict(zip(("L1", "L2", "L3", "L4"), _FRAME)),
        lines={"L1": "v12 v13 v14", "L2": "v12 v23 v24", "L3": "v13 v23 v34", "L4": "v14 v24 v34"},
        weights=_each("L1 L2 L3 L4", "1/4"),
        alpha=Fraction(1, 2),
        nu=_each("v12 v13 v14 v23 v24 v34", "1/2"),
        facts=(
            ("strict-level-on-six-vertices", "level", "strict", 0, "v12 v13 v14 v23 v24 v34"),
            ("covered-omitting-one", "verdict", "strict", "omits-one"),
            ("max-on-conic-is-five", "max", 2, "v12 v13 v14 v23 v24 v34", 5),
        ),
    ),
    # the triangle q1 q2 q3 and the apex q4
    "six-lines": _Entry(
        seeds=dict(zip(("q1", "q2", "q3", "q4"), _FRAME)),
        lines={"L1": "q2 q3 p1", "L2": "q1 q3 p2", "L3": "q1 q2 p3",
               "L4": "q4 q1 p1", "L5": "q4 q2 p2", "L6": "q4 q3 p3"},
        weights=_each("L1 L2 L3 L4 L5 L6", "1/6"),
        alpha=Fraction(1, 2),
        nu=_each("q1 q2 q3 q4", "1/2") | _each("p1 p2 p3", "1/3"),
        facts=(
            ("strict-level-is-four-points", "level", "strict", 0, "q1 q2 q3 q4"),
            ("strict-covered-omitting-none", "verdict", "strict", "covers-all"),
            ("wide-level-has-seven-points", "level", "wide", 0, "q1 q2 q3 q4 p1 p2 p3"),
            ("wide-max-on-conic-is-five", "max", 2, "q1 q2 q3 q4 p1 p2 p3", 5),
            ("wide-not-coverable", "verdict", "wide", "points"),
            ("feet-and-apex-general-position", "max", 1, "p1 p2 p3 q4", 2),
        ),
    ),
    "three-lines": _Entry(
        seeds=dict(zip(("L1", "L2", "L3"), _FRAME)),
        lines={"L1": "q2 q3", "L2": "q1 q3", "L3": "q1 q2"},
        weights=_each("L1 L2 L3", "1/3"),
        alpha=Fraction(2, 3),
        nu=_each("q1 q2 q3", "2/3"),
        facts=(
            ("exactly-three-heavy-points", "heavy", "q1 q2 q3"),
            ("instance-rejected", "rejected", True),
            ("level-is-three-full-lines", "level", "strict", 3, ""),
            ("not-coverable-curve-obstruction", "verdict", "strict", "curve"),
        ),
    ),
    # built from the points p2, p3, p4, p5
    "seven-lines": _Entry(
        seeds=dict(zip(("p2", "p3", "p4", "p5"), _FRAME)),
        lines={"L1": "q1 q2 q3 p1", "L2": "q1 p2 p3 p6", "L3": "q3 p4 p5 p6",
               "l1": "q2 p2 p4", "l2": "q2 p3 p5", "l3": "p1 p2 p5", "l4": "p1 p3 p4"},
        weights=_each("L1", "46/180") | _each("L2 L3", "37/180")
        | _each("l1 l2", "19/180") | _each("l3 l4", "11/180"),
        alpha=Fraction(9, 20),
        nu=_each("q1 q3", "83/180") | _each("q2", "84/180") | _each("p1", "68/180")
        | _each("p2 p3 p4 p5", "67/180") | _each("p6", "74/180"),
        facts=(
            ("exactly-three-heavy-points", "heavy", "q1 q2 q3"),
            ("heavy-points-collinear", "max", 1, "q1 q2 q3", 3),
            ("instance-rejected", "rejected", True),
            ("level-is-the-nine-marked-points", "level", "strict", 0, "q1 q2 q3 p1 p2 p3 p4 p5 p6"),
            ("max-on-conic-is-seven", "max", 2, "q1 q2 q3 p1 p2 p3 p4 p5 p6", 7),
            ("not-coverable", "verdict", "strict", "points"),
        ),
    ),
    # the anchors a b c d and the diagonal points e, f, g of their quadrangle
    "quadrangle": _Entry(
        seeds=dict(zip(("a", "b", "c", "d"), _FRAME)),
        lines={"ab": "a b e", "cd": "c d e", "ac": "a c f",
               "bd": "b d f", "ad": "a d g", "bc": "b c g"},
        weights=_each("ab cd ac bd", "19/100") | _each("ad bc", "3/25"),
        alpha=Fraction(9, 20),
        nu=_each("a b c d", "1/2") | _each("e f", "19/50") | _each("g", "6/25"),
        facts=(
            ("four-heavy-points", "heavy", "a b c d"),
            ("instance-valid", "rejected", False),
            ("strict-level-is-six-points", "level", "strict", 0, "a b c d e f"),
            ("max-on-conic-is-five", "max", 2, "a b c d e f", 5),
            ("covered-omitting-one", "verdict", "strict", "omits-one"),
        ),
    ),
}

NAMES = tuple(_TABLE)


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


def build(name: str) -> Arrangement:
    """The arrangement of a table entry, built from its seeds by its
    incidence lists and audited against them."""
    if name not in _TABLE:
        raise KeyError(f"unknown arrangement {name!r}; choose from {NAMES}")
    entry = _TABLE[name]
    # each label's neighbours: a line's points, and the lines through a point
    near = {label: on.split() for label, on in entry.lines.items()}
    near.update({p: [l for l in entry.lines if p in near[l]] for p in entry.nu})
    built = {label: (Line if label in entry.lines else Point)(*c) for label, c in entry.seeds.items()}
    try:
        while len(built) < len(near):
            size = len(built)
            for label, labels in near.items():
                known = [built[k] for k in labels if k in built]
                if label not in built and len(known) > 1:
                    built[label] = (line_through if label in entry.lines else meet)(*known[:2])
            if len(built) == size:
                missing = sorted(near.keys() - built.keys())
                raise DegenerateSeed(f"the incidence lists do not determine {missing}")
    except (EqualPoints, EqualLines) as exc:
        raise DegenerateSeed(f"seed {tuple(entry.seeds.values())} is degenerate ({exc})") from None
    lines = {label: built[label] for label in entry.lines}
    arr = Arrangement(
        name=name,
        current=DivisorCurrent([(entry.weights[label], line) for label, line in lines.items()]),
        alpha=entry.alpha,
        points={label: built[label] for label in entry.nu},
        lines=lines,
        expected_nu=dict(entry.nu),
        incidences={label: frozenset(near[label]) for label in entry.lines},
    )
    problems = _audit_errors(arr)
    if problems:
        raise DegenerateSeed("; ".join(problems))
    return arr


def _shape(verdict) -> str:
    if isinstance(verdict, Covered):
        return "covers-all" if verdict.omitted is None else "omits-one"
    return "curve" if isinstance(verdict.obstruction, UncoverableCurve) else "points"


def verify(arr: Arrangement) -> tuple[Fact, ...]:
    """Recompute every expected fact of an arrangement; all facts must
    pass on an untampered build."""
    facts = [Fact("mass", arr.current.mass == 1, f"mass = {arr.current.mass}")]
    problems = _audit_errors(arr)
    facts.append(Fact("incidence-audit", not problems, "; ".join(problems) or "exact match"))
    for label in sorted(arr.points):
        nu = arr.current.lelong_number(arr.points[label])
        want = arr.expected_nu[label]
        facts.append(Fact(f"lelong-{label}", nu == want, f"{nu} (expected {want})"))
    outcome = evaluate_cover(arr.current, arr.alpha)
    beta = beta_of(arr.alpha)
    levels = {where: arr.current.level_set(beta, where == "strict") for where in ("strict", "wide")}

    def at(labels: str) -> tuple[Point, ...]:
        return tuple(sorted(arr.points[label] for label in labels.split()))

    for name, kind, *args in _TABLE[arr.name].facts:
        if kind == "heavy":
            ok, detail = outcome.heavy_points == at(args[0]), f"{len(outcome.heavy_points)} points"
        elif kind == "rejected":
            ok, detail = (outcome.reason is not None) == args[0], outcome.reason or "hypothesis holds"
        elif kind == "level":
            level = levels[args[0]]
            curves, points = len(level.component_curves), level.isolated_points
            ok, detail = (curves, points) == (args[1], at(args[2])), f"{curves} curves, {len(points)} points"
        elif kind == "verdict":
            level = levels[args[0]]
            verdict = conic_cover_check(level)
            ok = (
                _shape(verdict) == args[1]
                and verify_verdict(level, verdict)
                and (args[0] == "wide" or outcome.verdict in (None, verdict))
            )
            detail = repr(verdict)
        else:
            degree, labels, want = args
            m = max_on_curve(at(labels), degree)
            ok, detail = m == want, f"max on {('line', 'conic')[degree - 1]} = {m}"
        facts.append(Fact(name, ok, detail))
    return tuple(facts)
