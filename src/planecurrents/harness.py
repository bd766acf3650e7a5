"""Seeded instance generation and batch verification.

The generator emits a deterministic stream of weighted line (and optional
conic) arrangements of exact unit mass. Valid cover instances need, with
alpha > 2/5, a component of weight >= alpha or at least four points of
density >= alpha (`cover.evaluate_cover` decides), and random arrangements
almost never have them, so each draw picks a construction strategy that
concentrates density on purpose:

* "pencils":    lines routed through four anchor points (cycle plus
                diagonals), so anchors accumulate density; validity then
                depends on the drawn weights.
* "heavy-line": one line drawn with weight >= alpha, whose weight alone
                meets the hypothesis, so validity is certain for alpha
                < 1. The weight is capped at 9/10, or at alpha when
                alpha > 9/10; at alpha = 1 the other lines get weight
                0, so the draw is skipped-degenerate. `GenSpec.validate`
                rejects alpha > 1, which no weight reaches.
* "scatter":    unstructured lines through random point pairs; almost
                always tagged skipped-precondition, kept as a negative
                control.
* "conic-pencil" (only when conics are requested): an irreducible conic
                through five base points plus chords through base-point
                pairs, so all pairwise intersections stay rational.

Random values come from `_below(rng, n)`, which draws what
`rng.randrange(n)` draws, from the same `getrandbits(n.bit_length())`
calls repeated until the value is below n; only the chord order of
"conic-pencil" is `rng.shuffle`. `low + _below(rng, high - low + 1)` is
`randint(low, high)` and `seq[_below(rng, len(seq))]` is `choice(seq)`,
so every report for a seed is the one those calls gave, with one Python
frame per value where they take two or three. `_random_point` runs the
same loop inline for its three coordinates.

Draws stay integer tuples until a current is built: a point is the raw
nonzero tuple drawn, or its primitive form where points must be told
apart; a line is the primitive form of the cross product of two drawn
points (zero exactly when they are the same point, and then both are drawn
again). Tuple `==` and `in` tell points and lines apart, and a `Line` is
built once per kept line.

Each drawn instance carries the `Outcome` of `evaluate_cover`. Instances
that fail that precondition, need irrational intersection points, or
degenerate during construction are emitted with a skip tag and counted.
`run_suite` counts them in an order-independent tally, and serialized
reports hold no wall-clock timing, so they stay byte-identical across
reruns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from typing import Iterator, Optional

from .cover import TWO_FIFTHS, Covered, Outcome, evaluate_cover, verify_verdict
from .currents import DivisorCurrent
from .errors import InvalidSpec, IrrationalIntersection
from .projective import Line, Point, Triple, _cross, _primitive, conic_space, is_irreducible
from .serialize import (
    MAX_CURVES,
    current_to_payload,
    format_rational,
    level_set_to_json,
    verdict_to_json,
)

TAG_OK = "ok"
TAG_PRECONDITION = "skipped-precondition"
TAG_INVALID = "skipped-invalid"
TAG_DEGENERATE = "skipped-degenerate"

# raw random weights are drawn from 1..DENOMINATOR_BOUND (heavy conics from
# DENOMINATOR_BOUND..2 * DENOMINATOR_BOUND) before scaling to the mass
DENOMINATOR_BOUND = 16

# largest coefficient_bound: line coefficients, cross products of drawn
# points, stay near 64 bits
MAX_COEFFICIENT_BOUND = 2**31


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the deterministic instance stream."""

    n_lines: int = 4
    n_conics: int = 0
    coefficient_bound: int = 5
    weight_scheme: str = "uniform"  # "uniform" | "random"
    alphas: tuple[Fraction, ...] = (Fraction(1, 2),)
    seed: int = 0

    def validate(self) -> None:
        if self.n_lines < 3:
            raise InvalidSpec("n_lines must be at least 3")
        if self.n_conics not in (0, 1):
            # two conic components raise IrrationalIntersection: never valid
            raise InvalidSpec(f"n_conics must be 0 or 1, got {self.n_conics}")
        n_curves = self.n_lines + self.n_conics
        if n_curves > MAX_CURVES:
            # so that `check` can re-read every counterexample payload; above
            # 66 lines every draw is skipped-degenerate anyway
            raise InvalidSpec(f"n_lines + n_conics must be at most {MAX_CURVES}, got {n_curves}")
        if self.coefficient_bound < 1:
            raise InvalidSpec("coefficient_bound must be at least 1 (no nondegenerate lines otherwise)")
        if self.coefficient_bound > MAX_COEFFICIENT_BOUND:
            raise InvalidSpec(f"coefficient_bound must be at most 2**31 = {MAX_COEFFICIENT_BOUND}")
        if self.weight_scheme not in ("uniform", "random"):
            raise InvalidSpec(f"unknown weight scheme {self.weight_scheme!r}")
        if not self.alphas:
            raise InvalidSpec("at least one alpha is required")
        for a in self.alphas:
            if Fraction(a) <= TWO_FIFTHS:
                raise InvalidSpec(f"alpha must exceed 2/5, got {a}")
            if Fraction(a) > 1:
                # a unit-mass current has every weight and density at most 1
                raise InvalidSpec(f"alpha must be at most 1, got {a}")

    def summary(self) -> dict:
        return {
            "n_lines": self.n_lines,
            "n_conics": self.n_conics,
            "coefficient_bound": self.coefficient_bound,
            "weight_scheme": self.weight_scheme,
            "denominator_bound": DENOMINATOR_BOUND,
            "alphas": [format_rational(a) for a in self.alphas],
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GeneratedInstance:
    index: int
    tag: str
    alpha: Fraction
    strategy: str
    current: Optional[DivisorCurrent] = None
    outcome: Optional[Outcome] = None


@dataclass(frozen=True)
class RunReport:
    """Aggregated result of a batch run; deterministic given (spec, trials)."""

    spec_summary: dict
    trials: int
    tried: int
    valid: int
    skipped: dict
    covered: int
    not_coverable: int
    omitted_histogram: dict
    counterexamples: tuple

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec_summary,
            "trials": self.trials,
            "tried": self.tried,
            "valid": self.valid,
            "skipped": dict(sorted(self.skipped.items())),
            "covered": self.covered,
            "not_coverable": self.not_coverable,
            "omitted_histogram": {
                str(k): v for k, v in sorted(self.omitted_histogram.items())
            },
            "counterexamples": list(self.counterexamples),
        }


def _below(rng: random.Random, n: int) -> int:
    """What `rng.randrange(n)` draws (n >= 1), from the same getrandbits
    calls: k = n.bit_length() bits, drawn again until below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_point(rng: random.Random, bound: int) -> Triple:
    """A point as a nonzero integer tuple, not made primitive: each entry
    is what randint(-bound, bound) draws, by the `_below` loop inline."""
    getrandbits, n = rng.getrandbits, 2 * bound + 1
    k = n.bit_length()
    while True:
        coords = []
        while len(coords) < 3:
            r = getrandbits(k)
            if r < n:
                coords.append(r - bound)
        if any(coords):
            return tuple(coords)


def _random_line(rng: random.Random, bound: int) -> Triple:
    """The line through two random points, as its primitive integer tuple.
    The cross product of two nonzero tuples is zero exactly when they are
    the same projective point, and then both are drawn again."""
    while True:
        cross = _cross(_random_point(rng, bound), _random_point(rng, bound))
        if any(cross):
            return _primitive(cross)


def _distinct_lines(rng, bound, count, start=(), attempts=60) -> Optional[list[Line]]:
    """`count` distinct lines: `start` (primitive tuples) and then random
    lines, compared as tuples; None if `attempts` draws fall short."""
    lines = list(start)
    for _ in range(attempts):
        if len(lines) >= count:
            break
        cand = _random_line(rng, bound)
        if cand not in lines:
            lines.append(cand)
    return [Line._of(t) for t in lines[:count]] if len(lines) >= count else None


def _scaled(raws, curves, mass=1) -> list[Fraction]:
    """Weights proportional to the integers `raws` that give the curves
    total mass `mass` (an int or a Fraction)."""
    denom = sum(r * c.degree for r, c in zip(raws, curves)) * mass.denominator
    return [Fraction(r * mass.numerator, denom) for r in raws]


def _distinct_points(rng, bound, count) -> list[Triple]:
    """`count` distinct random points as primitive integer tuples."""
    points: list[Triple] = []
    while len(points) < count:
        p = _primitive(_random_point(rng, bound))
        if p not in points:
            points.append(p)
    return points


def _lines_pencils(rng, spec: GenSpec) -> Optional[list[Line]]:
    for _ in range(20):
        a, b, c, d = _distinct_points(rng, spec.coefficient_bound, 4)
        pair_order = [(a, b), (b, c), (c, d), (d, a), (a, c), (b, d)]
        lines: list[Triple] = []
        for p, q in pair_order[: spec.n_lines]:
            # distinct points, so the cross product is nonzero
            cand = _primitive(_cross(p, q))
            if cand in lines:
                break
            lines.append(cand)
        else:
            if len(lines) >= spec.n_lines:
                return [Line._of(t) for t in lines]
            extra = _distinct_lines(rng, spec.coefficient_bound, spec.n_lines, start=lines)
            if extra is not None:
                return extra
    return None


def _conic_pencil(rng, spec: GenSpec) -> Optional[list]:
    """A rank-3 conic through five base points plus chords through base
    pairs, chords listed first; all pairwise intersections stay rational by
    construction.

    Chords follow the 5-cycle of base points first so that base points sit
    on two chords each and accumulate density."""
    for _ in range(30):
        base = _distinct_points(rng, spec.coefficient_bound, 5)
        space = conic_space(map(Point._of, base))
        if len(space) != 1 or not is_irreducible(space[0]):
            continue
        conic = space[0]
        cycle = [(base[i], base[(i + 1) % 5]) for i in range(5)]
        rest = [pq for pq in combinations(base, 2) if pq not in cycle]
        rng.shuffle(rest)
        lines: list[Triple] = []
        for p, q in cycle + rest:
            if len(lines) >= spec.n_lines:
                break
            cand = _primitive(_cross(p, q))
            if cand not in lines:
                lines.append(cand)
        if len(lines) < spec.n_lines:
            continue
        return [Line._of(t) for t in lines] + [conic]
    return None


def _build_one(rng: random.Random, spec: GenSpec, index: int) -> GeneratedInstance:
    alpha = Fraction(spec.alphas[_below(rng, len(spec.alphas))])
    strategies = ["pencils", "scatter"]
    if spec.weight_scheme == "random":
        strategies.append("heavy-line")
    if spec.n_conics > 0:
        strategies = ["conic-pencil"]
    strategy = strategies[_below(rng, len(strategies))]

    def raws(count, low=1, high=DENOMINATOR_BOUND):
        if spec.weight_scheme == "uniform":
            return [1] * count
        return [low + _below(rng, high - low + 1) for _ in range(count)]

    if strategy == "conic-pencil":
        curves = _conic_pencil(rng, spec)
        if curves is not None:
            # boost the conic weight so base points reach heavy density
            line_raws = raws(spec.n_lines)
            boosted = raws(spec.n_conics, DENOMINATOR_BOUND, 2 * DENOMINATOR_BOUND)
            weights = _scaled(line_raws + boosted, curves)
    elif strategy == "heavy-line":
        # the first line's weight is drawn at or above alpha
        curves = _distinct_lines(rng, spec.coefficient_bound, spec.n_lines)
        if curves is not None:
            margin = Fraction(_below(rng, 5), 20)
            # capped at 9/10 so that the other lines keep weight, but never
            # below alpha
            first = min(alpha + margin * (1 - alpha), max(alpha, Fraction(9, 10)))
            weights = [first] + _scaled(raws(len(curves) - 1), curves[1:], 1 - first)
    else:
        curves = (
            _lines_pencils(rng, spec)
            if strategy == "pencils"
            else _distinct_lines(rng, spec.coefficient_bound, spec.n_lines)
        )
        if curves is not None:
            weights = _scaled(raws(len(curves)), curves)

    current = None if curves is None else DivisorCurrent(list(zip(weights, curves)))
    if current is None or len(current.components) != len(curves):
        return GeneratedInstance(index, TAG_DEGENERATE, alpha, strategy)
    built = partial(GeneratedInstance, index, alpha=alpha, strategy=strategy, current=current)
    try:
        outcome = evaluate_cover(current, alpha)
    except IrrationalIntersection:
        return built(TAG_INVALID)
    return built(TAG_OK if outcome.reason is None else TAG_PRECONDITION, outcome=outcome)


def generate(spec: GenSpec) -> Iterator[GeneratedInstance]:
    """Deterministic infinite stream of tagged instances."""
    spec.validate()
    rng = random.Random(spec.seed)
    index = 0
    while True:
        yield _build_one(rng, spec, index)
        index += 1


def run_suite(spec: GenSpec, trials: int) -> RunReport:
    """Generate `trials` instances and check every valid one; the counts
    do not depend on the order in which instances arrive.

    The expected outcome is zero counterexamples; any counterexample
    payload re-verifies standalone and signals an implementation bug.
    """
    spec.validate()
    if trials < 1:
        raise InvalidSpec("trials must be at least 1")
    valid = covered = 0
    skipped: dict[str, int] = {}
    omitted_histogram: dict[int, int] = {}
    counterexamples = []
    for item in islice(generate(spec), trials):
        if item.tag != TAG_OK:
            skipped[item.tag] = skipped.get(item.tag, 0) + 1
            continue
        valid += 1
        outcome = item.outcome
        level, verdict = outcome.level, outcome.verdict
        if isinstance(verdict, Covered):
            covered += 1
            omitted = 0 if verdict.omitted is None else 1
            omitted_histogram[omitted] = omitted_histogram.get(omitted, 0) + 1
            continue
        # a valid instance that is not coverable: keep a standalone,
        # re-verified counterexample payload
        counterexamples.append({
            "index": item.index,
            "instance": current_to_payload(outcome.current, outcome.alpha),
            "level_set": level_set_to_json(level),
            "verdict": verdict_to_json(verdict),
            "verified": verify_verdict(level, verdict),
        })
    return RunReport(
        spec_summary=spec.summary(),
        trials=trials,
        tried=trials,
        valid=valid,
        skipped=skipped,
        covered=covered,
        not_coverable=len(counterexamples),
        omitted_histogram=omitted_histogram,
        counterexamples=tuple(counterexamples),
    )
