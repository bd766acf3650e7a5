"""Exhaustive sweep over small line configurations, a test helper over
`evaluate_cover`.

The first four lines are pinned to the canonical frame (x = 0, y = 0,
z = 0, x + y + z = 0), which every quadruple of lines in general position
can be mapped to projectively; the remaining lines range over the pool of
canonical lines with integer coefficients within a bound (or an explicit
pool). Every configuration is decided once per weight vector and alpha.
Invalid outcomes carry no verdict, so the sweep decides their strict
level set itself, to profile them too. A valid instance that is not
coverable keeps the counterexample payload that `run_suite` writes,
without its `index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from planecurrents.cover import (
    Covered,
    UncoverableCurve,
    beta_of,
    conic_cover_check,
    evaluate_cover,
    verify_verdict,
)
from planecurrents.currents import DivisorCurrent
from planecurrents.projective import Line, max_on_curve
from planecurrents.serialize import current_to_payload, level_set_to_json, verdict_to_json

FRAME_LINES = (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1))


class GridTooLarge(Exception):
    """Sweep grid exceeds the configured instance cap."""


@dataclass(frozen=True)
class SweepGrid:
    n_lines: int = 4
    coefficient_bound: int = 2
    weight_vectors: Optional[tuple[tuple[Fraction, ...], ...]] = None
    alphas: tuple[Fraction, ...] = (Fraction(1, 2),)
    extra_pool: Optional[tuple[Line, ...]] = None
    max_instances: int = 200_000


@dataclass
class SweepReport:
    """Counts over every configuration, the verdict profile of each, and
    the extremes of the most level-set points on one conic."""

    tried: int
    valid: int = 0
    covered: int = 0
    not_coverable: int = 0
    counterexamples: tuple = ()
    profile_counts: dict = field(default_factory=dict)
    m2_min: Optional[int] = None
    m2_max: Optional[int] = None


def line_pool(bound: int) -> list[Line]:
    seen = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0 and b == 0 and c == 0:
                    continue
                line = Line(a, b, c)
                if line not in seen and line not in FRAME_LINES:
                    seen.append(line)
    return sorted(seen)


def exhaustive_sweep(grid: SweepGrid) -> SweepReport:
    """Evaluate every configuration in the grid."""
    pool = list(grid.extra_pool) if grid.extra_pool is not None else line_pool(grid.coefficient_bound)
    k = grid.n_lines - 4
    n_combos = comb(len(pool), k) if len(pool) >= k else 0
    weight_vectors = grid.weight_vectors or (tuple([Fraction(1, grid.n_lines)] * grid.n_lines),)
    total = n_combos * len(weight_vectors) * len(grid.alphas)
    if total > grid.max_instances:
        raise GridTooLarge(f"{total} instances exceed the cap {grid.max_instances}")

    report = SweepReport(tried=total)
    counterexamples = []
    m2s = []
    for combo in combinations(pool, k):
        lines = list(FRAME_LINES) + list(combo)
        for weights in weight_vectors:
            current = DivisorCurrent(list(zip(weights, lines)))
            if len(current.components) != len(lines):
                continue  # degenerate: two equal lines merged
            for alpha in grid.alphas:
                outcome = evaluate_cover(current, alpha)
                valid = outcome.reason is None
                if valid:
                    report.valid += 1
                    level, verdict = outcome.level, outcome.verdict
                else:
                    level = current.level_set(beta_of(alpha), strict=True)
                    verdict = conic_cover_check(level)
                if level.is_finite() and level.isolated_points:
                    m2s.append(max_on_curve(level.isolated_points, 2))
                if isinstance(verdict, Covered):
                    report.covered += 1
                    shape = f"covered/omit-{0 if verdict.omitted is None else 1}"
                else:
                    report.not_coverable += 1
                    kind = "curve" if isinstance(verdict.obstruction, UncoverableCurve) else "points"
                    shape = f"not-coverable/{kind}"
                    if valid:
                        counterexamples.append({
                            "instance": current_to_payload(current, alpha),
                            "level_set": level_set_to_json(level),
                            "verdict": verdict_to_json(verdict),
                            "verified": verify_verdict(level, verdict),
                        })
                profile = f"{'valid' if valid else 'precondition-failed'}/{shape}"
                report.profile_counts[profile] = report.profile_counts.get(profile, 0) + 1
    report.counterexamples = tuple(counterexamples)
    if m2s:
        report.m2_min, report.m2_max = min(m2s), max(m2s)
    return report
