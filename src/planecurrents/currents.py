"""Divisor currents: finite nonnegative weighted sums of plane curves.

A divisor current is a formal sum sum_i w_i * [C_i] with rational weights
w_i >= 0 and distinct component curves C_i (lines or irreducible conics).
Its mass is sum_i w_i * deg(C_i) and its Lelong number at a point p is
sum_i w_i * mult_p(C_i): the local density seen by the weighted arrangement.

Upper level sets {p : lelong(p) >= t} are structural: full component
curves whose weight passes the threshold plus finitely many isolated
points. Off the support the density is zero and on a single smooth
component it equals that component's weight, so every isolated member is a
pairwise intersection point of the support; that argument makes the
structural representation complete.

Lines and irreducible conics are smooth, so mult_p(C_i) is 1 on C_i and 0
off it, and the density at a point is the sum of the weights of the
components through it. Every component through a pairwise intersection
point p meets each other component through p at p, so one pass over all
component pairs yields, for each such p, the complete set of components
through it.

Densities are sums of weights, so a current keeps its weights once more
as integers over one common denominator: `den` is the lcm of the weight
denominators and `nums[i]` is `components[i]`'s weight times `den`. Sums
of weights are then sums of ints, and a density n/den passes a threshold
p/q (q > 0) when n*q > p*den (or >=), so neither a sum nor a threshold
test builds a Fraction; `mass` and `lelong_number` build one for their
result.

Components are kept in canonical order, the order of the curves' `<`:
lines before conics, and each kind by its rational form.

A current keeps one (density numerator, heaviest numerator) pair per
pairwise intersection point once built, keyed on the point's primitive
integer tuple (`Point.ints`), from one pass over the component pairs:
each pair meets at the tuples of `projective.meets`, so the map holds no
Point, and its keys hash and compare as plain tuples. The pass keeps one
[density, heaviest, first component] entry per point and no set of
components: the first component through a point meets every other
component through it there, so the pairs of that component complete the
entry, and every other pair that meets there skips it. A Point is built
only for a point that a level set, `support_intersections` or
`cover.find_heavy_points` returns. The current is immutable, so level
sets at any threshold (the heavy points at alpha and the strict level set
at beta) read the same map, and the map lives and dies with its current.
A point is isolated when its density passes the threshold and its
heaviest component does not (no component through it does, since passing
is monotone). A build that raises IrrationalIntersection caches nothing,
so every later call raises again.
`lelong_number` stays the direct per-point formula, valid at any point
and for currents whose map cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable

from .errors import (
    NegativeWeight,
    NonpositiveThreshold,
    ReducibleConic,
)
from .projective import (
    Conic,
    Curve,
    Point,
    Triple,
    incident,
    is_irreducible,
    meets,
    multiplicity,
)

_curve = itemgetter(1)


class DivisorCurrent:
    """Immutable weighted sum of lines and irreducible conics.

    Duplicate curves are merged by summing weights and zero-weight
    components are dropped, so the weight of a component curve (its generic
    Lelong number) is well defined. `den` is the lcm of the weight
    denominators (1 when there is no component) and `nums` holds each
    component's weight times `den`, in component order.
    """

    __slots__ = ("components", "den", "nums", "_incidence")

    def __init__(self, components: Iterable[tuple[Fraction | int, Curve]] = ()):
        # keyed on `ints`: a line's tuple has 3 entries and a conic's 6, so
        # equal tuples are equal curves, and no Python __hash__ runs
        merged: dict[tuple[int, ...], tuple[Fraction, Curve]] = {}
        for weight, curve in components:
            w = weight if type(weight) is Fraction else Fraction(weight)
            if w.numerator < 0:
                raise NegativeWeight(f"component weight {w} is negative")
            if isinstance(curve, Conic) and not is_irreducible(curve):
                raise ReducibleConic(
                    "reducible conic component; list a line pair as two lines"
                )
            key = curve.ints
            if key in merged:
                w0, curve = merged[key]
                w += w0
            merged[key] = (w, curve)
        items = sorted((wc for wc in merged.values() if wc[0]), key=_curve)
        den = lcm(*(w.denominator for w, _ in items))
        nums = tuple(w.numerator * (den // w.denominator) for w, _ in items)
        object.__setattr__(self, "components", tuple(items))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "_incidence", None)

    def __setattr__(self, name, value):
        raise AttributeError("DivisorCurrent is immutable")

    def __eq__(self, other):
        if not isinstance(other, DivisorCurrent):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        parts = ", ".join(f"({w!s}, {c!r})" for w, c in self.components)
        return f"DivisorCurrent([{parts}])"

    @property
    def mass(self) -> Fraction:
        return Fraction(sum(n * c.degree for n, c in zip(self.nums, self.curves)), self.den)

    @property
    def curves(self) -> tuple[Curve, ...]:
        return tuple(c for _, c in self.components)

    def lelong_number(self, p: Point) -> Fraction:
        return Fraction(
            sum(n * multiplicity(p, c) for n, (_, c) in zip(self.nums, self.components)),
            self.den,
        )

    def _incidence_map(self) -> dict[Triple, tuple[int, int]]:
        """Pairwise intersection point, as its primitive integer tuple ->
        (density, heaviest weight) of the components through it as
        numerators over `den`, from one loop over the component pairs
        i < j, each met by `projective.meets` on the integer tuples with
        no Point built.

        Each point keeps one [density, heaviest, first component] entry.
        The row of the first component i through a point, its pairs
        (i, j) for j > i, meets every other component through it there:
        that row makes and completes the entry, and the rows of later
        components find it with another first component and skip it.
        Lines sort first, so the first pair without rational meets, the
        one that raises, is the first (line, conic) pair in component-pair
        order with irrational meets, and otherwise the first conic pair."""
        if self._incidence is None:
            nums, ints = self.nums, [c.ints for c in self.curves]
            entries: dict[Triple, list[int]] = {}
            for i, a in enumerate(ints):
                ni = nums[i]
                for j in range(i + 1, len(ints)):
                    nj = nums[j]
                    for key in meets(a, ints[j]):
                        e = entries.get(key)
                        if e is None:
                            entries[key] = [ni + nj, ni if ni > nj else nj, i]
                        elif e[2] == i:
                            e[0] += nj
                            if nj > e[1]:
                                e[1] = nj
            summary = {key: (density, top) for key, (density, top, _) in entries.items()}
            object.__setattr__(self, "_incidence", summary)
        return self._incidence

    def support_intersections(self) -> tuple[Point, ...]:
        """All pairwise intersection points of the component curves.

        Raises IrrationalIntersection when a pair meets only in points
        without rational coordinates (any pair of conic components, or a
        line/conic pair with non-square discriminant).
        """
        return tuple(sorted(map(Point._of, self._incidence_map())))

    def level_set(self, threshold: Fraction | int, strict: bool = False) -> "LevelSet":
        """Structural upper level set at the threshold (>= by default,
        > when strict)."""
        t, curves, points = self._level_parts(threshold, strict)
        return LevelSet(t, strict, curves, points)

    def _level_parts(
        self, threshold: Fraction | int, strict: bool
    ) -> tuple[Fraction, tuple[Curve, ...], list[Point]]:
        """The threshold as a Fraction, the component curves passing it in
        component order and the isolated points of the level set, unsorted,
        read from the incidence map: the parts of `level_set`, which
        `cover.find_heavy_points` reads without building a LevelSet."""
        t = threshold if type(threshold) is Fraction else Fraction(threshold)
        # the strict level set at 0 is every component curve and no point
        if t <= 0 and not (strict and t == 0):
            raise NonpositiveThreshold(f"threshold {t} must be positive")
        # n/den passes p/q when n*q > p*den (or >=), with q and den positive;
        # on integers n*q > p*den is n*q >= p*den + 1, so both tests are >=
        q, bound = t.denominator, t.numerator * self.den + bool(strict)
        curves = tuple(c for n, c in zip(self.nums, self.curves) if n * q >= bound)
        incidence = self._incidence_map().items()
        return t, curves, [Point._of(k) for k, (nu, top) in incidence if nu * q >= bound > top * q]


@dataclass(frozen=True)
class LevelSet:
    """Upper level set of Lelong numbers: component curves passing the
    threshold plus finitely many isolated points off those curves. The
    curves and points are kept sorted."""

    threshold: Fraction
    strict: bool
    component_curves: tuple[Curve, ...] = ()
    isolated_points: tuple[Point, ...] = ()

    def __post_init__(self):
        curves = tuple(sorted(self.component_curves))
        points = tuple(sorted(self.isolated_points))
        if len(set(points)) != len(points):
            raise ValueError("isolated points must be pairwise distinct")
        if curves:
            for p in points:
                if any(incident(p, c) for c in curves):
                    raise ValueError(f"isolated point {p} lies on a component curve")
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        object.__setattr__(self, "strict", bool(self.strict))
        object.__setattr__(self, "component_curves", curves)
        object.__setattr__(self, "isolated_points", points)

    def __repr__(self):
        return (
            f"LevelSet(threshold={self.threshold!s}, strict={self.strict}, "
            f"curves={len(self.component_curves)}, points={len(self.isolated_points)})"
        )

    @property
    def total_component_degree(self) -> int:
        return sum(c.degree for c in self.component_curves)
