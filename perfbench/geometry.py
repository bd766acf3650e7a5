"""Integer projective geometry, independent of `planecurrents`.

The benchmark builds its inputs and checks the program's answers with this
module alone, so the inputs do not depend on the code under test and a
wrong answer cannot be confirmed by the code that produced it.

Points, lines and conics are integer tuples in primitive form: gcd 1 and
the first nonzero entry positive. Conic coefficients use the monomial
order (x^2, xy, xz, y^2, yz, z^2). Weights and thresholds are `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def prim(values) -> tuple[int, ...]:
    """Primitive integer form of a nonzero rational vector."""
    fracs = [Fraction(v) for v in values]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("zero vector has no projective class")
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return tuple(v // g for v in ints)


def cross(a, b) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def join(p, q) -> tuple[int, ...]:
    """Line through two distinct points (or point of two distinct lines)."""
    return prim(cross(p, q))


def line_pair(u, v) -> tuple[int, ...]:
    """Conic coefficients of the product of two linear forms."""
    return (
        u[0] * v[0],
        u[0] * v[1] + u[1] * v[0],
        u[0] * v[2] + u[2] * v[0],
        u[1] * v[1],
        u[1] * v[2] + u[2] * v[1],
        u[2] * v[2],
    )


def conic_value(c, p) -> int:
    x, y, z = p
    return c[0] * x * x + c[1] * x * y + c[2] * x * z + c[3] * y * y + c[4] * y * z + c[5] * z * z


def on_curve(curve, p) -> bool:
    return (dot(curve, p) if len(curve) == 3 else conic_value(curve, p)) == 0


def points_on_line(line, count: int) -> list[tuple[int, ...]]:
    """`count` distinct points of a line: meets with x, y, z = 0 and then
    with the lines x + k*y + k*k*z = 0."""
    out: list[tuple[int, ...]] = []
    k = 0
    while len(out) < count:
        other = ((1, 0, 0), (0, 1, 0), (0, 0, 1))[k] if k < 3 else (1, k, k * k)
        k += 1
        c = cross(line, other)
        if any(c):
            p = prim(c)
            if p not in out:
                out.append(p)
    return out


def det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def image_conic(m) -> tuple[int, ...]:
    """Conic M(C) for C: xz = y^2 and a nonsingular integer matrix M.

    A point x lies on M(C) when adj(M) x lies on C, so the form is
    (a0.x)(a2.x) - (a1.x)^2 with a_i the rows of adj(M)."""
    a0, a1, a2 = adjugate(m)
    f = line_pair(a0, a2)
    g = line_pair(a1, a1)
    return prim([u - v for u, v in zip(f, g)])


def image_point(m, s: int, t: int) -> tuple[int, ...]:
    """Image under M of the point (s^2 : st : t^2) of xz = y^2."""
    v = (s * s, s * t, t * t)
    return prim(tuple(dot(row, v) for row in m))


def intersections(curves, chord_ends) -> set[tuple[int, ...]]:
    """Pairwise intersection points of the components.

    Lines meet in one point. A line meets a conic only where
    `chord_ends[line]` says: every line next to a conic is a chord through
    two known rational points of it (a line meets a conic at most twice)."""
    points: set[tuple[int, ...]] = set()
    for c1, c2 in combinations(curves, 2):
        if len(c1) == 3 and len(c2) == 3:
            points.add(join(c1, c2))
        else:
            line = c1 if len(c1) == 3 else c2
            points.update(chord_ends[line])
    return points


def density(components, p) -> Fraction:
    """Lelong number at p: every component is a line or a smooth conic,
    so each curve through p counts once with its weight."""
    return sum((w for curve, w in components if on_curve(curve, p)), Fraction(0))


def level_set(components, points, threshold: Fraction, strict: bool):
    """Component curves and isolated points of the upper level set."""
    passes = (lambda v: v > threshold) if strict else (lambda v: v >= threshold)
    curves = {curve for curve, w in components if passes(w)}
    isolated = {
        p
        for p in points
        if passes(density(components, p)) and not any(on_curve(c, p) for c in curves)
    }
    return curves, isolated


def witness_covers(witness, curves, isolated, omitted) -> bool:
    """The witness holds every component curve and vanishes at every
    isolated point except the omitted one, which must be isolated."""
    if not any(witness):
        return False
    if omitted is not None and omitted not in isolated:
        return False
    for curve in curves:
        if len(curve) == 3:
            # a conic through three points of a line contains the line
            if len(witness) == 3:
                if witness != curve:
                    return False
            elif not all(conic_value(witness, p) == 0 for p in points_on_line(curve, 3)):
                return False
        elif witness != curve:
            return False
    return all(on_curve(witness, p) for p in isolated if p != omitted)
