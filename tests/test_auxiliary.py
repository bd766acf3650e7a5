"""The paper's auxiliary currents, built in test code on component lists:
blends that keep mass 1 and push chosen densities past 2/5, and the
rescaled residual of a heavy line, which pushes off-line densities past
1/2."""

import random
from fractions import Fraction

from planecurrents.currents import DivisorCurrent
from planecurrents.projective import (
    Line,
    Point,
    line_through,
    multiplicity,
    on_common_curve,
)

from oracles import (
    blend_current,
    random_point,
    random_points,
    random_unit_current,
    rescaled_residual,
    weight_of,
)

TWO_FIFTHS = Fraction(2, 5)


def random_alpha_prime(rng) -> Fraction:
    # uniformly among rationals strictly inside (2/5, 1)
    den = rng.randint(11, 60)
    lo = (2 * den) // 5 + 1
    return Fraction(rng.randint(lo, den - 1), den)


def line_weight_bound(alpha_prime) -> Fraction:
    """The weight (4a' - 1)/3 above which a rescaled residual lifts every
    off-line density above (2/3)(1 - a') past 1/2."""
    return (4 * alpha_prime - 1) / 3


def triangle(rng):
    while True:
        pts = random_points(rng, 3)
        if not on_common_curve(pts, 1):
            return pts


def sides(p1, p2, p3) -> list[Line]:
    return [line_through(p, q) for p, q in ((p1, p2), (p1, p3), (p2, p3))]


def test_blend_three_lines_mass_and_bounds():
    rng = random.Random(3)
    for _ in range(100):
        ap = random_alpha_prime(rng)
        t = random_unit_current(rng)
        corners = triangle(rng)
        blended = blend_current(t, sides(*corners), ap)
        assert blended.mass == 1
        # every corner sits on two of the three blend lines
        corner_floor = 2 * (5 * ap - 2) / (15 * ap)
        for p in corners:
            assert blended.lelong_number(p) >= corner_floor


def test_blend_three_lines_corner_bound_with_dense_corners():
    rng = random.Random(5)
    for _ in range(50):
        ap = random_alpha_prime(rng)
        beta_prime = Fraction(2, 3) * (1 - ap)
        corners = triangle(rng)
        # give each corner density beta_prime + margin via its own pencil line
        margin = Fraction(1, 50)
        aux = []
        spare = 1 - 3 * (beta_prime + margin)
        if spare < 0:
            continue
        for p in corners:
            q = random_point(rng)
            if q == p:
                q = Point(q.coords[0] + 1, q.coords[1], q.coords[2])
            aux.append((beta_prime + margin, line_through(p, q)))
        aux.append((spare, Line(1, 1, 1)))
        t = DivisorCurrent(aux)
        if t.mass != 1:
            continue
        blended = blend_current(t, sides(*corners), ap)
        for p in corners:
            if t.lelong_number(p) > beta_prime:
                assert blended.lelong_number(p) > TWO_FIFTHS, (ap, p)


def test_blend_heavy_extra_points_pass_two_fifths():
    rng = random.Random(7)
    for _ in range(50):
        ap = random_alpha_prime(rng)
        alpha = ap + (1 - ap) / rng.randint(2, 6)  # alpha > alpha'
        hub = random_point(rng)
        spokes = []
        while len(spokes) < 3:
            q = random_point(rng)
            if q != hub:
                line = line_through(hub, q)
                if line not in spokes:
                    spokes.append(line)
        third = Fraction(1, 3)
        t = DivisorCurrent([(alpha * third, l) for l in spokes])
        t = DivisorCurrent([*t.components, (1 - t.mass, Line(1, 2, 3))])
        if t.lelong_number(hub) < alpha:
            continue
        blended = blend_current(t, sides(*triangle(rng)), ap)
        assert blended.lelong_number(hub) > TWO_FIFTHS


def test_blend_single_line_mass_and_bound():
    rng = random.Random(13)
    for _ in range(100):
        ap = random_alpha_prime(rng)
        t = random_unit_current(rng)
        line = line_through(*random_points(rng, 2))
        assert blend_current(t, [line], ap).mass == 1


def test_blend_single_line_point_on_line_bound():
    rng = random.Random(17)
    for _ in range(50):
        ap = random_alpha_prime(rng)
        beta_prime = Fraction(2, 3) * (1 - ap)
        line = Line(0, 0, 1)
        p = Point(1, rng.randint(-5, 5), 0)  # on z = 0
        margin = Fraction(1, 60)
        cross = line_through(p, Point(0, 0, 1))
        t = DivisorCurrent([(beta_prime + margin, cross), (1 - beta_prime - margin, Line(1, 1, 1))])
        if t.mass != 1 or t.lelong_number(p) <= beta_prime:
            continue
        assert blend_current(t, [line], ap).lelong_number(p) > TWO_FIFTHS


def test_line_weight_bound_values_and_monotonicity():
    assert line_weight_bound(Fraction(1, 2)) == Fraction(1, 3)
    rng = random.Random(19)
    values = sorted(random_alpha_prime(rng) for _ in range(50))
    bounds = [line_weight_bound(a) for a in values]
    assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_identity_four_alpha_plus_six_beta():
    rng = random.Random(23)
    for _ in range(100):
        ap = random_alpha_prime(rng)
        beta_prime = Fraction(2, 3) * (1 - ap)
        assert 4 * ap + 6 * beta_prime == 4


def test_residual_rescale_identity_cases():
    rng = random.Random(29)
    t = random_unit_current(rng)
    line = Line(7, 11, 13)
    assert weight_of(t, line) == 0
    assert rescaled_residual(t, line) == t


def test_residual_rescale_mass_and_closed_form():
    rng = random.Random(31)
    for _ in range(100):
        t = random_unit_current(rng)
        weight, line = t.components[0]
        if weight == 1:
            continue
        residual = rescaled_residual(t, line)
        assert residual.mass == 1
        for p in t.support_intersections():
            expected = (t.lelong_number(p) - weight * multiplicity(p, line)) / (1 - weight)
            assert residual.lelong_number(p) == expected


def test_residual_rescale_half_bound_chain():
    rng = random.Random(37)
    checked = 0
    while checked < 100:
        ap = random_alpha_prime(rng)
        beta_prime = Fraction(2, 3) * (1 - ap)
        bound = line_weight_bound(ap)
        # a in (bound, 1) with room for an off-line point of density > beta_prime
        a = bound + (1 - bound) / rng.randint(3, 9)
        w = beta_prime + (1 - a - beta_prime) / rng.randint(2, 9)
        if w <= beta_prime or a + w > 1:
            continue
        line = Line(0, 0, 1)
        p = Point(rng.randint(-4, 4), rng.randint(-4, 4), 1)  # off z = 0
        q = random_point(rng)
        if q == p:
            continue
        through = line_through(p, q)
        if through == line:
            continue
        filler = 1 - a - w
        components = [(a, line), (w, through)]
        if filler:
            spare = Line(1, -1, 3)
            if spare in (line, through):
                spare = Line(1, -1, 4)
            components.append((filler, spare))
        t = DivisorCurrent(components)
        if t.mass != 1 or t.lelong_number(p) <= beta_prime:
            continue
        assert rescaled_residual(t, line).lelong_number(p) > Fraction(1, 2)
        checked += 1
