import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from planecurrents import linalg

from itertools import combinations
from math import lcm

from oracles import (
    reference_det,
    reference_nullspace,
    reference_rank,
    reference_rref,
    reference_rref_on_basis,
)

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


@given(
    st.lists(
        st.lists(fractions_st, min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_matches_plain_elimination(rows):
    assert linalg.rank(rows) == reference_rank(rows)


def test_rank_matches_reference_on_random_integer_matrices():
    rng = random.Random(11)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert linalg.rank(rows) == reference_rank(rows)


def test_rank_handles_rank_deficient_shapes():
    rows = [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
    assert linalg.rank(rows) == 1
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0, 0]]) == 0


def _greedy_pivots(rows, ncols):
    """Columns, in order, that raise the reference rank of the columns
    kept before them."""
    kept = []
    for c in range(ncols):
        if reference_rank([[row[j] for j in kept + [c]] for row in rows]) > len(kept):
            kept.append(c)
    return kept


def test_pivots_are_the_greedy_column_basis():
    rng = random.Random(23)
    cases = [([], 3), ([[0, 0, 0]], 3), ([[0, 0, 7]], 3), ([[1, 2], [2, 4]], 2)]
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [Fraction(rng.choice((0, rng.randint(-9, 9))), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        extra = rng.randrange(4)
        if extra == 1:
            rows.insert(rng.randrange(nrows + 1), [Fraction(0)] * ncols)
        elif extra == 2:
            rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
        elif extra == 3:
            # a pivot in the last column, found last
            rows.append([0] * (ncols - 1) + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        cases.append((rows, ncols))
    for rows, ncols in cases:
        pivots = linalg.pivots(rows)
        assert pivots == _greedy_pivots(rows, ncols)
        assert linalg.rank(rows) == len(pivots)


def test_reduced_echelon_is_the_scaled_rref():
    rng = random.Random(29)
    cases = [[], [[0, 0, 0]], [[0, 5, 10]], [[1, 2], [2, 4]], [[0, 0], [0, 3], [4, 0]]]
    cases.append([[Fraction(1, 2), 3, 0], [1, Fraction(-2, 3), 5]])  # mixed rows are scaled first
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 12)
        bound = rng.choice((3, 9, 10**6))
        rows = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(ncols)] for _ in range(nrows)]
        shape = rng.randrange(4)
        if shape == 1:
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
        elif shape == 2:
            rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
        elif shape == 3:
            # rank deficient: every row a combination of two
            a, b = rows[0], rows[-1]
            mults = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in rows]
            rows = [[s * x + t * y for x, y in zip(a, b)] for s, t in mults]
        cases.append(rows)
    cases.append([[2, 1, 0], [1, 2, 0], [0, 0, 5]])  # a row scaled by 3/2, not by 3 // 2
    for rows in cases:
        echelon, pivots = linalg.reduced_echelon(rows)
        expected, expected_pivots = reference_rref(rows)
        assert pivots == expected_pivots == linalg.pivots(rows)
        assert all(type(x) is int for row in echelon for x in row)
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(echelon, pivots)] == expected
        # one common pivot entry d, every row exactly d times the RREF, and
        # |d| a k x k minor of the integer rows on the pivot columns
        d = echelon[0][pivots[0]] if pivots else 1
        assert all(row[c] == d for row, c in zip(echelon, pivots))
        assert echelon == [[d * x for x in row] for row in expected]
        scaled = [[x * lcm(*(Fraction(y).denominator for y in row)) for x in row] for row in rows]
        minors = {abs(reference_det([[scaled[i][c] for c in pivots] for i in sub]))
                  for sub in combinations(range(len(rows)), len(pivots))}
        assert abs(d) in minors


def test_pivot_on_is_a_basis_exchange():
    # after each exchange the rows are a times the reference RREF with
    # respect to the new basis, a being the entry pivoted on
    rng = random.Random(31)
    exchanges = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 12)
        bound = rng.choice((3, 9, 10**6))
        rows = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(ncols)] for _ in range(nrows)]
        echelon, basis = linalg.reduced_echelon(rows)
        for _ in range(3):
            d = echelon[0][basis[0]] if basis else 1
            options = [(r, c) for r in range(len(basis)) for c in range(ncols)
                       if c not in basis and echelon[r][c]]
            if not options:
                break
            r, c = rng.choice(options)
            a = echelon[r][c]
            linalg.pivot_on(echelon, r, c, d)
            basis[r] = c
            assert echelon == [[a * x for x in row] for row in reference_rref_on_basis(rows, basis)]
            exchanges += 1
    assert exchanges > 300


def test_nullspace_vectors_annihilate_rows():
    rng = random.Random(5)
    for _ in range(100):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(ncols)] for _ in range(nrows)]
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - linalg.rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_nullspace_is_the_reference_basis_exactly():
    # the cover witness is basis[0], so the basis itself is pinned, with
    # every entry a Fraction (0.0 == Fraction(0), hence the type check)
    rng = random.Random(17)
    cases = [([[0, 0, 1]], 3), ([[1, 2, 0], [0, 0, 5]], 3), ([[0]], 1), ([[3]], 1), ([], 4)]
    for _ in range(400):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = [
            [Fraction(rng.choice((0, rng.randint(-9, 9))), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows < 7 and rng.random() < 0.3:
            # a pivot in the last column, found last
            rows.append([0] * (ncols - 1) + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        cases.append((rows, ncols))
    for rows, ncols in cases:
        basis = linalg.nullspace(rows, ncols)
        assert basis == reference_nullspace(rows, ncols)
        assert all(type(x) is Fraction for vec in basis for x in vec)



def _kernel_cases(rng, count):
    """Integer matrices of the package's shapes: 3x3, 4-12 x 3 and 6-12
    Veronese rows of points (x^2, xy, xz, y^2, yz, z^2), with entries of
    one digit or of 64, and with zero, repeated and scaled rows mixed in."""
    cases = [([], 3), ([[0, 0, 0]], 3), ([[0, 0, 0]] * 3, 3), ([[0, 0, 5], [0, 0, -10], [0, 3, 0]], 3)]
    for _ in range(count):
        bound = rng.choice((3, 9, 10**64))
        kind = rng.randrange(3)
        if kind == 2:
            nrows, ncols = rng.randint(6, 12), 6
            points = [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(nrows)]
            rows = [[x * x, x * y, x * z, y * y, y * z, z * z] for x, y, z in points]
        else:
            nrows, ncols = (3 if kind == 0 else rng.randint(4, 12)), 3
            rows = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randrange(3)):
            extra = rng.randrange(3)
            if extra == 0:
                row = [0] * ncols
            elif extra == 1:
                row = list(rng.choice(rows))
            else:
                k = rng.choice((-3, -1, 2, 10**20))
                row = [k * x for x in rng.choice(rows)]
            rows.insert(rng.randrange(len(rows) + 1), row)
        cases.append((rows, ncols))
    return cases


def test_extend_echelon_is_the_greedy_row_basis_of_minors():
    # the rows taken are the greedy basis of the rows in order, each stored
    # row is the Bareiss row: at column x, the determinant of the basis
    # rows up to it on the pivot columns before it and x
    rng = random.Random(37)
    for rows, ncols in _kernel_cases(rng, 150):
        echelon = []
        taken = linalg.extend_echelon(echelon, rows, ncols)
        greedy = []
        for i, row in enumerate(rows):
            if reference_rank([rows[j] for j in greedy] + [row]) > len(greedy):
                greedy.append(i)
        assert taken == greedy and len(echelon) == reference_rank(rows)
        assert linalg.rank(rows) == len(taken)
        assert linalg.pivots(rows) == _greedy_pivots(rows, ncols) == sorted(c for c, _ in echelon)
        for k, (c, row) in enumerate(echelon):
            before = [p for p, _ in echelon[:k]]
            assert all(type(x) is int for x in row) and row[c] and not any(row[:c])
            for x in range(ncols):
                assert row[x] == reference_det([[rows[i][j] for j in before + [x]] for i in taken[: k + 1]])


def test_extend_echelon_continues_any_prefix_state():
    # echelon[:k] is the state after any prefix that gave its first k rows;
    # continued with any subset of the later rows it gives the rank of the
    # prefix and the subset, and leaves the echelon it was cut from as it was
    rng = random.Random(41)
    continued = 0
    for rows, ncols in _kernel_cases(rng, 120):
        echelon = []
        taken = linalg.extend_echelon(echelon, rows, ncols)
        saved = [(c, list(row)) for c, row in echelon]
        for j in range(len(rows) + 1):
            k = sum(i < j for i in taken)
            for _ in range(2):
                later = [row for row in rows[j:] if rng.random() < 0.6]
                state = echelon[:k]
                linalg.extend_echelon(state, later, ncols)
                assert len(state) == reference_rank(rows[:j] + later)
                continued += 1
        assert [(c, list(row)) for c, row in echelon] == saved
    assert continued > 1500
