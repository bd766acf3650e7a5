import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from planecurrents import linalg

from math import gcd

from oracles import reference_nullspace, reference_rank, reference_rref

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
    for rows in cases:
        echelon, pivots = linalg.reduced_echelon(rows)
        expected, expected_pivots = reference_rref(rows)
        assert pivots == expected_pivots == linalg.pivots(rows)
        assert all(type(x) is int for row in echelon for x in row)
        assert all(gcd(*row) == 1 for row in echelon)
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(echelon, pivots)] == expected


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

