import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from planecurrents import linalg

from math import gcd

from oracles import (
    reference_det,
    reference_nullspace,
    reference_rank,
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
        pivots = linalg.kernel(rows, ncols)[0]
        assert pivots == _greedy_pivots(rows, ncols)
        assert linalg.rank(rows) == len(pivots)


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
        assert linalg.kernel(rows, ncols)[0] == _greedy_pivots(rows, ncols) == sorted(c for c, _ in echelon)
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


def test_kernel_is_the_primitive_reference_nullspace():
    # one integer vector per free column, primitive and positive there,
    # proportional to the reference vector (1 there, 0 at the other free
    # columns), on the package's shapes and their transposes, whose
    # columns are points, with the greedy column basis as pivots; the same
    # vectors are read off a state built in two `extend_echelon` calls
    rng = random.Random(43)
    cases = _kernel_cases(rng, 150)
    cases += [(list(zip(*rows)), len(rows)) for rows, _ in cases]
    for _ in range(60):
        # transposed coordinate and Veronese rows of up to 12 points
        n, bound = rng.randint(1, 12), rng.choice((9, 10**64))
        points = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(3)] for _ in range(n)]
        veronese = [[x * x, x * y, x * z, y * y, y * z, z * z] for x, y, z in points]
        cases += [(list(zip(*points)), n), (list(zip(*veronese)), n)]
    cases.append(([[Fraction(1, 2), 3, 0], [1, Fraction(-2, 3), 5]], 3))  # rational rows are scaled first
    cases.append(([[2, 1, 0], [1, 2, 0], [0, 0, 5]], 3))
    combined = 0
    for rows, ncols in cases:
        pivots, basis = linalg.kernel(rows, ncols)
        assert pivots == _greedy_pivots(rows, ncols) and linalg.rank(rows) == len(pivots)
        state, m = [], linalg.integer_rows(rows)
        j = rng.randint(0, len(m))
        linalg.extend_echelon(state, m[:j], ncols)
        linalg.extend_echelon(state, m[j:], ncols)
        assert linalg.read_off(state, ncols) == basis
        expected = reference_nullspace(rows, ncols)
        assert len(basis) == len(expected) == ncols - len(pivots)
        free = [c for c in range(ncols) if c not in pivots]
        for f, vec, ref in zip(free, basis, expected):
            assert all(type(x) is int for x in vec) and len(vec) == ncols
            assert gcd(*vec) == 1 and vec[f] > 0
            assert vec == [vec[f] * x for x in ref]
        combined += bool(basis) and bool(pivots)
    assert combined > 200
    for ncols in range(5):
        units = [[int(c == f) for c in range(ncols)] for f in range(ncols)]
        assert linalg.kernel([], ncols) == ([], units)
        assert linalg.kernel([[0] * ncols] * 2, ncols) == ([], units)
