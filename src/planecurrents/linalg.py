"""Exact linear algebra over the rationals.

Every exact fit runs on integers. `scaled_row` is the one scaling step:
it multiplies a rational row by the lcm of its denominators, which
leaves the rank and the row space unchanged; `integer_rows` applies it
to a matrix that is not all integers. Points, lines and conics are
integer tuples (`projective`), so the rows of every fit in the package
arrive as integers. For them the whole check is one `gcd` call over all
the entries, which accepts nothing but integers, before the rows are
copied.

One elimination, fraction-free after Bareiss (Math. Comp., 1968):
`extend_echelon` eliminates row by row. Its state is a list of (pivot
column, row) pairs. A new row is reduced against them in their order:
with d the pivot entry of the pair before (1 before the first) and
a = pivot_row[c], the row becomes (a * row - row[c] * pivot_row) / d, and
a is the next d. The division is exact: by the Sylvester identity, after
k steps entry x is the determinant of the first k stored rows' input rows
and the new row's on the columns c_1, ..., c_k, x, as in Bareiss's
algorithm on those rows with the pivot columns taken first. A row that is
zero after every step lies in the span of the stored ones; otherwise it
is stored with its first nonzero column as its pivot, which is none of
the pivots before (the minors on a repeated column vanish). Its pivot
entry is then a nonzero (k + 1) x (k + 1) minor, so the rows stored are
the greedy basis of the rows taken in order, and their pivots are leading
columns of vectors of the row space, distinct, as many as its rank: the
pivot columns of its reduced row echelon form, which are the greedy basis
of the columns. No stored row changes, so a prefix of the state can be
continued with other rows, as `cover.verify_verdict` does for each
omission. The elimination stops once every column is a pivot.

`eliminate` builds the state once, and `rank` counts its rows. `tableau`
solves it back: each stored row is zero on the pivots of the rows stored
before it, so the rows on the pivot columns, in the order stored, are
triangular, and from the last one back they give each pivot's row of the
reduced row echelon form on the free columns, times D, the last pivot
entry. D is, up to sign, the minor of the basis rows on the pivot
columns, so by Cramer's rule every entry is a minor and each division is
exact. Pivots first, the reduced form is the standard representation
[I | A] (Oxley, Matroid Theory, 2011, 2.2): the columns of [-A; I] span
its nullspace, and [-A^T | I] represents its dual matroid. `kernel` builds
those vectors from the r rows of D*A, each primitive after one gcd, and
`nullspace` scales them to 1 at their free column. `projective` takes the
`kernel` of Veronese rows and the tableau of a point set's dependencies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

Row = Sequence[Fraction | int]


def scaled_row(row: Row) -> list[int]:
    """The row times the lcm of its denominators: integers with the same
    ratios (an int is its own numerator over the denominator 1)."""
    denom = lcm(*(x.denominator for x in row))
    return [x.numerator * (denom // x.denominator) for x in row]


def integer_rows(rows: Iterable[Row]) -> list[list[int]]:
    """Integer rows with the same rank and row space, as new lists: integer
    rows are copied, and otherwise each row is scaled."""
    rows = list(rows)
    try:
        gcd(*chain.from_iterable(rows))  # a TypeError unless every entry is an integer
    except TypeError:
        return [scaled_row(row) for row in rows]
    return [list(row) for row in rows]


def extend_echelon(
    echelon: list[tuple[int, Sequence[int]]], rows: Sequence[Sequence[int]], ncols: int
) -> list[int]:
    """Row by row fraction-free elimination, in place, until the echelon
    has ncols rows. The echelon is a list of (pivot column, row) pairs;
    each integer row is reduced against them in their order by Bareiss
    steps (see the module docstring), and appended, with its first
    nonzero column as its pivot, if it stays nonzero. Returns the indices
    in `rows` of the rows appended: the greedy basis of the rows taken in
    order. No row is changed in place, so `echelon[:k]` is the state
    after the row that gave the k-th pair, or after any later row before
    the one that gave the next, and a copy of it can be continued."""
    taken = []
    for i, row in enumerate(rows):
        if len(echelon) == ncols:
            break
        d = 1
        for c, pivot_row in echelon:
            a, b = pivot_row[c], row[c]
            if b:
                row = [(a * x - b * y) // d for x, y in zip(row, pivot_row)]
            elif a != d:
                row = [a * x // d for x in row]
            d = a
        for lead, x in enumerate(row):
            if x:
                echelon.append((lead, row))
                taken.append(i)
                break
    return taken


def eliminate(rows: Sequence[Row], ncols: int) -> list[tuple[int, list[int]]]:
    """The `extend_echelon` state of the rows, scaled to integers."""
    echelon: list = []
    extend_echelon(echelon, integer_rows(rows), ncols)
    return echelon


def rank(rows: Sequence[Row]) -> int:
    """Exact rank of a rational matrix (rows of equal length)."""
    return len(eliminate(rows, len(rows[0]) if rows else 0))


def tableau(echelon: list[tuple[int, Sequence[int]]], ncols: int) -> tuple[int, list[int], dict[int, list[int]]]:
    """(D, free, rows) of the rows that gave the state: D, the last pivot
    entry (1 for no rows), the free columns, ascending, and for each pivot
    D times its row of the reduced row echelon form on the free columns,
    by back-substitution with exact divisions (see the module docstring)."""
    pivots = {c for c, _ in echelon}
    free = [c for c in range(ncols) if c not in pivots]
    d = echelon[-1][1][echelon[-1][0]] if echelon else 1
    rows: dict[int, list[int]] = {}
    for c, row in reversed(echelon):
        # a stored row is row[c] * (row c) + row[p] * (row p) at later pivots p
        acc = [d * row[f] for f in free]
        for p, solved in rows.items():
            if b := row[p]:
                acc = [x - b * y for x, y in zip(acc, solved)]
        a = row[c]
        rows[c] = [x // a for x in acc]
    return d, free, rows


def kernel(rows: Sequence[Row], ncols: int) -> tuple[list[int], list[list[int]]]:
    """The pivot columns, ascending, the greedy basis of the columns taken
    in order, and the nullspace from the `tableau`: one primitive integer
    vector per free column, ascending, positive there, 0 at the others."""
    d, free, solved = tableau(eliminate(rows, ncols), ncols)
    basis = []
    for k, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = d
        for c, row in solved.items():
            vec[c] = -row[k]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return sorted(solved), basis


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column (ascending):
    the `kernel` vectors scaled to 1 at their free column, so 0 at the
    other free columns, the basis the reduced row echelon form gives."""
    pivots, basis = kernel(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    return [tuple(Fraction(x, vec[f]) for x in vec) for f, vec in zip(free, basis)]
