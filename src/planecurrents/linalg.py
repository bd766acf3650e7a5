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

`eliminate` builds the state once. `rank` counts its rows, `kernel`
reads its pivots, and `read_off` an integer basis of the right nullspace by
back-substitution: each stored row is zero on the pivots of the rows
stored before it, so the rows on the pivot columns, in the order stored,
are triangular. Set a free column f to D, the last pivot entry, and every
other free column to 0, and solve the pivot entries from the last stored
row back. D is, up to sign, the minor of the basis rows on the pivot
columns, so by Cramer's rule every entry of the solution is a minor too:
each division is exact, and the vector is primitive after one gcd.
`nullspace` scales the same vectors to 1 at their free column, the basis
the reduced row echelon form gives. `projective.conic_space` takes the
`kernel` of Veronese rows. `projective.dependencies`, the one reader of
`cover` and `projective.max_on_curve`, eliminates the transposed
incidence rows of a point set, whose columns are the points, and reads
its vectors, the dependencies among the points, only at full rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
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


def read_off(echelon: list[tuple[int, Sequence[int]]], ncols: int) -> list[list[int]]:
    """A basis of the right nullspace of the rows that gave the state: one
    primitive integer vector per free column, ascending, positive there
    and zero at the other free columns (see the module docstring)."""
    pivots = {c for c, _ in echelon}
    d = echelon[-1][1][echelon[-1][0]] if echelon else 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = d
        for c, row in reversed(echelon):
            # vec is zero at every pivot not yet solved
            vec[c] = -sum(map(mul, row, vec)) // row[c]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def kernel(rows: Sequence[Row], ncols: int) -> tuple[list[int], list[list[int]]]:
    """The pivot columns of the reduced row echelon form, ascending, and
    the `read_off` basis of the nullspace. Column c is a pivot iff it is
    not in the span of the columns before it, so the pivots are the greedy
    basis of the columns taken in order."""
    echelon = eliminate(rows, ncols)
    return sorted(c for c, _ in echelon), read_off(echelon, ncols)


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column (ascending):
    the `kernel` vectors scaled to 1 at their free column, so 0 at the
    other free columns, the basis the reduced row echelon form gives."""
    pivots, basis = kernel(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    return [tuple(Fraction(x, vec[f]) for x in vec) for f, vec in zip(free, basis)]
