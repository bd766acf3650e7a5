"""Exact linear algebra over the rationals.

Every exact fit runs on integers. `scaled_row` is the one scaling step:
it multiplies a rational row by the lcm of its denominators, which
leaves the rank and the row space unchanged; `integer_rows` applies it
to a matrix that is not all integers. Points, lines and conics are
integer tuples (`projective`), so the rows of every fit in the package
arrive as integers. For them the whole check is one `gcd` call over all
the entries, which accepts nothing but integers, before the rows are
copied.

Two eliminations, both fraction-free:

* `pivots` and `rank` run a Bareiss (1968) row echelon form. By the
  Sylvester identity each intermediate entry is a minor of the input, so
  entries grow with the matrix, not multiplicatively with each step.
  It clears below the pivots only and divides exactly, so for a rank it
  is two to three times faster than `reduced_echelon` on the 3x3 to
  11x6 integer matrices of the package.
* `reduced_echelon` runs Gauss-Jordan by single pivot steps (`pivot_on`):
  every row but the pivot row is cleared in the pivot column and divided
  by its gcd. Each resulting row is a nonzero integer multiple of the
  matching row of the reduced row echelon form, so its zero pattern is
  exactly that form's. Its pivot columns are the same greedy basis as
  `pivots`. `nullspace` reads its basis off these rows, dividing only
  there, into `Fraction`s; `projective.conic_space` reads the same basis
  as integers, scaled by the lcm of the pivots.

`coloops` reads, from one such echelon of columns, the columns that lie
in every basis of them. `cover` and `projective.max_on_curve` take it of
the transposed incidence rows of a point set, whose columns are the
points; `cover` keeps that echelon up to date by further `pivot_on` steps
while it prunes points.
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


def _echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form: the nonzero integer rows, each with
    its pivot in the matching entry of the ascending pivot column list."""
    m = integer_rows(rows)
    pivots: list[int] = []
    if not m:
        return m, pivots
    ncols = len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            for j in range(c + 1, ncols):
                # exact by the Sylvester identity: entries stay minors
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def pivots(rows: Sequence[Row]) -> list[int]:
    """Pivot columns of the echelon form, ascending. Column c is a pivot
    iff it is not in the span of the columns before it, so the pivots are
    the greedy basis of the columns taken in order."""
    return _echelon(rows)[1]


def rank(rows: Sequence[Row]) -> int:
    """Exact rank of a rational matrix (rows of equal length)."""
    return len(pivots(rows))


def pivot_on(m: list[list[int]], r: int, c: int) -> None:
    """One Gauss-Jordan step on integer rows, in place: row r, divided by
    its gcd, keeps its nonzero entry at column c, and every other row with
    a nonzero entry there becomes m[r][c] * row - row[c] * m[r], divided by
    its gcd. The rows span the same space, and column c is zero off row r."""
    pivot_row = m[r]
    g = gcd(*pivot_row)
    if g > 1:
        pivot_row = m[r] = [x // g for x in pivot_row]
    a = pivot_row[c]
    for s, row in enumerate(m):
        b = row[c]
        if b and s != r:
            row = [a * x - b * y for x, y in zip(row, pivot_row)]
            g = gcd(*row)
            m[s] = [x // g for x in row] if g > 1 else row


def reduced_echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form: the nonzero rows, each with
    its gcd divided out and its pivot in the matching entry of the
    ascending pivot column list, and zero in every other pivot column.
    Scaling row i to a pivot of 1 gives row i of the reduced row echelon
    form, and the pivots are those of `pivots`."""
    m = integer_rows(rows)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pivot_on(m, r, c)
        pivots.append(c)
        if r + 1 == len(m):
            break
    return m[: len(pivots)], pivots


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column (ascending):
    the vector is 1 at its free column, 0 at the other free columns and
    -row[f] / row[c] at the pivot column c of each reduced echelon row, so
    the basis is the one the reduced row echelon form gives."""
    echelon, pivots = reduced_echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(echelon, pivots):
            vec[c] = Fraction(-row[f], row[c])
        basis.append(tuple(vec))
    return basis


def coloops(echelon: Sequence[Sequence[int]], basis: Sequence[int], live: Iterable[int]) -> list[int]:
    """The columns of `basis`, in its order, whose echelon rows are zero on
    every live column outside it: the coloops of the live columns, which
    lie in every basis of them. `echelon` must be zero off row i in column
    basis[i], as `reduced_echelon` and `pivot_on` leave it; then a column
    outside the basis is the combination of the basis columns given by its
    entries, and a basis column that no such combination uses is not in
    the span of the others. Which basis is read does not change the
    coloops (Oxley, Matroid Theory, 2011, ch. 2)."""
    free = [j for j in live if j not in basis]
    return [b for row, b in zip(echelon, basis) if not any(row[j] for j in free)]
