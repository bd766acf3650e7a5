"""Exact linear algebra over the rationals.

Every exact fit runs on integers. `scaled_row` is the one scaling step:
it multiplies a rational row by the lcm of its denominators, which
leaves the rank and the row space unchanged; `integer_rows` applies it
to a matrix that is not all integers. Points, lines and conics are
integer tuples (`projective`), so the rows of every fit in the package
arrive as integers. For them the whole check is one `gcd` call over all
the entries, which accepts nothing but integers, before the rows are
copied.

Two eliminations, both fraction-free after Bareiss (Math. Comp., 1968):

* `extend_echelon` eliminates row by row, and `rank` and `pivots` run
  on it. Its state is a list of (pivot column, row) pairs. A new row is
  reduced against them in their order: with d the pivot entry of the
  pair before (1 before the first) and a = pivot_row[c], the row becomes
  (a * row - row[c] * pivot_row) / d, and a is the next d. The division
  is exact: by the Sylvester identity, after k steps entry x is the
  determinant of the first k stored rows' input rows and the new row's
  on the columns c_1, ..., c_k, x, as in Bareiss's algorithm on those
  rows with the pivot columns taken first. A row that is zero after
  every step lies in the span of the stored ones; otherwise it is stored
  with its first nonzero column as its pivot, which is none of the pivots
  before (the minors on a repeated column vanish). Its pivot entry is
  then a nonzero (k + 1) x (k + 1) minor, so the rows stored are the
  greedy basis of the rows taken in order, and their pivots are leading
  columns of vectors of the row space, distinct, as many as its rank:
  the pivot columns of its reduced row echelon form, which are the
  greedy basis of the columns. No stored row changes, so a prefix of the
  state can be continued with other rows, as `cover.verify_verdict`
  does for each omission. The elimination stops once every column is a
  pivot. For a rank it is 2.0 to 3.0 times faster than `reduced_echelon`
  on 3x3 integer matrices, 3.5 to 6.8 times on 7x3 and 12x3, and 2.1 to
  5.4 times on the Veronese rows of 6, 9 and 12 points, with entries of
  one digit or of 64 (300 random matrices of each shape, best of 9,
  three runs, Python 3.11.7 on a 2-vCPU x86-64 VM).
* `reduced_echelon` runs Gauss-Jordan by single fraction-free pivot
  steps (`pivot_on`). Every pivot entry of the tableau equals one value
  d, 1 at the start. A step on the nonzero entry a = m[r][c] leaves row
  r as it is, turns every other row into (a * row - row[c] * m[r]) / d
  and makes a the new d. The division is exact. With B the submatrix of
  the input on the pivot rows and columns (in the order and sign the
  steps took them), the pivot rows are det(B) * B^-1 times the input's,
  and d = det(B); so every entry is a minor of the input (an entry of a
  row not yet a pivot row is a minor one larger), and the step is the
  basis exchange whose new determinant is a. The same argument covers
  any later exchange, as in `cover`, given the d of the tableau it
  starts from. So each row is d times the matching row of the reduced
  row echelon form, with that form's zero pattern, at the cost of one
  exact division per entry and no gcd. Its pivot columns are the same
  greedy basis as `pivots`. `nullspace` reads its basis off these rows,
  dividing only there, into `Fraction`s; `projective.conic_space` reads
  the same basis as integers, scaled by d.

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


def pivots(rows: Sequence[Row]) -> list[int]:
    """Pivot columns of the reduced row echelon form, ascending, read as
    the pivots of `extend_echelon`. Column c is a pivot iff it is not in
    the span of the columns before it, so the pivots are the greedy basis
    of the columns taken in order."""
    m = integer_rows(rows)
    echelon: list = []
    extend_echelon(echelon, m, len(m[0]) if m else 0)
    return sorted(c for c, _ in echelon)


def rank(rows: Sequence[Row]) -> int:
    """Exact rank of a rational matrix (rows of equal length)."""
    return len(pivots(rows))


def pivot_on(m: list[list[int]], r: int, c: int, d: int) -> None:
    """One fraction-free Gauss-Jordan step on integer rows, in place, for
    a tableau whose pivot entries all equal d (1 before the first step):
    with a = m[r][c] nonzero, row r stays as it is and every other row
    becomes (a * row - row[c] * m[r]) / d, a division that is exact (see
    the module docstring). Column c is then zero off row r, and every
    pivot entry, row r's at c included, equals a, the next step's d."""
    pivot_row = m[r]
    a = pivot_row[c]
    for s, row in enumerate(m):
        b = row[c]
        if b and s != r:
            m[s] = [(a * x - b * y) // d for x, y in zip(row, pivot_row)]
        elif not b and a != d:
            m[s] = [a * x // d for x in row]


def reduced_echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form: the nonzero rows, each with
    its pivot in the matching entry of the ascending pivot column list,
    and zero in every other pivot column. Every pivot entry equals one d,
    up to sign the k x k minor of the integer rows on the pivot columns
    and the rows that became pivot rows, and each row is d times the
    matching row of the reduced row echelon form. The pivots are those of
    `pivots`."""
    m = integer_rows(rows)
    pivots: list[int] = []
    d = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pivot_on(m, r, c, d)
        d = m[r][c]
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
