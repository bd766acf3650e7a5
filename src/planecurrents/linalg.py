"""Exact linear algebra over the rationals.

Every exact fit runs on integers. `integer_rows` is the one scaling step:
it multiplies each rational row by the lcm of its denominators, which
leaves the rank and the row space unchanged, and only copies an integer
row. Points, lines and conics are integer tuples (`projective`), so the
rows of every fit in the package arrive as integers.

One elimination serves every question: a fraction-free (Bareiss 1968)
row echelon form of the integer-scaled rows. By the Sylvester identity
each intermediate entry is a minor of the input, so entries grow with the
matrix, not multiplicatively with each step. `pivots` lists the pivot
columns, the rank is their number, and the nullspace basis comes from
back-substitution on the echelon rows; only that last step divides, and
it returns `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import SingularMatrix

Row = Sequence[Fraction | int]


def integer_rows(rows: Iterable[Row]) -> list[list[int]]:
    """Integer rows with the same rank and row space, as new lists: an
    integer row is copied, any other is multiplied by the lcm of its
    denominators."""
    scaled = []
    for row in rows:
        if all(type(x) is int for x in row):
            scaled.append(list(row))
        else:
            denom = lcm(*(x.denominator for x in row))
            scaled.append([x.numerator * (denom // x.denominator) for x in row])
    return scaled


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


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column (ascending):
    the vector is 1 at its free column and 0 at the other free columns, so
    the basis is the one the reduced row echelon form gives."""
    echelon, pivots = _echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in reversed(list(zip(echelon, pivots))):
            # Fraction(...), not /: past the last column the sum is an int 0
            vec[c] = Fraction(-sum(row[j] * vec[j] for j in range(c + 1, ncols)), row[c])
        basis.append(tuple(vec))
    return basis


Mat3 = tuple[tuple[Fraction, ...], ...]


def as_mat3(rows) -> Mat3:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(m) != 3 or any(len(r) != 3 for r in m):
        raise ValueError("expected a 3x3 matrix")
    return m


def det3(m: Mat3) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inv3(m: Mat3) -> Mat3:
    d = det3(m)
    if d == 0:
        raise SingularMatrix("matrix is not invertible")
    (a, b, c), (e, f, g), (h, i, j) = m
    cof = (
        (f * j - g * i, c * i - b * j, b * g - c * f),
        (g * h - e * j, a * j - c * h, c * e - a * g),
        (e * i - f * h, b * h - a * i, a * f - b * e),
    )
    return tuple(tuple(x / d for x in row) for row in cof)


def matmul3(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def matvec3(m: Mat3, v: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def transpose3(m: Mat3) -> Mat3:
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))
