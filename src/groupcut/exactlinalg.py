"""Exact Gauss-Jordan elimination on integer rows.

The elimination takes sparse integer rows ((column, coefficient), ...), the
row format of both extremality systems; integer_kernel_basis is its entry
for them.  The Fraction entries rref, matrix_rank and kernel_basis check
the row lengths and scale each row to integers first.

The rows are read once, in input order, against a running reduced basis:
one primitive integer row per pivot column, zero in every other pivot
column.  A row is divided by its content (the gcd of its entries), then
each pivot column it holds is cleared by that pivot's row.  A step clears
a column with a*row - b*pivot_row and divides out the content again; as
the basis rows are reduced, a step fills in only non-pivot columns, so one
pass suffices.  A row that ends empty is dependent and dropped; otherwise
its smallest column becomes a new pivot, which is cleared from the basis
rows that hold it.  The basis is then the reduced row echelon form of the
rows read so far, up to a factor per row.  That form is unique, so the
order of the rows does not change the result, and each pivot row ends as
a primitive multiple of its reduced row; Fractions are built only for the
results.  Once the basis holds a pivot in every column the form is the
identity, so the rows not yet read are left unread; the Fraction entries
still check every row's length first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ParameterError


def _clear(row: dict, p: dict, c: int) -> dict:
    """row with column c cleared by the pivot row p, content divided out."""
    g = gcd(row[c], p[c])
    a, b = p[c] // g, row[c] // g
    new = {j: x for j in row.keys() | p.keys()
           if (x := a * row.get(j, 0) - b * p.get(j, 0))}
    g = gcd(*new.values())
    return {j: x // g for j, x in new.items()} if g > 1 else new


def _reduce(rows, ncols: int):
    """Primitive integer reduced rows and their pivot columns, from sparse
    integer rows ((column, coefficient), ...) over columns 0..ncols-1."""
    basis = {}
    for row in rows:
        if not (g := gcd(*(v for _, v in row))):
            continue
        row = {j: v // g for j, v in row}
        for c in [c for c in row if c in basis]:
            row = _clear(row, basis[c], c)
        if row:
            c = min(row)
            for k, p in basis.items():
                if c in p:
                    basis[k] = _clear(p, row, c)
            basis[c] = row
            if len(basis) == ncols:
                break  # full rank: every later row is dependent
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _integer_rows(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Each Fraction row as a sparse integer multiple of itself, every
    row's length checked before the elimination reads any."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ParameterError(f"row of length {len(row)}, expected {ncols}")
        den = lcm(*(e.denominator for e in row))
        out.append([(j, e.numerator * (den // e.denominator))
                    for j, e in enumerate(row) if e])
    return out


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (reduced rows, pivot columns)."""
    if not rows:
        return [], []
    reduced, pivots = _reduce(_integer_rows(rows, len(rows[0])), len(rows[0]))
    return [[Fraction(row.get(j, 0), row[c]) for j in range(len(rows[0]))]
            for row, c in zip(reduced, pivots)], pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : rows . v = 0}: per free column, the primitive integer
    vector that is positive there and zero in the other free columns."""
    return integer_kernel_basis(_integer_rows(rows, ncols), ncols)


def integer_kernel_basis(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """kernel_basis of sparse integer rows ((column, coefficient), ...)."""
    reduced, pivots = _reduce(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        scale = lcm(*(row[c] for row, c in zip(reduced, pivots) if fc in row))
        v = {c: -row.get(fc, 0) * (scale // row[c]) for row, c in zip(reduced, pivots)}
        v[fc] = scale
        g = gcd(*v.values())
        basis.append(tuple(Fraction(v.get(j, 0) // g) for j in range(ncols)))
    return basis
