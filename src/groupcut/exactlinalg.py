"""Exact Gauss-Jordan elimination on integer rows, after a rank pass
modulo a prime.

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

The kernel entries first run the same elimination modulo the prime
P = 2^61 - 1, on word-sized residues with monic pivot rows, and note the
rows that raised the rank there (the rank rows).  That pass reads a row by
accumulating it against the basis in one dict of plain integer products,
then tests the sums for zero modulo P: a dependent row, the common case,
is dropped there, and only a row that raises the rank is reduced modulo
P, made monic and cleared from the basis rows.  A rank that is full
modulo P is full over Q: the ncols x ncols minor of the rank rows is
nonzero modulo P, so it is a nonzero integer.  The kernel is then empty
and no exact step runs.  A rank that is short modulo P proves nothing (P
may divide every full minor), so the exact elimination still computes the
kernel, the only source of kernels: first on the rank rows alone, then,
if any other row has a nonzero integer dot product with a vector of that
kernel, on all rows.  When every other row vanishes on it, the two
kernels, and so the reduced forms, are equal, and the result is the one
the elimination of all rows gives.  rref and matrix_rank run exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ParameterError
from .rational import on_grid

P = (1 << 61) - 1  # a Mersenne prime


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


def _rank_rows(rows, ncols: int) -> list[int]:
    """Indices of the rows that raise the rank modulo P, read in order up
    to ncols of them: `_reduce` over GF(P), each basis row monic with its
    pivot entry 1 left out and zero in the other pivot columns, so one
    pass of products clears a row of every pivot column."""
    basis: dict[int, dict] = {}
    picked = []
    for i, row in enumerate(rows):
        acc = {}
        for j, v in row:
            if (p := basis.get(j)) is None:
                acc[j] = acc.get(j, 0) + v
            else:
                for k, x in p.items():
                    acc[k] = acc.get(k, 0) - v * x
        for a in acc.values():
            if a % P:
                break
        else:
            continue  # dependent modulo P
        row = {j: x for j, a in acc.items() if (x := a % P)}
        c = min(row)
        inv = pow(row.pop(c), -1, P)
        row = {j: x * inv % P for j, x in row.items()}
        for p in basis.values():
            if c in p:
                b = p.pop(c)
                for j, x in row.items():
                    p[j] = (p.get(j, 0) - b * x) % P
        basis[c] = row
        picked.append(i)
        if len(basis) == ncols:
            break  # full rank: every later row is dependent
    return picked


def _integer_rows(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Each Fraction row as a sparse integer multiple of itself, every
    row's length checked before the elimination reads any."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ParameterError(f"row of length {len(row)}, expected {ncols}")
        out.append([(j, e) for j, e in enumerate(on_grid(row)[1]) if e])
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
    rank_rows = _rank_rows(rows := list(rows), ncols)
    return [] if len(rank_rows) == ncols else _exact_kernel(
        rows, rank_rows, ncols)


def _exact_kernel(rows: Sequence, rank_rows, ncols: int):
    """The kernel basis of sparse integer rows with fewer than ncols rank
    rows: that of the rank rows if every other row vanishes on it."""
    basis = _kernel(*_reduce([rows[i] for i in rank_rows], ncols), ncols)
    if not _vanishes(rows, set(rank_rows), basis):
        basis = _kernel(*_reduce(rows, ncols), ncols)
    return [tuple(map(Fraction, vec)) for vec in basis]


def _vanishes(rows, skip, basis) -> bool:
    """Whether every row outside skip has a zero integer dot product with
    every vector of basis; stops at the first nonzero."""
    for vec in basis:
        at = vec.__getitem__
        for i, row in enumerate(rows):
            if i not in skip:
                dot = 0
                for j, v in row:
                    dot += v * at(j)
                if dot:
                    return False
    return True


def _kernel(reduced, pivots, ncols: int) -> list[list[int]]:
    """Per free column, the primitive integer kernel vector of the reduced
    rows that is positive there and zero in the other free columns."""
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        scale = lcm(*(row[c] for row, c in zip(reduced, pivots) if fc in row))
        v = {c: -row.get(fc, 0) * (scale // row[c]) for row, c in zip(reduced, pivots)}
        v[fc] = scale
        g = gcd(*v.values())
        basis.append([v.get(j, 0) // g for j in range(ncols)])
    return basis
