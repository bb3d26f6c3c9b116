"""Z-periodic piecewise linear functions with exact rational data.

A function is represented by its restriction to [0, 1]: an increasing list
of possible breakpoints 0 = x_0 < ... < x_n = 1 and, at each breakpoint, the
triple (value, right limit, left limit).  On each open interval
(x_i, x_{i+1}) the function is the affine interpolation of the right limit
at x_i and the left limit at x_{i+1}; this supports one-sided
discontinuities.  Periodicity is implicit: the triples stored at 0 and at 1
are equal and describe the one periodic point, so the left limit stored
at 0 is the left limit at 1 and the right limit stored at 1 the right
limit at 0.  ``__call__``, ``limit`` and ``limits_at`` share one
interpolation: the first two read the triple ``limits_at`` returns, the
stored one at a breakpoint and the interpolated value three times
elsewhere.  One keep rule, `_kept`, merges on integer tables: it keeps the
ends, discontinuities and slope changes (by integer slope id) for
`_canonical`, random_piecewise_function (integer draws over 2*ygrid),
linear_combination and extremality.perturbation_from_vector.

Discrete functions on the cyclic group (1/q)Z are represented by their full
value table on [0, 1].

All instances are immutable after construction and safe to share.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Optional, Sequence

from . import _scan
from .errors import ConstructionError
from .rational import common_denominator, on_grid, to_rational

Triple = tuple[Fraction, Fraction, Fraction]  # (value, right limit, left limit)


@dataclass(repr=False, slots=True)
class AffinePiece:
    """Affine data of the smallest face of the breakpoint complex containing
    a point: value = slope*x + intercept on the relative interior of face."""

    slope: Fraction
    intercept: Fraction
    face: tuple[Fraction, Fraction]

    def __call__(self, x) -> Fraction:
        return self.slope * to_rational(x) + self.intercept

    def __repr__(self):
        return f"AffinePiece({self.slope}*x + {self.intercept} on {self.face})"


def _coerce_triple(t) -> Triple:
    if isinstance(t, dict):
        # alternative spelling {-1: left, 0: value, 1: right}
        return (to_rational(t[0]), to_rational(t[1]), to_rational(t[-1]))
    value, right, left = t
    return (to_rational(value), to_rational(right), to_rational(left))


def _reduce_mod_one(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(eq=False, repr=False, slots=True)
class PiecewiseFunction:
    """Z-periodic piecewise linear function, possibly discontinuous.

    Construct through :func:`from_breakpoints_and_values`,
    :func:`from_breakpoints_and_limits` or the compendium constructors.
    """

    breakpoints: tuple[Fraction, ...]
    limits: tuple[Triple, ...]
    f: Optional[Fraction] = None
    _cache: dict = field(default_factory=dict, init=False)

    # -- data access -------------------------------------------------------

    def end_points(self) -> list[Fraction]:
        return list(self.breakpoints)

    def values_at_end_points(self) -> list[Fraction]:
        return [t[0] for t in self.limits]

    def limits_at_end_points(self) -> list[Triple]:
        return [tuple(t) for t in self.limits]

    @property
    def is_continuous(self) -> bool:
        if "cont" not in self._cache:
            self._cache["cont"] = all(t[0] == t[1] == t[2] for t in self.limits)
        return self._cache["cont"]

    def interval_slopes(self) -> list[Fraction]:
        """Slope of each piece (x_i, x_{i+1})."""
        if "slopes" not in self._cache:
            bk, lm = self.breakpoints, self.limits
            self._cache["slopes"] = [
                (lm[i + 1][2] - lm[i][1]) / (bk[i + 1] - bk[i])
                for i in range(len(bk) - 1)
            ]
        return list(self._cache["slopes"])

    def number_of_slopes(self) -> int:
        return len(set(self._slope_ids()))

    def _slope_ids(self) -> list[int]:
        """A small id per piece, shared exactly by the pieces of one slope."""
        if "slope_ids" not in self._cache:
            self._cache["slope_ids"] = _slope_ids_of(*self.scaled_tables()[:2])
        return self._cache["slope_ids"]

    # -- evaluation --------------------------------------------------------

    def _locate(self, x) -> tuple[Fraction, int]:
        """(x reduced mod 1, the index i with breakpoints[i] <= x <
        breakpoints[i+1])."""
        x = _reduce_mod_one(to_rational(x))
        return x, bisect_right(self.breakpoints, x) - 1

    def __call__(self, x) -> Fraction:
        return self.limits_at(x)[0]

    def limits_at(self, x) -> Triple:
        """(value, right limit, left limit) at x, periodically reduced."""
        x, i = self._locate(x)
        bk, lm = self.breakpoints, self.limits
        if bk[i] == x:
            return lm[i]
        v = lm[i][1] + (lm[i + 1][2] - lm[i][1]) * (x - bk[i]) / (bk[i + 1] - bk[i])
        return (v, v, v)

    def limit(self, x, side: int) -> Fraction:
        """One-sided evaluation: side 0 value, 1 right limit, -1 left limit."""
        return self.limits_at(x)[0 if side == 0 else 1 if side > 0 else 2]

    def which_function(self, x) -> AffinePiece:
        """Affine data of the smallest face containing x; a constant piece at
        breakpoints."""
        x, i = self._locate(x)
        bk, lm = self.breakpoints, self.limits
        if bk[i] == x:
            return AffinePiece(Fraction(0), lm[i][0], (bk[i], bk[i]))
        slope = self.interval_slopes()[i]
        intercept = lm[i][1] - slope * bk[i]
        return AffinePiece(slope, intercept, (bk[i], bk[i + 1]))

    # -- scaled integer tables for the scan kernels -------------------------

    def scaled_tables(self, extra_denominator: int = 1):
        """(b, rows, D, V): the breakpoints as integers b over D, on a grid
        that also holds every point whose denominator divides
        extra_denominator, and rows[i] the integer (value, right limit,
        left limit) at b[i] over V."""
        key = ("scaled", extra_denominator)
        if key not in self._cache:
            D, b = on_grid(self.breakpoints, extra_denominator)
            V, lim = on_grid(chain.from_iterable(self.limits))
            rows = list(zip(lim[::3], lim[1::3], lim[2::3]))
            self._cache[key] = (b, rows, D, V)
        return self._cache[key]

    # -- equality as periodic functions -------------------------------------

    def _canonical(self):
        if "canon" not in self._cache:
            keep = _kept(*self.scaled_tables()[:2])
            self._cache["canon"] = (tuple(self.breakpoints[i] for i in keep),
                                    tuple(self.limits[i] for i in keep))
        return self._cache["canon"]

    def __eq__(self, other):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self._canonical() == other._canonical()

    __hash__ = None

    def __repr__(self):
        kind = "continuous" if self.is_continuous else "discontinuous"
        return (f"<PiecewiseFunction {kind}, {len(self.breakpoints) - 1} pieces, "
                f"f={self.f}>")


def _slope_ids_of(b, rows) -> list[int]:
    """A small id per piece of (b, rows), shared by the pieces of one slope."""
    ids, out = {}, []
    for i in range(len(b) - 1):
        rise, run = rows[i + 1][2] - rows[i][1], b[i + 1] - b[i]
        g = gcd(rise, run)
        out.append(ids.setdefault((rise // g, run // g), len(ids)))
    return out


def _kept(b, rows) -> list[int]:
    """The keep rule: the ends, discontinuities and slope changes of (b, rows)."""
    ids, n = _slope_ids_of(b, rows), len(b) - 1
    return [i for i, (v, r, l) in enumerate(rows)
            if i in (0, n) or not v == r == l or ids[i - 1] != ids[i]]


def _merged(b, rows, D: int, V: int, f=None) -> PiecewiseFunction:
    """The checked function of b / D and rows / V, merged on the integers."""
    keep = _kept(b, rows)
    frac = {a: Fraction(a, V) for a in {a for i in keep for a in rows[i]}}
    return from_breakpoints_and_limits(
        [Fraction(b[i], D) for i in keep],
        [tuple(map(frac.__getitem__, rows[i])) for i in keep], f=f, merge=False)


def _validate_breakpoints(bkpt: Sequence) -> tuple[Fraction, ...]:
    pts = tuple(to_rational(x) for x in bkpt)
    if len(pts) < 2:
        raise ConstructionError("need at least the two endpoints 0 and 1")
    if pts[0] != 0 or pts[-1] != 1:
        raise ConstructionError("breakpoints must start at 0 and end at 1")
    if any(a >= b for a, b in zip(pts, pts[1:])):
        raise ConstructionError("breakpoints must be strictly increasing")
    return pts


def _checked_f(f) -> Optional[Fraction]:
    if f is None:
        return None
    f = to_rational(f)
    if not 0 < f < 1:
        raise ConstructionError("f must lie in (0, 1)")
    return f


def from_breakpoints_and_limits(bkpt, limits, f=None, merge: bool = True) -> PiecewiseFunction:
    """Possibly discontinuous function from breakpoints and limit triples.

    Each triple is (value, right limit, left limit); the dict spelling
    {-1: left, 0: value, 1: right} is also accepted.  The triples given at 0
    and at 1 must be equal, since they describe the same periodic point
    (value at 0, right limit at 0, left limit at 1).  With merge, the
    interior points that are neither discontinuities nor slope changes are
    dropped; equal slopes are decided on the integer slope ids.
    """
    pts = _validate_breakpoints(bkpt)
    if len(limits) != len(pts):
        raise ConstructionError(
            f"{len(pts)} breakpoints but {len(limits)} limit triples")
    triples = tuple(_coerce_triple(t) for t in limits)
    if triples[0] != triples[-1]:
        raise ConstructionError(
            "limit triples at 0 and 1 must agree (one periodic point)")
    if merge:
        pts, triples = PiecewiseFunction(pts, triples)._canonical()
    return PiecewiseFunction(pts, triples, _checked_f(f))


def from_breakpoints_and_values(bkpt, values, f=None, merge: bool = True) -> PiecewiseFunction:
    """Continuous function interpolating the given breakpoint values."""
    pts = _validate_breakpoints(bkpt)
    if len(values) != len(pts):
        raise ConstructionError(
            f"{len(pts)} breakpoints but {len(values)} values")
    vals = [to_rational(v) for v in values]
    if vals[0] != vals[-1]:
        raise ConstructionError(
            "values at 0 and 1 must agree (periodicity)")
    triples = tuple((v, v, v) for v in vals)
    return from_breakpoints_and_limits(pts, triples, f=f, merge=merge)


def linear_combination(a, fn1: PiecewiseFunction, b, fn2: PiecewiseFunction,
                       f=None) -> PiecewiseFunction:
    """a*fn1 + b*fn2 on the common refinement of the two breakpoint sets.

    Both functions are read through _scan.limit_table on the grid 1/D of
    both breakpoint sets: each side of a merged point is an integer over
    the table's W, and each entry of the result an integer over the
    product of the coefficients' denominators and the two W's, merged on
    those integers."""
    a = to_rational(a)
    b = to_rational(b)
    D = common_denominator((*fn1.breakpoints, *fn2.breakpoints))
    tables = fn1.scaled_tables(D), fn2.scaled_tables(D)
    ticks = sorted({p for t in tables for p in t[0]})
    (u, W1), (w, W2) = (_scan.limit_table(grid, rows, V, ticks)
                        for grid, rows, _, V in tables)
    # a * u / W1 + b * w / W2
    ca = a.numerator * b.denominator * W2
    cb = b.numerator * a.denominator * W1
    den = a.denominator * b.denominator * W1 * W2
    rows = [tuple(ca * x + cb * y for x, y in zip(u[p], w[p])) for p in ticks]
    return _merged(ticks, rows, D, den, f if f is not None else fn1.f)


@dataclass(repr=False, slots=True)
class DiscreteFunction:
    """Function on the cyclic group (1/q)Z, given by its values on [0, 1].

    points is the full grid 0, 1/q, ..., 1 and values the corresponding
    list with values[0] == values[-1] (periodicity).  Equality compares
    points and values; the optional f is ignored.
    """

    q: int = field(compare=False)
    points: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    f: Optional[Fraction] = field(default=None, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __call__(self, x) -> Fraction:
        x = _reduce_mod_one(to_rational(x))
        idx = x * self.q
        if idx.denominator != 1:
            raise ConstructionError(f"{x} is not a point of (1/{self.q})Z")
        return self.values[int(idx)]

    def __repr__(self):
        return f"<DiscreteFunction on (1/{self.q})Z, f={self.f}>"


def discrete_from_points_and_values(points, values, f=None) -> DiscreteFunction:
    """Discrete function from the full grid of the generated cyclic group."""
    pts = tuple(to_rational(p) for p in points)
    vals = tuple(to_rational(v) for v in values)
    if len(pts) != len(vals):
        raise ConstructionError(f"{len(pts)} points but {len(vals)} values")
    if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
        raise ConstructionError("points must run from 0 to 1")
    if any(a >= b for a, b in zip(pts, pts[1:])):
        raise ConstructionError("points must be strictly increasing")
    q = common_denominator(pts)
    if len(pts) != q + 1 or any(p != Fraction(i, q) for i, p in enumerate(pts)):
        raise ConstructionError(
            f"points must be the full grid of (1/{q})Z in [0, 1]")
    if vals[0] != vals[-1]:
        raise ConstructionError("values at 0 and 1 must agree (periodicity)")
    return DiscreteFunction(q, pts, vals, _checked_f(f))


# -- random generation ------------------------------------------------------

def random_piecewise_function(xgrid: int = 5, ygrid: int = 5,
                              continuous_proba=Fraction(1),
                              symmetry: bool = True,
                              seed: Optional[int] = None) -> PiecewiseFunction:
    """Random piecewise linear function with breakpoints on (1/xgrid)Z and
    values on (1/ygrid)Z.

    Each grid point is continuous with probability continuous_proba (the
    coin is exact: an integer draw against the fraction).  With symmetry, f
    is drawn on the grid, pi(f) = 1, and the symmetry condition
    pi(x) + pi(f - x) = 1 holds including one-sided limits, enforced by
    mirroring x -> f - x; the midpoint of a mirror pair is pinned to 1/2
    even when 1/2 is off the y-grid.  Values are integers over Y = 2*ygrid
    (1/2 is ygrid / Y, a mirror Y - v), merged by `_kept`.

    The draw order is fixed, so a seed gives one function: f, the origin,
    then the grid points in index order, each its continuity coin and then
    its free values (value, right limit, left limit); a mirrored point
    draws nothing.  The seeded benchmark pools, perfbench/reference.json
    and the seeded test corpora pin those functions, so it must not change.
    """
    if xgrid < 1 or ygrid < 1:
        raise ConstructionError("xgrid and ygrid must be at least 1")
    proba = to_rational(continuous_proba)
    if not (0 <= proba <= 1):
        raise ConstructionError("continuous_proba must lie in [0, 1]")
    if symmetry and xgrid < 2:
        raise ConstructionError(
            "symmetry needs xgrid >= 2 (f must be an interior grid point)")
    rng = random.Random(seed)
    fi = rng.randrange(1, xgrid) if symmetry else None  # f = fi / xgrid
    Y = 2 * ygrid  # every value is an integer over Y, and 1/2 is ygrid / Y

    def yval() -> int:
        return 2 * rng.randrange(ygrid + 1)

    def draw(value: Optional[int] = None, own_mirror: bool = False) -> tuple:
        # a point that is its own mirror draws its left limit only, and its
        # right limit is the mirror of that
        continuous = rng.randrange(proba.denominator) < proba.numerator
        v = yval() if value is None else value
        if continuous:
            return (v, v, v)
        w = yval()
        return (v, Y - w, w) if own_mirror else (v, w, yval())

    rows: list[Optional[tuple]] = [draw(0)] + [None] * xgrid
    for i in range(xgrid):
        j = (fi - i) % xgrid if symmetry else None  # mirror grid index of x_i
        if rows[i] is None:
            rows[i] = draw(ygrid, own_mirror=True) if j == i else draw()
        if j is not None and rows[j] is None:
            v, r, l = rows[i]
            rows[j] = (Y - v, Y - l, Y - r)
    rows[xgrid] = rows[0]
    f = Fraction(fi, xgrid) if symmetry else None
    return _merged(range(xgrid + 1), rows, xgrid, Y, f)
