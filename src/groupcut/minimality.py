"""Automatic test for minimal valid functions.

A Z-periodic function pi is minimal valid when pi(0) = 0, pi stays in
[0, 1], the symmetry condition pi(x) + pi(f - x) = 1 holds, and pi is
subadditive.  For piecewise linear functions all four conditions are
finitely checkable: the value conditions on the breakpoints (with one-sided
limits), symmetry on the breakpoints together with their mirror images
(again with limits), and subadditivity at the vertices of the additivity
complex, including every limit cone when the function is discontinuous.
A function on the finite cyclic group (1/q)Z is checked on its q points,
with subadditivity over all group pairs.

Each model supplies only integer data: its points with their limit rows
(`tables`, the limits named by `SIDES`), the limit table its symmetry
check reads (`symmetry_table(f)`), and its subadditivity violations.  One
path checks pi(0), the range and symmetry on that data and finds f; it
builds a Fraction only for a failing entry or for the f it returns.  The
subadditivity scan is the function's vertex slack record
(complex2d.vertex_slacks) over x <= y, which loses nothing as the slack
is symmetric; a violation keeps its witness as an integer key on that
record's grid and builds its point, slack and Fraction witness face only
when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Optional

from . import _scan
from .complex2d import (Face, _pieces_at, _projections, grid_face,
                        vertex_slacks)
from .errors import ConstructionError, NoCandidateFError, ParameterError
from .pwl import DiscreteFunction, PiecewiseFunction
from .rational import common_denominator, on_grid, to_rational

SIDE_NAMES = ("value", "right", "left")  # indexed by side 0, 1, -1
_LAZY_FIELDS = frozenset(("x", "y", "slack", "face"))


@dataclass(frozen=True, init=False)
class Violation:
    """One failed condition: what failed, where, by how much.

    A subadditivity violation of a PiecewiseFunction found by the vertex
    scan keeps its witness as integers, (b, D, x, y, sides, num, den) for
    the point (x, y) / D of the breakpoint grid b / D and the slack
    num / den; its x, y, slack and Fraction face are built on their first
    read.  `face` is None for the other kinds.
    """

    kind: str  # value-at-0 | range | symmetry | subadditivity
    x: Optional[Fraction]
    y: Optional[Fraction]
    sides: Optional[tuple]
    slack: Optional[Fraction]
    witness: Optional[tuple] = field(repr=False, compare=False)
    face: Optional[Face] = field(init=False)  # set by __getattr__

    def __init__(self, kind: str, x: Optional[Fraction] = None,
                 y: Optional[Fraction] = None, sides: Optional[tuple] = None,
                 slack: Optional[Fraction] = None,
                 witness: Optional[tuple] = None):
        for name, value in (("kind", kind), ("x", x), ("y", y),
                            ("sides", sides), ("slack", slack),
                            ("witness", witness)):
            object.__setattr__(self, name, value)

    @classmethod
    def _on_grid(cls, b, D, x, y, sides, num, den) -> "Violation":
        """The subadditivity violation of slack num / den at (x, y) / D,
        approached per sides, with x, y, slack and face left to be built
        on first read."""
        v = object.__new__(cls)
        object.__setattr__(v, "kind", "subadditivity")
        object.__setattr__(v, "sides", sides)
        object.__setattr__(v, "witness", (b, D, x, y, sides, num, den))
        return v

    def __getattr__(self, name):
        # only the lazy fields get here; the others are set at construction
        if name not in _LAZY_FIELDS:
            raise AttributeError(name)
        w = self.witness
        if name == "face":
            value = w and _grid_witness_face(*w[:5])
        else:
            _, D, x, y, _, num, den = w
            value = Fraction(num, den) if name == "slack" else \
                Fraction(x if name == "x" else y, D)
        object.__setattr__(self, name, value)
        return value

    def describe(self) -> str:
        where = f"x={self.x}" if self.y is None else f"({self.x}, {self.y})"
        sides = ""
        if self.sides is not None:
            names = self.sides if isinstance(self.sides, str) else \
                "/".join(SIDE_NAMES[s] for s in self.sides)
            sides = f" [{names}]"
        return f"{self.kind} at {where}{sides}, slack {self.slack}"


@dataclass(frozen=True)
class MinimalityReport:
    is_minimal: bool
    f_used: Optional[Fraction]
    violations: tuple[Violation, ...] = ()

    def __bool__(self):
        return self.is_minimal


def witness_face(fn: PiecewiseFunction, v, sides) -> Face:
    """Face of the complex from whose relative interior a slack was taken.

    Approach directions that leave the unit square at a boundary vertex are
    wrapped to the periodic representative first (e.g. the cone to the
    right of x = 1 is the cone to the right of x = 0).
    """
    x, y = to_rational(v[0]), to_rational(v[1])
    b, _, D, _ = fn.scaled_tables(common_denominator((x, y)))
    return _grid_witness_face(b, D, int(x * D), int(y * D), sides)


def _grid_witness_face(b: list[int], D: int, x: int, y: int, sides) -> Face:
    """witness_face at the point (x, y) / D of the breakpoint grid b / D."""
    sx, sy, ss = sides
    x, y = _scan.fold(x, sx, D), _scan.fold(y, sy, D)
    ext = b + [t + D for t in b[1:]]
    return grid_face(_projections(_pieces_at(b, x)[sx], _pieces_at(b, y)[sy],
                                  _pieces_at(ext, x + y)[ss]), D)


class _InfiniteModel:
    """A PiecewiseFunction as the shared checks read it: the breakpoints
    over D with their limit rows over V, the limit table of the breakpoints
    and their mirrors, and the negative cones of the vertex slack record."""

    SIDES = SIDE_NAMES

    def __init__(self, fn: PiecewiseFunction):
        self.fn = fn

    @cached_property
    def tables(self) -> tuple[list[int], list[tuple], int, int]:
        return self.fn.scaled_tables()

    def symmetry_table(self, f: Fraction):
        """(grid, lim, W, fD, D): the breakpoints and their mirrors, on a
        grid 1/D that holds f = fD / D, each with its limit row over W in
        lim; the mirror of a grid point is a grid point, mod D."""
        b, rows, D, V = self.tables
        if (f * D).denominator != 1:
            b, rows, D, V = self.fn.scaled_tables(f.denominator)
        fD = int(f * D)
        grid = sorted({*b, *((fD - p) % D for p in b)})
        return grid, *_scan.limit_table(b, rows, V, grid), fD, D

    def subadditivity_violations(self):
        """One violation per negative cone (x <= y, every limit cone
        included when fn is discontinuous) of the vertex slack record,
        kept on its integer grid."""
        rec, b = vertex_slacks(self.fn), self.tables[0]
        for x, y, sides, num, den in rec.neg:
            yield Violation._on_grid(b, rec.D, x, y, sides, num, den)


class _FiniteModel:
    """A DiscreteFunction as the shared checks read it: the group points
    over q with their one-value rows over V, and all group pairs scanned
    once on those values, both kept in the function's cache."""

    SIDES = (None,)

    def __init__(self, fn: DiscreteFunction):
        self.fn = fn

    @property
    def tables(self) -> tuple[range, list[tuple[int]], int, int]:
        fn = self.fn
        if "tables" not in fn._cache:
            V, u = on_grid(fn.values)
            fn._cache["tables"] = range(fn.q + 1), list(zip(u)), fn.q, V
        return fn._cache["tables"]

    @property
    def scan(self):
        """(neg, zero, min_pos) of `_scan.scan_discrete`, in units of 1/V."""
        fn = self.fn
        if "scan" not in fn._cache:
            fn._cache["scan"] = _scan.scan_discrete(
                [v for v, in self.tables[1]], fn.q)
        return fn._cache["scan"]

    def symmetry_table(self, f: Fraction):
        """As for the infinite model, over the q group points; an f that is
        not a group point is refused here."""
        points, rows, q, V = self.tables
        if (f * q).denominator != 1:
            raise ConstructionError(f"f = {f} is not a point of (1/{q})Z")
        return points[:-1], rows, V, int(f * q), q

    def subadditivity_violations(self):
        q, V = self.fn.q, self.tables[3]
        for i, j, d in self.scan[0]:
            yield Violation("subadditivity", x=Fraction(i, q),
                            y=Fraction(j, q), slack=Fraction(d, V))


def _model(fn, infinite=_InfiniteModel, finite=_FiniteModel):
    """The model of fn's type: the one place the tests look at that type."""
    if isinstance(fn, PiecewiseFunction):
        return infinite(fn)
    if isinstance(fn, DiscreteFunction):
        return finite(fn)
    raise ParameterError("expected a PiecewiseFunction or a DiscreteFunction, "
                         f"got {type(fn).__name__}")


def find_f(fn: PiecewiseFunction | DiscreteFunction) -> Fraction:
    """First point of (0, 1) whose value is 1: a breakpoint, or a point of
    the finite group."""
    return _find_f(_model(fn))


def _find_f(m) -> Fraction:
    points, rows, D, V = m.tables
    inner = rows[1:-1]  # the points of (0, 1)
    for p, row in zip(points[1:], inner):
        if row[0] == V:
            return Fraction(p, D)
    if any(V in row[1:] for row in inner):
        raise NoCandidateFError(
            "no value in (0, 1) equals 1 (only a one-sided limit does)")
    raise NoCandidateFError("no candidate f: no value in (0, 1) equals 1")


def _value_violations(m):
    """pi(0) = 0, then the range [0, 1] of every value and limit."""
    points, rows, D, V = m.tables
    if rows[0][0]:
        yield Violation("value-at-0", x=Fraction(points[0], D),
                        slack=Fraction(rows[0][0], V))
    n = len(m.SIDES)
    for i, v in enumerate(chain.from_iterable(rows)):  # row i // n, side i % n
        if not 0 <= v <= V:
            yield Violation("range", x=Fraction(points[i // n], D),
                            sides=m.SIDES[i % n],
                            slack=Fraction(min(v, V - v), V))


def _symmetry_violations(m, f: Optional[Fraction]):
    """pi(x) + pi(f - x) = 1 with every limit when f is known, at the
    points x of the model's symmetry table, in increasing order."""
    if f is None:
        return
    grid, lim, W, fD, D = m.symmetry_table(f)
    sides = list(enumerate(m.SIDES))
    for p in grid:
        t, u = lim[p], lim[(fD - p) % D]
        # side s pairs with side -s of the mirror (value with value, right
        # with left): the mirror map reverses orientation
        for s, side in sides:
            if t[s] + u[-s] != W:
                yield Violation("symmetry", x=Fraction(p, D), sides=side,
                                slack=Fraction(t[s] + u[-s] - W, W))


def _minimality_test(m, f, collect_all: bool) -> MinimalityReport:
    """The one violation collector: the checks in order, all violations or
    only the first; f is resolved only when the checks reach it."""
    take = None if collect_all else 1
    violations = list(islice(_value_violations(m), take))
    if violations and not collect_all:
        return MinimalityReport(False, None, tuple(violations))
    try:
        ff = to_rational(f) if f is not None else (
            m.fn.f if m.fn.f is not None else _find_f(m))
    except NoCandidateFError:
        if not violations:
            raise
        ff = None
    if ff is not None and not 0 < ff < 1:
        raise ConstructionError(f"invalid f = {ff}, must lie in (0, 1)")
    violations += islice(chain(_symmetry_violations(m, ff),
                               m.subadditivity_violations()), take)
    return MinimalityReport(not violations, ff, tuple(violations))


def minimality_test(fn: PiecewiseFunction | DiscreteFunction, f=None,
                    collect_all: bool = True) -> MinimalityReport:
    """Check the four minimality conditions in either model, returning all
    violations (or only the first, with collect_all=False).

    When f is not given it is taken from the function, falling back to the
    first point of (0, 1) with value 1; if no candidate exists but
    violations were already found, the symmetry check is skipped and the
    (negative) verdict reported without f.
    """
    return _minimality_test(_model(fn), f, collect_all)


minimality_test_discrete = minimality_test  # the finite model's former name


def detect_zero_period(fn: PiecewiseFunction) -> Optional[int]:
    """If a minimal valid function vanishes at a non-integral breakpoint b,
    it is periodic modulo 1/q with q the denominator of b; return q after
    verifying the shift invariance on all breakpoints (including limits).
    Returns None when the function is positive on (0, 1)."""
    b = next((x for x, t in zip(fn.breakpoints, fn.limits)
              if 0 < x < 1 and t[0] == 0), None)
    if b is None:
        return None
    q = b.denominator
    step = Fraction(1, q)
    # limits_at reduces mod 1
    for x in {*fn.breakpoints, *(x + step for x in fn.breakpoints)}:
        if fn.limits_at(x) != fn.limits_at(x + step):
            raise ConstructionError(
                f"pi({b}) = 0 but pi is not 1/{q}-periodic; "
                "input cannot be minimal valid")
    return q
