"""Automatic test for minimal valid functions.

A Z-periodic function pi is minimal valid when pi(0) = 0, pi stays in
[0, 1], the symmetry condition pi(x) + pi(f - x) = 1 holds, and pi is
subadditive.  For piecewise linear functions all four conditions are
finitely checkable: the value conditions on the breakpoints (with one-sided
limits), symmetry on the breakpoints together with their mirror images
(again with limits), and subadditivity at the vertices of the additivity
complex, including every limit cone when the function is discontinuous.
Subadditivity scanning is restricted to the triangle x <= y; the slack is
symmetric in its arguments, so nothing is lost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import _scan
from .complex2d import Face, grid_face, scan_vertex_slacks
from .errors import ConstructionError, NoCandidateFError
from .pwl import DiscreteFunction, PiecewiseFunction, _reduce_mod_one
from .rational import to_rational

ZERO = Fraction(0)
ONE = Fraction(1)

SIDE_NAMES = {0: "value", 1: "right", -1: "left"}


@dataclass(frozen=True)
class Violation:
    """One failed condition: what failed, where, by how much."""

    kind: str  # value-at-0 | range | symmetry | subadditivity
    x: Optional[Fraction] = None
    y: Optional[Fraction] = None
    sides: Optional[tuple] = None
    slack: Optional[Fraction] = None
    face: Optional[Face] = None

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


def find_f(fn: PiecewiseFunction) -> Fraction:
    """First breakpoint where the function value equals 1."""
    for x, t in zip(fn.breakpoints, fn.limits):
        if t[0] == 1:
            return x
    if any(t[1] == 1 or t[2] == 1 for t in fn.limits):
        raise NoCandidateFError(
            "no breakpoint value equals 1 (only a one-sided limit does)")
    raise NoCandidateFError("no candidate f: no breakpoint value equals 1")


def _interval_for(grid: list[int], t: int, side: int) -> tuple[int, int]:
    """Breakpoint-grid piece approached at t from the given side: the cell
    around t when t is no breakpoint, from any side."""
    i, j = bisect_left(grid, t), bisect_right(grid, t)
    return (grid[i - 1] if i == j or side < 0 else t,
            grid[j] if i == j or side > 0 else t)


def witness_face(fn: PiecewiseFunction, v, sides) -> Face:
    """Face of the complex from whose relative interior a slack was taken.

    Approach directions that leave the unit square at a boundary vertex are
    wrapped to the periodic representative first (e.g. the cone to the
    right of x = 1 is the cone to the right of x = 0).
    """
    x, y = to_rational(v[0]), to_rational(v[1])
    b, _, _, _, D, _ = fn.scaled_tables(lcm(x.denominator, y.denominator))
    x, y = int(x * D), int(y * D)
    sx, sy, ss = sides
    if sx > 0 and x == D:
        x = 0
    if sx < 0 and x == 0:
        x = D
    if sy > 0 and y == D:
        y = 0
    if sy < 0 and y == 0:
        y = D
    ext = b + [t + D for t in b[1:]]
    return grid_face(_interval_for(b, x, sx), _interval_for(b, y, sy),
                     _interval_for(ext, x + y, ss), D)


def minimality_test(fn: PiecewiseFunction, f=None, collect_all: bool = True) -> MinimalityReport:
    """Check the four minimality conditions, returning all violations (or
    only the first, with collect_all=False).

    When f is not given it is taken from the function, falling back to the
    first breakpoint with value 1; if no candidate exists but violations
    were already found, the symmetry check is skipped and the (negative)
    verdict reported without f.
    """
    violations: list[Violation] = []

    def done() -> bool:
        return bool(violations) and not collect_all

    # pi(0) = 0
    v0 = fn(0)
    if v0 != 0:
        violations.append(Violation("value-at-0", x=ZERO, slack=v0))

    # range [0, 1] over breakpoint values and one-sided limits
    if not done():
        for x, triple in zip(fn.breakpoints, fn.limits):
            for side, val in zip((0, 1, -1), triple):
                if not (0 <= val <= 1):
                    violations.append(Violation(
                        "range", x=x, sides=SIDE_NAMES[side],
                        slack=min(val, 1 - val)))
                    if done():
                        break
            if done():
                break

    # symmetry pi(x) + pi(f - x) = 1 on the breakpoints and their mirrors,
    # including one-sided limits
    ff = None
    if not done():
        try:
            ff = to_rational(f) if f is not None else (
                fn.f if fn.f is not None else find_f(fn))
        except NoCandidateFError:
            if not violations:
                raise
        if ff is not None and not (0 < ff < 1):
            raise ConstructionError(f"invalid f = {ff}, must lie in (0, 1)")
    if ff is not None and not done():
        grid = sorted({x for x in fn.breakpoints}
                      | {_reduce_mod_one(ff - x) for x in fn.breakpoints}
                      | {ONE})
        for x in grid:
            tx = fn.limits_at(x)
            tm = fn.limits_at(ff - x)
            # value pairs with value, right with the mirror's left and
            # vice versa (the mirror map reverses orientation)
            for side, s in ((0, tx[0] + tm[0]), (1, tx[1] + tm[2]),
                            (-1, tx[2] + tm[1])):
                if s != 1:
                    violations.append(Violation(
                        "symmetry", x=x, sides=SIDE_NAMES[side], slack=s - 1))
                    if done():
                        break
            if done():
                break

    # subadditivity at the complex vertices with x <= y, including all
    # limit cones in the discontinuous case
    if not done():
        _, neg, _, _, _ = scan_vertex_slacks(fn, upper_triangle=True)
        for (pt, sides, slack) in neg:
            violations.append(Violation(
                "subadditivity", x=pt[0], y=pt[1], sides=sides, slack=slack,
                face=witness_face(fn, pt, sides)))
            if done():
                break

    return MinimalityReport(not violations, ff, tuple(violations))


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
    grid = sorted({x for x in fn.breakpoints}
                  | {_reduce_mod_one(x + step) for x in fn.breakpoints})
    for x in grid:
        if fn.limits_at(x) != fn.limits_at(x + step):
            raise ConstructionError(
                f"pi({b}) = 0 but pi is not 1/{q}-periodic; "
                "input cannot be minimal valid")
    return q


# -- finite group model -------------------------------------------------------

def find_f_discrete(fn: DiscreteFunction) -> Fraction:
    for p, v in zip(fn.points, fn.values):
        if v == 1:
            return p
    raise NoCandidateFError("no candidate f: no grid value equals 1")


def minimality_test_discrete(fn: DiscreteFunction, f=None,
                             collect_all: bool = True) -> MinimalityReport:
    """Minimality for the cyclic group model: pi(0) = 0, range, symmetry
    pi(a) + pi(f - a) = 1 and subadditivity over all group pairs."""
    violations: list[Violation] = []
    q = fn.q

    def done() -> bool:
        return bool(violations) and not collect_all

    if fn.values[0] != 0:
        violations.append(Violation("value-at-0", x=ZERO, slack=fn.values[0]))

    if not done():
        for p, v in zip(fn.points, fn.values):
            if not (0 <= v <= 1):
                violations.append(Violation("range", x=p, slack=min(v, 1 - v)))
                if done():
                    break

    ff = None
    if not done():
        try:
            ff = to_rational(f) if f is not None else (
                fn.f if fn.f is not None else find_f_discrete(fn))
        except NoCandidateFError:
            if not violations:
                raise
        if ff is not None and not (0 < ff < 1):
            raise ConstructionError(f"invalid f = {ff}, must lie in (0, 1)")
    if ff is not None:
        fi = ff * q
        if fi.denominator != 1:
            raise ConstructionError(f"f = {ff} is not a point of (1/{q})Z")
        fi = int(fi) % q
    if ff is not None and not done():
        for a in range(q):
            s = fn.values[a] + fn.values[(fi - a) % q]
            if s != 1:
                violations.append(Violation(
                    "symmetry", x=Fraction(a, q), slack=s - 1))
                if done():
                    break

    if not done():
        from .rational import common_denominator

        V = common_denominator(fn.values)
        scaled = [int(v * V) for v in fn.values]
        neg, _, _ = _scan.scan_discrete(scaled, q)
        for i, j, d in neg:
            violations.append(Violation(
                "subadditivity", x=Fraction(i, q), y=Fraction(j, q),
                slack=Fraction(d, V)))
            if done():
                break

    return MinimalityReport(not violations, ff, tuple(violations))
