"""Grid-free extremality test.

A minimal valid function is extreme when it is not the midpoint of two
distinct minimal valid functions; equivalently, when the only effective
perturbation is zero.  When the covered components C_1 .. C_k exhaust
[0, 1] (up to closure), any effective perturbation is piecewise linear with
one slope variable s_i per component and one jump variable d_j per
discontinuity of the function, so it is the dot product of a vector-valued
symbolic function g with (s_1..s_k, d_1..d_m).  Collecting the vanishing
relations (the normalizations at 0, f and 1, and one linear row per tight
vertex/limit-cone slack) yields an exact linear system whose kernel is
trivial exactly when the function is extreme.  Uncovered intervals mean
non-extreme immediately; the equivariant perturbation witnessing that case
is not constructed here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Optional

from . import _scan
from .complex2d import scan_points_slacks, scan_vertex_slacks
from .covering import CoveredComponentSet, generate_covered_components
from .errors import (ConstructionError, InternalConsistencyError,
                     ParameterError)
from .exactlinalg import kernel_basis
from .minimality import (MinimalityReport, minimality_test,
                         minimality_test_discrete)
from .pwl import (DiscreteFunction, PiecewiseFunction, from_breakpoints_and_limits,
                  linear_combination)
from .rational import common_denominator, to_rational

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class SymbolicPerturbation:
    """Vector-valued piecewise linear g on [0, 1] with pi~ = g . (s, d).

    Coordinates 0..k-1 are the slope variables of the covered components,
    coordinates k..k+m-1 the jump variables at the discontinuity points of
    the function (jump_points lists them as (x, 'left'|'right'): a left
    jump is pi~(x) - pi~(x-), a right jump pi~(x+) - pi~(x)).  g(0) is the
    zero vector and on the i-th component the vector slope of g is the i-th
    unit vector.
    """

    k: int
    m: int
    jump_points: tuple[tuple[Fraction, str], ...]
    grid: tuple[Fraction, ...]
    vtriples: tuple[tuple[Vector, Vector, Vector], ...]

    @property
    def dim(self) -> int:
        return self.k + self.m

    def limit(self, x, side: int = 0) -> Vector:
        """g at x in [0, 1], approached from the given side (no periodic
        reduction; the domain is the closed interval)."""
        x = to_rational(x)
        if not (0 <= x <= 1):
            raise ConstructionError(f"{x} outside [0, 1]")
        i = bisect_right(self.grid, x) - 1
        if self.grid[i] == x:
            vv, vr, vl = self.vtriples[i]
            return vv if side == 0 else (vr if side > 0 else vl)
        u, w = self.grid[i], self.grid[i + 1]
        start = self.vtriples[i][1]
        end = self.vtriples[i + 1][2]
        t = (x - u) / (w - u)
        return tuple(a + (b - a) * t for a, b in zip(start, end))

    def value(self, x) -> Vector:
        return self.limit(x, 0)


@dataclass(frozen=True)
class EquationSystem:
    """Exact linear system with one provenance string per row."""

    rows: tuple[Vector, ...]
    provenance: tuple[str, ...]
    ncols: int

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class ExtremalityReport:
    is_extreme: bool
    is_minimal: bool
    minimality: MinimalityReport
    covered: Optional[CoveredComponentSet]
    system: Optional[EquationSystem]
    kernel_dimension: Optional[int]
    perturbation: Optional[object]  # PiecewiseFunction or DiscreteFunction
    epsilon: Optional[Fraction]
    notes: tuple[str, ...] = ()
    kernel: tuple[Vector, ...] = ()

    def __bool__(self):
        return self.is_extreme


def _unit(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vscale(a: Vector, s: Fraction) -> Vector:
    return tuple(x * s for x in a)


def generate_symbolic(fn: PiecewiseFunction,
                      components: CoveredComponentSet) -> SymbolicPerturbation:
    """Build g for a function whose covered components exhaust [0, 1]."""
    if components.uncovered:
        raise ConstructionError(
            f"uncovered intervals present: {list(components.uncovered)}")
    k = len(components.components)
    n = len(fn.breakpoints) - 1

    jumps: list[tuple[Fraction, str]] = []
    for i, (x, (v, r, l)) in enumerate(zip(fn.breakpoints, fn.limits)):
        if i > 0 and l != v:
            jumps.append((x, "left"))
        if i < n and r != v:
            jumps.append((x, "right"))
    m = len(jumps)
    N = k + m
    jump_col = {pt: k + j for j, pt in enumerate(jumps)}

    grid = sorted({x for x in fn.breakpoints}
                  | {e for comp in components.components for iv in comp for e in iv})
    if grid[0] != 0 or grid[-1] != 1:
        raise InternalConsistencyError("component endpoints escape [0, 1]")

    zero = tuple(ZERO for _ in range(N))
    vtriples: list[tuple[Vector, Vector, Vector]] = []
    value = zero
    right = _vadd(value, _unit(N, jump_col[(ZERO, "right")])) \
        if (ZERO, "right") in jump_col else value
    vtriples.append((value, right, value))
    for i in range(len(grid) - 1):
        u, w = grid[i], grid[i + 1]
        mid = (u + w) / 2
        comp = components.component_of(mid)
        if comp is None:
            raise InternalConsistencyError(
                f"piece ({u}, {w}) not inside any covered component")
        left = _vadd(vtriples[i][1], _vscale(_unit(N, comp), w - u))
        value = _vadd(left, _unit(N, jump_col[(w, "left")])) \
            if (w, "left") in jump_col else left
        right = _vadd(value, _unit(N, jump_col[(w, "right")])) \
            if (w, "right") in jump_col else value
        vtriples.append((value, right, left))

    return SymbolicPerturbation(k, m, tuple(jumps), tuple(grid), tuple(vtriples))


def _g_limit(sym: SymbolicPerturbation, t: Fraction, side: int) -> Vector:
    """g-limit with sums in [0, 2] folded into the domain interval."""
    if t > 1:
        t = t - 1
    if t == 1 and side > 0:
        t = ZERO
    elif t == 0 and side < 0:
        t = ONE
    return sym.limit(t, side)


def build_equation_system(fn: PiecewiseFunction, sym: SymbolicPerturbation,
                          f: Fraction) -> EquationSystem:
    """Normalization rows plus one row per tight (limit) slack at the
    complex vertices; duplicates are removed keeping the first provenance."""
    rows: dict[Vector, str] = {}

    def put(vec: Vector, why: str):
        rows.setdefault(vec, why)

    put(sym.value(0), "normalization pi~(0) = 0")
    put(sym.value(f), f"normalization pi~({f}) = 0")
    put(sym.value(1), "normalization pi~(1) = 0")

    _, _, zeros, _, _ = scan_vertex_slacks(
        fn, upper_triangle=True, with_limits=not fn.is_continuous)
    side_sym = {0: "", 1: "+", -1: "-"}
    g_limit = cache(partial(_g_limit, sym))  # points recur across cones
    for (pt, (sx, sy, ss)) in zeros:
        x, y = pt
        row = tuple(
            a + b - c
            for a, b, c in zip(g_limit(x, sx), g_limit(y, sy),
                               g_limit(x + y, ss)))
        put(row, (f"pi~({x}{side_sym[sx]}) + pi~({y}{side_sym[sy]}) "
                  f"= pi~({x + y}{side_sym[ss]})"))

    items = list(rows.items())
    return EquationSystem(tuple(r for r, _ in items),
                          tuple(w for _, w in items), sym.dim)


def perturbation_from_vector(sym: SymbolicPerturbation, vec: Vector,
                             f=None) -> PiecewiseFunction:
    """Materialize pi~ = g . vec as a periodic piecewise function.  vec must
    satisfy the normalization rows so that pi~(0) = pi~(1) = 0."""

    def dot(v: Vector) -> Fraction:
        return sum((a * b for a, b in zip(v, vec)), ZERO)

    triples = [tuple(dot(part) for part in t) for t in sym.vtriples]
    v0, r0, _ = triples[0]
    v1, _, l1 = triples[-1]
    if v0 != 0 or v1 != 0:
        raise ConstructionError("vector does not vanish at 0 and 1")
    seam = (ZERO, r0, l1)
    triples[0] = triples[-1] = seam
    return from_breakpoints_and_limits(sym.grid, triples, f=f, merge=True)


def find_epsilon(fn: PiecewiseFunction, pert: PiecewiseFunction) -> Fraction:
    """Largest step of the form (minimum positive slack of fn) / (maximum
    absolute slack of the perturbation over the same vertex/limit set),
    halved until fn +- eps*pert both pass the minimality test."""
    if all(v == 0 and r == 0 and l == 0 for v, r, l in pert.limits):
        raise ParameterError("perturbation must be nonzero")
    points, neg, _, min_pos, _ = scan_vertex_slacks(
        fn, upper_triangle=True, with_limits=True)
    if neg:
        raise ParameterError("base function must be minimal valid")
    _, _, _, max_abs = scan_points_slacks(pert, points, with_limits=True)
    eps = ONE if max_abs == 0 else (min_pos if min_pos is not None else ONE) / max_abs
    f = fn.f
    for _ in range(64):
        plus = linear_combination(1, fn, eps, pert, f=f)
        minus = linear_combination(1, fn, -eps, pert, f=f)
        if (minimality_test(plus, f=f).is_minimal
                and minimality_test(minus, f=f).is_minimal):
            return eps
        eps = eps / 2
    raise InternalConsistencyError(
        "no epsilon makes both perturbed functions minimal valid")


def extremality_test(fn: PiecewiseFunction, f=None) -> ExtremalityReport:
    """Decide extremality: minimality first, then full coverage of [0, 1]
    by the connected covered components, then triviality of the kernel of
    the tight-relation system.  In the covered non-extreme case the report
    carries a nonzero perturbation and a verified epsilon."""
    rep = minimality_test(fn, f=f)
    if not rep.is_minimal:
        return ExtremalityReport(False, False, rep, None, None, None, None,
                                 None, ("not minimal valid",))
    covered = generate_covered_components(fn)
    if covered.uncovered:
        return ExtremalityReport(
            False, True, rep, covered, None, None, None, None,
            (f"uncovered intervals: {list(covered.uncovered)}",
             "perturbation unavailable: uncovered case"))
    sym = generate_symbolic(fn, covered)
    system = build_equation_system(fn, sym, rep.f_used)
    basis = kernel_basis(system.rows, system.ncols)
    dim = len(basis)
    if dim == 0:
        return ExtremalityReport(True, True, rep, covered, system, 0, None,
                                 None, ())
    pert = perturbation_from_vector(sym, basis[0], f=rep.f_used)
    eps = find_epsilon(fn, pert)
    return ExtremalityReport(False, True, rep, covered, system, dim, pert,
                             eps, (f"kernel dimension {dim}",), tuple(basis))


# -- finite group model -------------------------------------------------------

def _discrete_system(fn: DiscreteFunction, f_idx: int):
    """Rows in first-seen order, deduplicated by their sparse integer key
    ((column, coefficient), ...); the Fraction row and its provenance are
    built only for the rows kept."""
    q = fn.q
    ncols = q - 1
    kept: dict[tuple[tuple[int, int], ...], str] = {}

    def put(terms, template, *idx):
        coeffs: dict[int, int] = {}
        for i, coeff in terms:
            if i % q:
                coeffs[i % q - 1] = coeffs.get(i % q - 1, 0) + coeff
        key = tuple(sorted((c, v) for c, v in coeffs.items() if v))
        if key not in kept:
            kept[key] = template.format(*(Fraction(i, q) for i in idx))

    put(((f_idx, 1),), "normalization pi~({}) = 0", f_idx)
    for a in range(q):
        put(((a, 1), (f_idx - a, 1)), "symmetry pi~({}) + pi~({}) = 0",
            a, (f_idx - a) % q)
    V = common_denominator(fn.values)
    scaled = [int(v * V) for v in fn.values]
    _, zeros, _ = _scan.scan_discrete(scaled, q)
    for i, j, _ in zeros:
        put(((i, 1), (j, 1), (i + j, -1)), "pi~({}) + pi~({}) = pi~({})",
            i, j, (i + j) % q)
    rows = []
    for key in kept:
        row = [ZERO] * ncols
        for c, v in key:
            row[c] = Fraction(v)
        rows.append(tuple(row))
    return EquationSystem(tuple(rows), tuple(kept.values()), ncols)


def find_epsilon_discrete(fn: DiscreteFunction, pert: DiscreteFunction) -> Fraction:
    if all(v == 0 for v in pert.values):
        raise ParameterError("perturbation must be nonzero")
    V = common_denominator(fn.values)
    scaled = [int(v * V) for v in fn.values]
    neg, _, min_pos = _scan.scan_discrete(scaled, fn.q)
    if neg:
        raise ParameterError("base function must be minimal valid")
    W = common_denominator(pert.values)
    pscaled = [int(v * W) for v in pert.values]
    q = fn.q
    max_abs = Fraction(max(
        abs(pscaled[i] + pscaled[j] - pscaled[i + j - q if i + j > q else i + j])
        for i in range(q + 1) for j in range(i, q + 1)), W)
    eps = ONE if max_abs == 0 else Fraction(min_pos if min_pos else V, V) / max_abs
    f = fn.f
    for _ in range(64):
        plus = DiscreteFunction(fn.q, fn.points,
                                tuple(v + eps * w for v, w in zip(fn.values, pert.values)), f)
        minus = DiscreteFunction(fn.q, fn.points,
                                 tuple(v - eps * w for v, w in zip(fn.values, pert.values)), f)
        if (minimality_test_discrete(plus, f=f).is_minimal
                and minimality_test_discrete(minus, f=f).is_minimal):
            return eps
        eps = eps / 2
    raise InternalConsistencyError(
        "no epsilon makes both perturbed discrete functions minimal valid")


def extremality_test_discrete(fn: DiscreteFunction, f=None) -> ExtremalityReport:
    """Extremality for the cyclic group model: the unknowns are the q - 1
    interior values of a perturbation; the equations are the normalization
    at f, the symmetry relations and every tight additivity; extreme iff
    the kernel is trivial."""
    rep = minimality_test_discrete(fn, f=f)
    if not rep.is_minimal:
        return ExtremalityReport(False, False, rep, None, None, None, None,
                                 None, ("not minimal valid",))
    q = fn.q
    fi = int(rep.f_used * q) % q
    system = _discrete_system(fn, fi)
    basis = kernel_basis(system.rows, system.ncols)
    dim = len(basis)
    if dim == 0:
        return ExtremalityReport(True, True, rep, None, system, 0, None, None, ())
    vec = basis[0]
    pert = DiscreteFunction(q, fn.points,
                            (ZERO,) + tuple(vec) + (ZERO,), rep.f_used)
    eps = find_epsilon_discrete(fn, pert)
    return ExtremalityReport(False, True, rep, None, system, dim, pert, eps,
                             (f"kernel dimension {dim}",), tuple(basis))
