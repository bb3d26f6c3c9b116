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
is not constructed here.  In the finite cyclic group model the unknowns
are the interior values of a perturbation; the rest of the test is shared.

Both systems are held in one row format, the sparse integer row
((column, coefficient), ...).  On the grid 1/D of g (the breakpoints and
the component endpoints), D*g is an integer vector at every grid point: a
slope entry is a grid length, a jump entry is D.  Each tight cone of the
function's vertex slack record gives D times its relation, summed from
these vectors (see build_equation_system); the finite rows are integer
already.  A kernel vector becomes the perturbation by one integer dot
product with D*g per entry; EquationSystem.rows, SymbolicPerturbation's
limit and value and the perturbation are the Fraction views.

The kernel is decided by one rank pass modulo the prime P = 2^61 - 1
first (see exactlinalg), on the rows as they are made.  When the rows
that raise the rank modulo P number ncols, their square minor is nonzero
modulo P, hence a nonzero integer, so the rank is full over Q and the
function is extreme: the report keeps those rows' indices into
system.integer_rows as rank_rows, the certificate of full rank, no exact
step runs, and the later rows are made only if the system is read.  A
rank short modulo P decides nothing: the exact elimination then computes
the kernel, from the whole system, which it alone ever supplies.

With f fixed every minimality condition is linear in the function, so the
eps for which pi +- eps*pi~ are minimal valid form an interval [0, eps*]:
one integer scan of pi and pi~ gives eps*, and the epsilon is the first
step halved the least number of times that brings it into the interval.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import ceil, lcm
from operator import add, mul, sub
from typing import Iterator, Optional

from . import _scan
from .complex2d import vertex_slacks
from .covering import (CoveredComponentSet, format_intervals,
                       generate_covered_components)
from .errors import (ConstructionError, InternalConsistencyError,
                     ParameterError)
from .exactlinalg import _exact_kernel, _rank_rows
from .minimality import (MinimalityReport, _FiniteModel, _InfiniteModel,
                         _find_f, _minimality_test, _model)
from .pwl import DiscreteFunction, PiecewiseFunction, _merged
from .rational import common_denominator, on_grid, to_rational

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

    g is held as D*g on the integer grid: the grid points are ticks / D;
    triples holds the integer vectors D*g (value, right, left) at each grid
    point and slopes the component of each piece between them.  `limit`
    and `value` are the Fraction view.
    """

    k: int
    m: int
    jump_points: tuple[tuple[Fraction, str], ...]
    grid: tuple[Fraction, ...]
    D: int
    ticks: tuple[int, ...]
    triples: tuple[tuple[tuple[int, ...], ...], ...]
    slopes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.k + self.m

    def scaled(self, t, side: int) -> tuple:
        """D*g at t / D for t in [0, D], approached from the given side;
        integer entries when t is an integer."""
        i = bisect_right(self.ticks, t) - 1
        v, r, l = self.triples[i]
        if self.ticks[i] == t:
            return v if side == 0 else (r if side > 0 else l)
        out = list(r)
        out[self.slopes[i]] += t - self.ticks[i]
        return tuple(out)

    def limit(self, x, side: int = 0) -> Vector:
        """g at x in [0, 1], approached from the given side (no periodic
        reduction; the domain is the closed interval)."""
        x = to_rational(x)
        if not (0 <= x <= 1):
            raise ConstructionError(f"{x} outside [0, 1]")
        return tuple(Fraction(a, self.D) for a in self.scaled(x * self.D, side))

    def value(self, x) -> Vector:
        return self.limit(x, 0)


@dataclass(frozen=True)
class EquationSystem:
    """Exact linear system with one provenance string per row.  The rows
    are held as sparse integer rows ((column, coefficient), ...) over one
    denominator; `rows` is their dense Fraction view, built on first read.
    The provenance is held as sources (grid, ((template, t, ...), ...)),
    one format template per row with the integer points t / grid it names;
    its strings are built on the first read of `provenance`.  Both are
    made by stream, which adds each row and source to drawn as `_read`
    reaches it; __getattr__ drains it on the first read of either."""

    integer_rows: tuple[tuple[tuple[int, int], ...], ...] = field(init=False)
    denominator: int
    provenance: tuple[str, ...] = field(init=False)  # set by __getattr__
    ncols: int
    sources: tuple = field(init=False, repr=False, compare=False)
    grid: int = field(repr=False, compare=False)
    drawn: tuple = field(repr=False, compare=False)  # (rows, sources)
    stream: Iterator = field(default=iter(()), repr=False, compare=False)

    def _read(self):
        """The integer rows drawn so far, then the rest of the stream."""
        return chain(self.drawn[0], self.stream)

    def __getattr__(self, name):
        if name in ("integer_rows", "sources"):
            self.__dict__.update(integer_rows=tuple(self._read()),
                                 sources=(self.grid, tuple(self.drawn[1])))
        elif name == "provenance":
            grid, rows = self.sources
            self.__dict__[name] = tuple(template.format(*(
                Fraction(t, grid) for t in ts)) for template, *ts in rows)
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def __reduce__(self):
        return EquationSystem, (self.denominator, self.ncols, self.grid,
                                (self.integer_rows, self.sources[1]))

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(r[c], self.denominator) if c in r else ZERO
                           for c in range(self.ncols))
                     for r in map(dict, self.integer_rows))

    def __len__(self):
        return len(self.integer_rows)


@dataclass(frozen=True)
class ExtremalityReport:
    is_extreme: bool
    is_minimal: bool
    minimality: MinimalityReport
    covered: Optional[CoveredComponentSet] = None
    system: Optional[EquationSystem] = None
    kernel_dimension: Optional[int] = None
    # a PiecewiseFunction or a DiscreteFunction
    perturbation: Optional[object] = None
    epsilon: Optional[Fraction] = None
    notes: tuple[str, ...] = ()
    kernel: tuple[Vector, ...] = ()
    # extreme: the rows of system.integer_rows that raised the rank modulo
    # P, ncols of them unless P divides every full minor
    rank_rows: tuple[int, ...] = ()

    def __bool__(self):
        return self.is_extreme


def generate_symbolic(fn: PiecewiseFunction,
                      components: CoveredComponentSet) -> SymbolicPerturbation:
    """Build g for a function whose covered components exhaust [0, 1]."""
    if components.uncovered:
        raise ConstructionError(
            "uncovered intervals present: "
            f"[{format_intervals(components.uncovered)}]")
    k = len(components.components)
    n = len(fn.breakpoints) - 1

    # the grid points by their integer tick on the grid 1/D: the
    # breakpoints, then the ends of the component intervals
    points = [*fn.breakpoints,
              *(e for comp in components.components for iv in comp for e in iv)]
    D, ints = on_grid(points)
    at = dict(zip(ints, points))
    ticks = sorted(at)
    if ticks[0] != 0 or ticks[-1] != D:
        raise InternalConsistencyError("component endpoints escape [0, 1]")
    grid = [at[t] for t in ticks]

    jumps: list[tuple[Fraction, str]] = []
    jump_col = {}  # (tick, side) -> the jump's column
    for i, (x, (v, r, l)) in enumerate(zip(fn.breakpoints, fn.limits)):
        for side, jumped in (("left", i > 0 and l != v),
                             ("right", i < n and r != v)):
            if jumped:
                jump_col[ints[i], side] = k + len(jumps)
                jumps.append((x, side))
    # the component intervals as integer spans (lo, hi, component), sorted:
    # a piece lies in the span that starts last at or before its left end
    ends = ints[n + 1:]
    spans = sorted(zip(ends[::2], ends[1::2], (
        c for c, comp in enumerate(components.components) for _ in comp)))
    starts = [lo for lo, _, _ in spans]

    # walk the grid: each piece adds its length to its component's column
    # and each jump adds D to its own column
    vec, triples, slopes = [0] * (k + len(jumps)), [], []
    for i, x in enumerate(grid):
        if i:
            j = bisect_right(starts, ticks[i - 1]) - 1
            if j < 0 or spans[j][1] < ticks[i]:
                raise InternalConsistencyError(
                    f"piece ({grid[i - 1]}, {x}) not inside any covered component")
            comp = spans[j][2]
            slopes.append(comp)
            vec[comp] += ticks[i] - ticks[i - 1]
        left = tuple(vec)
        if (ticks[i], "left") in jump_col:
            vec[jump_col[ticks[i], "left"]] += D
        value = tuple(vec)
        if (ticks[i], "right") in jump_col:
            vec[jump_col[ticks[i], "right"]] += D
        triples.append((value, tuple(vec), left))

    return SymbolicPerturbation(k, len(jumps), tuple(jumps), tuple(grid), D,
                                tuple(ticks), tuple(triples), tuple(slopes))


class _VectorIds(dict):
    """(point t on the grid 1/(D / scale), side) -> (id, vector) of D*g
    there, filled on first read; `vectors` maps each distinct vector to its
    id, in first-seen order."""

    def __init__(self, sym: SymbolicPerturbation, scale: int):
        super().__init__()
        self.sym, self.scale, self.vectors = sym, scale, {}

    def __missing__(self, key: tuple[int, int]) -> tuple[int, tuple]:
        t, side = key
        v = self.sym.scaled(_scan.fold(t * self.scale, side, self.sym.D), side)
        self[key] = out = self.vectors.setdefault(v, len(self.vectors)), v
        return out


def build_equation_system(fn: PiecewiseFunction, sym: SymbolicPerturbation,
                          f: Fraction) -> EquationSystem:
    """Normalization rows, made now, and one row per tight cone of fn's
    vertex slack record in its scan order, made as the system's stream is
    read; duplicates are removed keeping the first provenance.  Each row
    is D times the relation over the grid 1/D of g, summed from the
    integer vectors D*g; each kept row keeps its provenance template and
    grid points.

    Each (point, side) of a tight cone is folded and read from g once, and
    its vector D*g interned as a small integer id; a cone is keyed by the
    ids of its three sides, the first two unordered (the row is symmetric
    in them), and a row is summed only for a key not seen before (an
    earlier cone with the same key gave the same row)."""
    D = sym.D
    fD = to_rational(f) * D
    if fD.denominator != 1 or not 0 <= fD <= D:
        raise ParameterError(f"f = {f} is not on the grid 1/{D} in [0, 1]")

    def sparse(row):
        return tuple((c, v) for c, v in enumerate(row) if v)

    seen: dict = {}  # dense row -> source, in the order made
    for t in (0, int(fD), D):
        seen.setdefault(sym.scaled(t, 0), ("normalization pi~({}) = 0", t))
    rows, sources = [sparse(row) for row in seen], list(seen.values())

    def stream():
        rec = vertex_slacks(fn)
        scale = D // rec.D
        at, keys = _VectorIds(sym, scale), set()
        side_sym = {0: "", 1: "+", -1: "-"}
        for x, y, (sx, sy, ss) in rec.tight:
            (ix, gx), (iy, gy), (iz, gz) = at[x, sx], at[y, sy], at[x + y, ss]
            key = (ix, iy, iz) if ix < iy else (iy, ix, iz)
            if key in keys:
                continue
            keys.add(key)
            row = tuple(map(sub, map(add, gx, gy), gz))
            if row not in seen:
                x, y = x * scale, y * scale
                seen[row] = ("pi~({}%s) + pi~({}%s) = pi~({}%s)" % (
                    side_sym[sx], side_sym[sy], side_sym[ss]), x, y, x + y)
                rows.append(sparse(row))
                sources.append(seen[row])
                yield rows[-1]

    return EquationSystem(D, sym.dim, D, (rows, sources), stream())


def perturbation_from_vector(sym: SymbolicPerturbation, vec: Vector,
                             f=None) -> PiecewiseFunction:
    """Materialize pi~ = g . vec as a periodic piecewise function.  vec must
    satisfy the normalization rows so that pi~(0) = pi~(1) = 0.  vec is
    scaled once to integers by its common denominator (1 for a kernel
    vector), so each entry is one integer dot product with D*g, and the
    grid points are merged on those integers."""
    if len(vec) != sym.dim:
        raise ParameterError(
            f"vector of length {len(vec)}, expected {sym.dim}")
    den, ivec = on_grid(to_rational(a) for a in vec)
    rows = [tuple(sum(map(mul, part, ivec)) for part in t) for t in sym.triples]
    (v0, r0, _), (v1, _, l1) = rows[0], rows[-1]
    if v0 or v1:
        raise ConstructionError("vector does not vanish at 0 and 1")
    rows[0] = rows[-1] = (0, r0, l1)
    return _merged(sym.ticks, rows, sym.D, sym.D * den, f)


class _InfiniteExtremality(_InfiniteModel):
    """The infinite model's side of the shared extremality test:
    `system(f)` gives the covered components, the system (None when [0, 1]
    is not covered) and the map from a kernel vector to the perturbation;
    `epsilon_terms(p, f)` what `_find_epsilon` reads for the perturbation
    model p."""

    def system(self, f: Fraction):
        covered = generate_covered_components(self.fn)
        if covered.uncovered:
            return covered, None, None
        sym = generate_symbolic(self.fn, covered)
        return (covered, build_equation_system(self.fn, sym, f),
                partial(perturbation_from_vector, sym, f=f))

    def epsilon_terms(self, p: _InfiniteModel, f: Fraction):
        """The terms of `_find_epsilon` on the common refinement of fn and
        p.fn, whose complex and breakpoints decide the minimality of
        fn + c p.fn, on a grid 1/D that holds f; max_abs is read at fn's own
        record points."""
        fn, rec = self.fn, vertex_slacks(self.fn)
        D = lcm(rec.D, common_denominator(p.fn.breakpoints), f.denominator)
        tables = fn.scaled_tables(D), p.fn.scaled_tables(D)
        b = sorted({*tables[0][0], *tables[1][0]})
        points = _scan.complex_vertices(b)
        fD, scale = f.numerator * (D // f.denominator), D // rec.D
        mirrors = [(x, (fD - x) % D) for x in b]
        coords = {c for x, y in points for c in (x, y, x + y)}
        coords.update(m for _, m in mirrors)
        (u, W), (v, X) = (_scan.limit_table(grid, rows, V, coords)
                          for grid, rows, _, V in tables)
        cones = _scan.SIDE_TRIPLES[
            :1 if fn.is_continuous and p.fn.is_continuous else None]
        own = {(x * scale, y * scale) for x, y in rec.points}
        return (bool(rec.neg), rec.min_pos,
                *_epsilon_pairs(u, v, W, X, points, cones, own, mirrors), W, X)


class _FiniteExtremality(_FiniteModel):
    """As `_InfiniteExtremality`, for the finite model."""

    def system(self, f: Fraction):
        """The unknowns are the q - 1 interior values of a perturbation; the
        rows are the normalization at f and the symmetry relations, made
        now, then every tight additivity in the scan's diagonal order, made
        as the system's stream is read; rows are deduplicated by their
        sparse integer key ((column, coefficient), ...), which is the row
        the system keeps, and each kept row keeps its provenance template
        and group indices.  A key is built from the group indices directly:
        index a in 1..q-1 is column a - 1, and pi~(0) = 0 drops out."""
        fn = self.fn
        q, f_idx = fn.q, int(f * fn.q) % fn.q
        kept: dict[tuple[tuple[int, int], ...], tuple] = {}

        def pair(a, b):
            """The key of pi~(a) + pi~(b) for 0 <= a <= b < q."""
            if a == b:
                return ((a - 1, 2),) if a else ()
            return ((a - 1, 1), (b - 1, 1)) if a else ((b - 1, 1),)

        kept[pair(0, f_idx)] = ("normalization pi~({}) = 0", f_idx)
        for a in range(q):
            m = (f_idx - a) % q
            key = pair(a, m) if a <= m else pair(m, a)
            if key not in kept:
                kept[key] = ("symmetry pi~({}) + pi~({}) = 0", a, m)

        def stream():
            """The scan's tight pairs 0 <= i <= j <= q: pi~(i) + pi~(j) -
            pi~(c); for 0 < i <= j < q, c = i + j > j or c = i + j - q < i."""
            for i, j, _ in self.scan[1]:
                c = (i + j) % q
                if not i or j == q:  # pi~(0) = 0 and c is the other index
                    key = ()
                elif not c:
                    key = pair(i, j)
                elif i == j:
                    key = ((i - 1, 2), (c - 1, -1)) if i < c else (
                        (c - 1, -1), (i - 1, 2))
                elif c < i:
                    key = ((c - 1, -1), (i - 1, 1), (j - 1, 1))
                else:
                    key = ((i - 1, 1), (j - 1, 1), (c - 1, -1))
                if key not in kept:
                    kept[key] = ("pi~({}) + pi~({}) = pi~({})", i, j, c)
                    yield key

        system = EquationSystem(1, q - 1, q, (kept, kept.values()), stream())
        return None, system, lambda vec: DiscreteFunction(
            q, fn.points, (ZERO, *vec, ZERO), f)

    def epsilon_terms(self, p: _FiniteModel, f: Fraction):
        """As for the infinite model, over all group points, the value rows
        of the tables read at their points of [0, 2]."""
        neg, _, min_pos = self.scan
        grid, u, W, fq, q = self.symmetry_table(f)
        _, v, _, X = p.tables
        u, v = u + u[1:], v + v[1:]
        points = [(i, j) for i in range(q + 1) for j in range(i, q + 1)]
        mirrors = [(a, (fq - a) % q) for a in grid]
        return (bool(neg), Fraction(min_pos, W) if min_pos else None,
                *_epsilon_pairs(u, v, W, X, points, ((0, 0, 0),), None,
                                mirrors), W, X)


def _epsilon_pairs(u, v, W, X, points, cones, own, mirrors):
    """(max_abs, pairs) from the tables u of pi and v of pi~ by point and
    side: the cones at points keep their least s / |t| by cross-multiplying
    (max_abs is the largest |t| at own, at every point when own is None);
    then pi(0) = 0, and the range at each x and its symmetry with side -s
    of its mirror m."""
    s0 = t0 = max_abs = 0
    for x, y in points:
        ux, uy, us, vx, vy, vs = u[x], u[y], u[x + y], v[x], v[y], v[x + y]
        for sx, sy, ss in cones:
            t = abs(vx[sx] + vy[sy] - vs[ss])
            if t:
                s = ux[sx] + uy[sy] - us[ss]
                if not t0 or s * t0 < s0 * t:
                    s0, t0 = s, t
                if t > max_abs and (own is None or (x, y) in own):
                    max_abs = t
    pairs = [(s0, t0), (-abs(u[0][0]), v[0][0])]
    for x, m in mirrors:
        pairs += [(min(a, W - a), c) for a, c in zip(u[x], v[x])]
        pairs += [(-abs(u[x][s] + u[m][-s] - W), v[x][s] + v[m][-s])
                  for s in range(len(u[x]))]
    return Fraction(max_abs, X), pairs


def _find_epsilon(m, p, f: Fraction) -> Fraction:
    """start = (least positive slack of fn) / (largest absolute slack of
    p.fn at fn's vertices), halved the least k times that makes
    fn +- eps*pert both minimal valid at f.

    With f fixed, pi is minimal valid exactly when pi(0) = 0, 0 <= pi <= 1,
    pi(x) + pi(f - x) = 1 with every limit and pi is subadditive (Gomory
    and Johnson): constraints linear in pi.  Where pi has the slack s and
    pi~ the term t, pi +- eps*pi~ pass an inequality exactly when
    eps |t| <= s, and an equality, of slack 0, exactly when t = 0; where pi
    breaks a condition its slack is negative (-|residual| for an equality)
    and no eps passes.  So the eps that pass are [0, eps*], eps* the least
    s / |t| over the pairs (s over W, t over X) of `epsilon_terms`, and k
    is the least with 2^k >= r = start / eps*: 0 when r <= 1, else the bit
    length of ceil(r) - 1.  A negative slack means fn is not minimal valid
    at f, a ParameterError; eps* = 0 otherwise admits no epsilon."""
    if not any(map(any, p.tables[1])):
        raise ParameterError("perturbation must be nonzero")
    has_neg, min_pos, max_abs, pairs, W, X = m.epsilon_terms(p, f)
    if has_neg or any(s < 0 for s, _ in pairs):
        raise ParameterError("base function must be minimal valid")
    if any(s == 0 and t for s, t in pairs):
        raise InternalConsistencyError(
            "no epsilon makes both perturbed functions minimal valid")
    start = (min_pos or ONE) / max_abs if max_abs else ONE
    r = start * max(Fraction(abs(t) * W, s * X) for s, t in pairs if t)
    return start / 2 ** (0 if r <= 1 else (ceil(r) - 1).bit_length())


def find_epsilon(fn: PiecewiseFunction | DiscreteFunction,
                 pert: PiecewiseFunction | DiscreteFunction) -> Fraction:
    """Certified epsilon, exact and uncapped, for a nonzero perturbation of
    the minimal valid fn in the same model: fn +- eps*pert are minimal
    valid at fn.f, else at find_f(fn) as in extremality_test."""
    m = _model(fn, _InfiniteExtremality, _FiniteExtremality)
    if type(pert) is not type(fn):
        raise ParameterError(f"perturbation must be a {type(fn).__name__}, "
                             f"got {type(pert).__name__}")
    return _find_epsilon(m, type(m)(pert),
                         fn.f if fn.f is not None else _find_f(m))


def extremality_test(fn: PiecewiseFunction | DiscreteFunction,
                     f=None) -> ExtremalityReport:
    """Decide extremality in either model: minimality first, then (in the
    infinite model) full coverage of [0, 1] by the connected covered
    components, then triviality of the kernel of the tight-relation system.
    In the covered non-extreme case the report carries a nonzero
    perturbation and a verified epsilon."""
    m = _model(fn, _InfiniteExtremality, _FiniteExtremality)
    rep = _minimality_test(m, f, collect_all=True)
    if not rep.is_minimal:
        return ExtremalityReport(False, False, rep,
                                 notes=("not minimal valid",))
    covered, system, to_perturbation = m.system(rep.f_used)
    if system is None:
        return ExtremalityReport(False, True, rep, covered, notes=(
            f"uncovered intervals: [{format_intervals(covered.uncovered)}]",
            "perturbation unavailable: uncovered case"))
    rank_rows = _rank_rows(system._read(), system.ncols)
    basis = [] if len(rank_rows) == system.ncols else _exact_kernel(
        system.integer_rows, rank_rows, system.ncols)
    dim = len(basis)
    if dim == 0:
        return ExtremalityReport(True, True, rep, covered, system, 0,
                                 rank_rows=tuple(rank_rows))
    pert = to_perturbation(basis[0])
    eps = _find_epsilon(m, type(m)(pert), rep.f_used)
    return ExtremalityReport(False, True, rep, covered, system, dim, pert,
                             eps, (f"kernel dimension {dim}",), tuple(basis))


# the finite model's former names
extremality_test_discrete = extremality_test
find_epsilon_discrete = find_epsilon
