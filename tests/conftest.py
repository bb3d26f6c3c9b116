"""Shared fixtures and independent oracles for the test suite."""

import random
from fractions import Fraction as F
from functools import cache
from typing import Optional
from math import gcd, lcm

import pytest

import groupcut as gc
from groupcut.complex2d import (delta_pi, face_area, faces_of_complex,
                                scan_vertex_slacks, vertex_slacks)


@pytest.fixture(scope="session")
def gmic45():
    return gc.gmic(F(4, 5))


@pytest.fixture(scope="session")
def gmic15():
    return gc.gmic(F(1, 5))


@pytest.fixture(scope="session")
def equiv5():
    return gc.equiv5_random_discont_1()


@pytest.fixture(scope="session")
def gj():
    return gc.gj_2_slope(F(3, 5), F(1, 3))


@pytest.fixture(scope="session")
def drlm():
    return gc.drlm_backward_3_slope(F(1, 12), F(4, 12))


@pytest.fixture(scope="session")
def hildebrand():
    return gc.hildebrand_discont_3_slope_1()


@pytest.fixture(scope="session")
def zero_fn():
    return gc.from_breakpoints_and_values([0, 1], [0, 0])


# -- independent oracles ------------------------------------------------------

def oracle_value_violations(fn, f=None):
    """The value conditions of minimality in Fractions, read from fn.limits
    or fn.values: (violations, found).  The violations are (kind, x, sides,
    slack) tuples in the order of minimality_test: pi(0) = 0, then
    0 <= pi <= 1 at every breakpoint or group point and side, then
    pi(x) + pi(f - x) = 1 with every limit, at f, else fn.f, else the
    found f (skipped when there is none).  found is the first point of
    (0, 1) with value 1, or the (type, message) of find_f's refusal.  An f
    that is not a point of the finite group is a ConstructionError."""
    if isinstance(fn, gc.DiscreteFunction):
        names, entries = (None,), [(x, (v,)) for x, v in zip(fn.points, fn.values)]
    else:
        names, entries = ("value", "right", "left"), list(zip(fn.breakpoints,
                                                              fn.limits))
    out = []
    x0, (v0, *_) = entries[0]
    if v0 != 0:
        out.append(("value-at-0", x0, None, v0))
    for x, t in entries:
        out += [("range", x, side, min(v, 1 - v))
                for side, v in zip(names, t) if not 0 <= v <= 1]
    inner = entries[1:-1]
    found = next((x for x, t in inner if t[0] == 1), None)
    if found is None:
        found = (gc.NoCandidateFError, "no value in (0, 1) equals 1 (only a "
                 "one-sided limit does)" if any(1 in t[1:] for _, t in inner)
                 else "no candidate f: no value in (0, 1) equals 1")
    if f is None:
        f = fn.f if fn.f is not None else (
            found if isinstance(found, F) else None)
    if f is None:
        return out, found
    if isinstance(fn, gc.DiscreteFunction):
        if (f * fn.q).denominator != 1:
            raise gc.ConstructionError(
                f"f = {f} is not a point of (1/{fn.q})Z")
        for x, (v,) in entries[:-1]:
            if v + fn(f - x) != 1:
                out.append(("symmetry", x, None, v + fn(f - x) - 1))
        return out, found
    bk = fn.breakpoints
    for x in sorted({*bk, *((f - b) % 1 for b in bk)}):
        # the mirror x -> f - x swaps the right and the left limit
        v, r, l = fn.limits_at(f - x)
        for side, a, b in zip(names, fn.limits_at(x), (v, l, r)):
            if a + b != 1:
                out.append(("symmetry", x, side, a + b - 1))
    return out, found


def oracle_canonical(bkpt, limits):
    """(breakpoints, limits) with the interior points dropped that are
    continuous and have equal Fraction slopes on both sides: each slope is
    the rise from the right limit at one end to the left limit at the
    other, over the run.  0 and 1 always stay."""
    n = len(bkpt) - 1
    keep = [True] * (n + 1)
    for i in range(1, n):
        v, r, l = limits[i]
        if not (v == r == l):
            continue
        left_slope = (limits[i][2] - limits[i - 1][1]) / (bkpt[i] - bkpt[i - 1])
        right_slope = (limits[i + 1][2] - limits[i][1]) / (bkpt[i + 1] - bkpt[i])
        if left_slope == right_slope:
            keep[i] = False
    return (tuple(b for b, k in zip(bkpt, keep) if k),
            tuple(t for t, k in zip(limits, keep) if k))


def oracle_maximal_additive_faces(fn):
    """Brute force: mark every face whose vertices all have zero slack,
    then keep the inclusion-maximal ones.  Valid for continuous functions,
    independent of the incremental enumeration under test."""
    additive = [
        face for face in faces_of_complex(fn)
        if all(delta_pi(fn, x, y) == 0 for (x, y) in face.vertices)
    ]
    return sorted(
        f.key() for f in additive
        if not any(g.dimension > f.dimension and g.contains_face(f)
                   for g in additive)
    )


def _oracle_limit(fn):
    """oracle_delta_pi_limit for one function: the lcm of its breakpoint
    denominators is found once, and each value of fn once."""
    value = cache(fn)
    den = lcm(*(x.denominator for x in fn.breakpoints))

    def delta(x, y):
        return value(x) + value(y) - value(x + y)

    def limit(face, v):
        if face.dimension == 0:
            return delta(*face.vertices[0])
        n = len(face.vertices)
        cx = sum((p[0] for p in face.vertices), F(0)) / n
        cy = sum((p[1] for p in face.vertices), F(0)) / n
        dx, dy = cx - v[0], cy - v[1]
        D = lcm(den, v[0].denominator, v[1].denominator)
        t1 = F(1, 4 * D)
        t2 = F(1, 8 * D)
        d1 = delta(v[0] + t1 * dx, v[1] + t1 * dy)
        d2 = delta(v[0] + t2 * dx, v[1] + t2 * dy)
        return 2 * d2 - d1

    return limit


def oracle_delta_pi_limit(fn, face, v):
    """Directional limit by exact extrapolation: the slack is affine on a
    short initial segment from v toward the face centroid, so two samples
    determine the limit."""
    return _oracle_limit(fn)(face, v)


def oracle_additive_faces(fn):
    """Brute force by the limit criterion: every face of the complex, each
    directional limit taken by oracle_delta_pi_limit and each inclusion by
    Face.contains_face.  Returns (key, maximal) for the additive faces in
    key order.  Valid for continuous and discontinuous functions."""
    all_faces = faces_of_complex(fn)
    # a vertex of the complex lies in a face only as one of its vertices,
    # and a face of the complex that lies in another is one of its faces:
    # the faces containing a face are among those at its first vertex
    at_vertex: dict = {}
    for g in all_faces:
        for v in g.vertices:
            at_vertex.setdefault(v, []).append(g)
    # each (face, vertex) limit is taken once
    limit = _oracle_limit(fn)
    zero = cache(lambda face, v: limit(face, v) == 0)
    additive = []
    for face in all_faces:
        around = at_vertex[face.vertices[0]]
        if face.dimension == 2:
            ok = all(zero(face, v) for v in face.vertices)
        elif face.dimension == 1:
            containers = [face] + [g for g in around if g.dimension == 2
                                   and g.contains_face(face)]
            ok = any(all(zero(g, v) for v in face.vertices)
                     for g in containers)
        else:
            ok = any(zero(g, face.vertices[0]) for g in around)
        if ok:
            additive.append(face)
    keys = {f.key() for f in additive}
    return [(f.key(), not any(g.dimension > f.dimension and g.key() in keys
                              and g.contains_face(f)
                              for g in at_vertex[f.vertices[0]]))
            for f in additive]


def oracle_face_vertices(I, J, K):
    """Sorted vertices of {x in I, y in J, x + y in K} for closed intervals
    of exact numbers, by brute force: the basic solutions, where two of x,
    y, x + y sit at interval endpoints, that are feasible."""
    cand = {(x, y) for x in I for y in J}
    cand.update((x, s - x) for x in I for s in K)
    cand.update((s - y, y) for y in J for s in K)
    return tuple(sorted(
        (x, y) for x, y in cand
        if I[0] <= x <= I[1] and J[0] <= y <= J[1] and K[0] <= x + y <= K[1]))


def oracle_face_area(face):
    """Area of a 2-face by exact integration of its slice length over x:
    the length of {y in proj2, x + y in proj3} is affine between the
    distinct x of the vertices, so the trapezoid rule is exact there."""
    (y0, y1), (s0, s1) = face.proj2, face.proj3

    def length(x):
        return min(y1, s1 - x) - max(y0, s0 - x)

    xs = sorted({x for x, _ in face.vertices})
    return sum(((length(a) + length(b)) * (b - a) / 2
                for a, b in zip(xs, xs[1:])), F(0))


def oracle_additivity_area(fn):
    """Area of the zero-slack set: a two-dimensional face lies in it exactly
    when the slack vanishes at three affinely independent interior points
    (the slack is affine there and continuous on the open cell)."""
    total = F(0)
    for face in faces_of_complex(fn, dims=(2,)):
        n = len(face.vertices)
        cx = sum((p[0] for p in face.vertices), F(0)) / n
        cy = sum((p[1] for p in face.vertices), F(0)) / n
        probes = [(cx, cy)]
        for vx, vy in face.vertices:
            probes.append(((cx + vx) / 2, (cy + vy) / 2))
        independent = [probes[0]]
        for p in probes[1:]:
            if len(independent) == 1 and p != independent[0]:
                independent.append(p)
            elif len(independent) == 2:
                (x1, y1), (x2, y2) = independent
                if (x2 - x1) * (p[1] - y1) != (y2 - y1) * (p[0] - x1):
                    independent.append(p)
                    break
        if all(delta_pi(fn, x, y) == 0 for x, y in independent):
            total += face_area(face)
    return total


def oracle_kernel_dimension(rows, ncols):
    """Kernel dimension via sympy, independent of the exact elimination."""
    import sympy

    if not rows:
        return ncols
    m = sympy.Matrix([[sympy.Rational(e) for e in row] for row in rows])
    return ncols - m.rank()


def oracle_rank_rows(rows, ncols):
    """Indices of the sparse integer rows that raise the rank of their
    prefix over GF(2^61 - 1): dense rows, each kept row stored with its
    first nonzero column scaled to 1, and a row kept exactly when
    eliminating it against the kept rows leaves a nonzero entry."""
    p = (1 << 61) - 1
    kept = []  # (pivot column, dense row with 1 there)
    out = []
    for i, sparse in enumerate(rows):
        row = [0] * ncols
        for j, v in sparse:
            row[j] = (row[j] + v) % p
        for c, r in kept:
            if row[c]:
                row = [(a - row[c] * b) % p for a, b in zip(row, r)]
        nz = [j for j in range(ncols) if row[j]]
        if nz:
            inv = pow(row[nz[0]], p - 2, p)
            kept.append((nz[0], [a * inv % p for a in row]))
            out.append(i)
    return out


def oracle_kernel_basis(rows, ncols):
    """kernel_basis by Gauss-Jordan elimination in Fractions, row by row
    with the first nonzero column as pivot: per free column, the primitive
    integer kernel vector that is positive there and zero in the other
    free columns."""
    reduced, pivots = [], []
    for row in rows:
        row = [F(e) for e in row]
        for r, c in zip(reduced, pivots):
            if row[c]:
                row = [a - row[c] * b for a, b in zip(row, r)]
        nz = [j for j in range(ncols) if row[j]]
        if not nz:
            continue
        c = nz[0]
        row = [a / row[c] for a in row]
        for i, r in enumerate(reduced):
            if r[c]:
                reduced[i] = [a - r[c] * b for a, b in zip(r, row)]
        reduced.append(row)
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, c in zip(reduced, pivots):
            v[c] = -r[fc]
        scale = lcm(*(e.denominator for e in v))
        ints = [int(e * scale) for e in v]
        g = gcd(*ints)
        basis.append(tuple(F(e // g) for e in ints))
    return basis


def oracle_equation_system(fn):
    """(rows, provenance, ncols) of the extremality system of a minimal fn
    whose covered components exhaust [0, 1] (any minimal function in the
    finite model), built in dense Fraction rows and deduplicated by
    Fraction tuple, independently of the integer row builder.

    Infinite model: the normalizations at 0, f and 1, then g's limits
    (sym.limit) summed at every tight cone of scan_vertex_slacks(fn), in
    its order, with sums in [0, 2] folded in two steps: t > 1 becomes
    t - 1, then 1 approached from the right is 0+ and 0 from the left 1-.
    Finite model: the normalization at f, the symmetry pairs, then every
    pair (i, i + d) of zero slack, by diagonal d and then i, found by
    evaluating the values."""
    f = gc.minimality_test(fn).f_used
    rows = {}
    if isinstance(fn, gc.DiscreteFunction):
        q, fi = fn.q, int(f * fn.q) % fn.q
        ncols = q - 1

        def put(terms, template, *idx):
            row = [F(0)] * ncols
            for i, coeff in terms:
                if i % q:
                    row[i % q - 1] += coeff
            rows.setdefault(tuple(row), template.format(
                *(F(i % q, q) for i in idx)))

        put(((fi, 1),), "normalization pi~({}) = 0", fi)
        for a in range(q):
            put(((a, 1), (fi - a, 1)), "symmetry pi~({}) + pi~({}) = 0",
                a, fi - a)
        v = fn.values
        for d in range(q + 1):
            for i in range(q + 1 - d):
                j = i + d
                if v[i] + v[j] == v[(i + j) % q]:
                    put(((i, 1), (j, 1), (i + j, -1)),
                        "pi~({}) + pi~({}) = pi~({})", i, j, i + j)
        return list(rows), list(rows.values()), ncols

    sym = gc.generate_symbolic(fn, gc.generate_covered_components(fn))

    def g(t, side):
        if t > 1:
            t -= 1
        if t == 1 and side > 0:
            t = F(0)
        elif t == 0 and side < 0:
            t = F(1)
        return sym.limit(t, side)

    for x in (F(0), f, F(1)):
        rows.setdefault(sym.value(x), f"normalization pi~({x}) = 0")
    mark = {0: "", 1: "+", -1: "-"}
    for (x, y), (sx, sy, ss) in scan_vertex_slacks(fn)[2]:
        row = tuple(a + b - c for a, b, c in
                    zip(g(x, sx), g(y, sy), g(x + y, ss)))
        rows.setdefault(row, f"pi~({x}{mark[sx]}) + pi~({y}{mark[sy]}) "
                             f"= pi~({x + y}{mark[ss]})")
    return list(rows), list(rows.values()), sym.dim


def oracle_symbolic(fn, components):
    """(grid, triples, slopes) of g for fn's covered components, in
    Fractions: the grid of breakpoints and component endpoints, g's
    (value, right, left) vectors at each grid point and the component of
    each piece, found by `component_of` at its midpoint; each piece adds
    its length to its component's column, each jump 1 to its own."""
    k, n = len(components.components), len(fn.breakpoints) - 1
    jumps = []
    for i, (x, (v, r, l)) in enumerate(zip(fn.breakpoints, fn.limits)):
        if i > 0 and l != v:
            jumps.append((x, "left"))
        if i < n and r != v:
            jumps.append((x, "right"))
    grid = sorted(set(fn.breakpoints) | {e for comp in components.components
                                         for iv in comp for e in iv})
    vec, triples, slopes = [F(0)] * (k + len(jumps)), [], []
    for i, x in enumerate(grid):
        if i:
            comp = components.component_of((grid[i - 1] + x) / 2)
            slopes.append(comp)
            vec[comp] += x - grid[i - 1]
        left = tuple(vec)
        if (x, "left") in jumps:
            vec[k + jumps.index((x, "left"))] += 1
        value = tuple(vec)
        if (x, "right") in jumps:
            vec[k + jumps.index((x, "right"))] += 1
        triples.append((value, tuple(vec), left))
    return grid, triples, slopes


def oracle_perturbation(sym, vec, f=None):
    """g . vec at the grid of g as Fraction dot products of sym.limit,
    with the periodic seam at 0 and 1, as a merged piecewise function."""
    triples = [tuple(sum((a * b for a, b in zip(sym.limit(x, side), vec)),
                         F(0)) for side in (0, 1, -1)) for x in sym.grid]
    assert triples[0][0] == 0 and triples[-1][0] == 0
    triples[0] = triples[-1] = (F(0), triples[0][1], triples[-1][2])
    return gc.from_breakpoints_and_limits(sym.grid, triples, f=f)


def oracle_linear_combination(a, fn1, b, fn2, f=None):
    """a*fn1 + b*fn2 from `limits_at` of both at every breakpoint of
    either, in Fractions."""
    a, b = F(a), F(b)
    grid = sorted(set(fn1.breakpoints) | set(fn2.breakpoints))
    triples = [tuple(a * u + b * v for u, v in zip(fn1.limits_at(x),
                                                   fn2.limits_at(x)))
               for x in grid]
    return gc.from_breakpoints_and_limits(
        grid, triples, f=f if f is not None else fn1.f)


def oracle_find_epsilon(fn, pert):
    """The halving search that find_epsilon replaced, on the public
    linear_combination and minimality_test.  f is fn.f, else find_f(fn).
    start = (least positive slack of fn) / (largest |slack| of pert): fn's
    from its vertex slack record, pert's from Fraction limits over every
    cone at fn's complex vertices x <= y, or both over every group pair.
    It is halved until fn +- eps*pert both pass the minimality test at f,
    at most 64 times.  A zero pert, or an fn that fails the minimality
    test at f, is a ParameterError."""
    f = fn.f if fn.f is not None else gc.find_f(fn)
    if isinstance(fn, gc.DiscreteFunction):
        q, u, v = fn.q, fn.values, pert.values
        nonzero = any(v)
        sums = [(i, j, i + j - q if i + j > q else i + j)
                for i in range(q + 1) for j in range(i, q + 1)]
        slacks = [u[i] + u[j] - u[k] for i, j, k in sums]
        min_pos = min((s for s in slacks if s > 0), default=None)
        max_abs = max(abs(v[i] + v[j] - v[k]) for i, j, k in sums)

        def plus(c):
            return gc.DiscreteFunction(
                q, fn.points, tuple(a + c * b for a, b in zip(u, v)), f)
    else:
        from groupcut._scan import SIDE_TRIPLES

        nonzero = any(a for t in pert.limits for a in t)
        points, _, _, min_pos = scan_vertex_slacks(fn)
        # limits_at once per coordinate; a triple is indexed by side, and
        # a continuous function has every limit equal to the value
        lim = {p: pert.limits_at(p) for x, y in points for p in (x, y, x + y)}
        cones = SIDE_TRIPLES[:1 if pert.is_continuous else None]
        max_abs = max(abs(lim[x][sx] + lim[y][sy] - lim[x + y][ss])
                      for x, y in points for sx, sy, ss in cones)

        def plus(c):
            return gc.linear_combination(1, fn, c, pert, f=f)
    if not nonzero:
        raise gc.ParameterError("perturbation must be nonzero")
    if not gc.minimality_test(fn, f, collect_all=False).is_minimal:
        raise gc.ParameterError("base function must be minimal valid")
    eps = F(1) if max_abs == 0 else (
        min_pos if min_pos is not None else F(1)) / max_abs
    for _ in range(64):
        if all(gc.minimality_test(plus(c), f, collect_all=False).is_minimal
               for c in (eps, -eps)):
            return eps
        eps /= 2
    raise gc.InternalConsistencyError(
        "no epsilon makes both perturbed functions minimal valid")


def oracle_random_piecewise_function(xgrid: int = 5, ygrid: int = 5,
                                     continuous_proba=F(1),
                                     symmetry: bool = True,
                                     seed: Optional[int] = None
                                     ) -> gc.PiecewiseFunction:
    """random_piecewise_function as it was drawn in Fractions, each value
    k / ygrid, the pinned 1/2 and every mirror 1 - v, merged by
    from_breakpoints_and_limits: the oracle of the integer generator."""
    if xgrid < 1 or ygrid < 1:
        raise gc.ConstructionError("xgrid and ygrid must be at least 1")
    proba = gc.to_rational(continuous_proba)
    if not (0 <= proba <= 1):
        raise gc.ConstructionError("continuous_proba must lie in [0, 1]")
    if symmetry and xgrid < 2:
        raise gc.ConstructionError(
            "symmetry needs xgrid >= 2 (f must be an interior grid point)")
    rng = random.Random(seed)
    fi = rng.randrange(1, xgrid) if symmetry else None  # f = fi / xgrid

    def yval() -> F:
        return F(rng.randrange(ygrid + 1), ygrid)

    def draw(value: Optional[F] = None, own_mirror: bool = False) -> tuple:
        # a point that is its own mirror draws its left limit only, and its
        # right limit is the mirror of that
        continuous = rng.randrange(proba.denominator) < proba.numerator
        v = yval() if value is None else value
        if continuous:
            return (v, v, v)
        w = yval()
        return (v, 1 - w, w) if own_mirror else (v, w, yval())

    triples: list[Optional[tuple]] = [draw(F(0))] + [None] * xgrid
    for i in range(xgrid):
        j = (fi - i) % xgrid if symmetry else None  # mirror grid index of x_i
        if triples[i] is None:
            triples[i] = draw(F(1, 2), own_mirror=True) if j == i else draw()
        if j is not None and triples[j] is None:
            v, r, l = triples[i]
            triples[j] = (1 - v, 1 - l, 1 - r)
    triples[xgrid] = triples[0]
    pts = [F(i, xgrid) for i in range(xgrid + 1)]
    f = F(fi, xgrid) if symmetry else None
    return gc.from_breakpoints_and_limits(pts, triples, f=f, merge=True)


def random_subadditive_functions(count, seed, continuous):
    """Deterministic stream of random subadditive functions, continuous or
    not: breakpoints k/q for q in 2..6, every value and limit in
    quarters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.randint(2, 6)
        limits = []
        for k in range(q):
            v = F(rng.randint(0, 4), 4) if k else F(rng.choice([0, 0, 1]), 4)
            r, l = (v, v) if continuous else (
                F(rng.randint(0, 4), 4) if rng.random() < 0.5 else v
                for _ in range(2))
            limits.append((v, r, l))
        fn = gc.from_breakpoints_and_limits(
            [F(k, q) for k in range(q + 1)], limits + limits[:1])
        if fn.is_continuous == continuous and not vertex_slacks(fn).neg:
            out.append(fn)
    return out


def random_minimal_functions(count, xgrid=4, ygrid=4, proba=1, start_seed=1,
                             max_seed=4000):
    """Deterministic stream of random minimal valid functions."""
    out = []
    seed = start_seed
    while len(out) < count and seed < max_seed:
        fn = gc.random_piecewise_function(xgrid, ygrid, proba, True, seed=seed)
        seed += 1
        try:
            if gc.minimality_test(fn).is_minimal:
                out.append(fn)
        except gc.NoCandidateFError:
            continue
    assert len(out) == count, f"only found {len(out)} functions"
    return out
