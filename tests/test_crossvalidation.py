"""Cross-validation of independent code paths against each other and
against theorem-backed equivalences."""

from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

import groupcut as gc
from groupcut.complex2d import (faces_of_complex, scan_vertex_slacks,
                                vertex_slacks)
from groupcut.minimality import witness_face

from conftest import oracle_delta_pi_limit, oracle_value_violations


def _wrap(t, side):
    if side > 0 and t == 1:
        return F(0)
    if side < 0 and t == 0:
        return F(1)
    return t


def test_witness_faces_reproduce_reported_slacks():
    checked = 0
    for seed in range(12):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=seed)
        if fn.is_continuous:
            continue
        _, neg, _, _ = scan_vertex_slacks(fn, upper_triangle=True)
        for (pt, sides, slack) in neg:
            face = witness_face(fn, pt, sides)
            probe = (_wrap(pt[0], sides[0]), _wrap(pt[1], sides[1]))
            assert oracle_delta_pi_limit(fn, face, probe) == slack
            checked += 1
    assert checked > 20


def test_witness_faces_are_faces_of_the_complex():
    # every subadditivity violation carries a face of the complex that
    # contains its point, wrapped along the approach direction; irregular
    # breakpoints put sums x + y inside pieces, not only on them
    fns = [
        gc.from_breakpoints_and_values([0, F(1, 5), F(1, 3), F(3, 4), 1],
                                       [0, 1, F(1, 4), F(1, 2), 0]),
        gc.from_breakpoints_and_limits(
            [0, F(2, 7), F(1, 2), F(5, 6), 1],
            [(0, 0, 0), (1, F(3, 4), 1), (F(1, 3), F(1, 2), F(1, 5)),
             (F(2, 3), F(2, 3), F(1, 2)), (0, 0, 0)])]
    fns += [gc.random_piecewise_function(4, 4, F(1, 2) if seed % 2 else F(1),
                                         True, seed=seed) for seed in range(8)]
    checked = 0
    for fn in fns:
        faces = {face.key(): face for face in faces_of_complex(fn)}
        for v in gc.minimality_test(fn).violations:
            if v.kind != "subadditivity":
                continue
            assert faces.get(v.face.key()) == v.face
            probe = (_wrap(v.x, v.sides[0]), _wrap(v.y, v.sides[1]))
            assert v.face.contains_point(probe)
            checked += 1
    assert checked > 20


def test_limit_slacks_match_extrapolation_on_random_functions():
    for seed in (3, 8, 227):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=seed)
        for face in faces_of_complex(fn):
            for v in face.vertices:
                assert gc.delta_pi_limit(fn, face, v) == \
                    oracle_delta_pi_limit(fn, face, v)


def test_restriction_minimality_equivalence_random():
    # continuous functions with breakpoints and f on the group: minimality
    # of the restriction is equivalent to minimality of the function
    both = 0
    for seed in range(25):
        fn = gc.random_piecewise_function(5, 5, 1, True, seed=seed)
        try:
            inf = gc.minimality_test(fn).is_minimal
        except gc.NoCandidateFError:
            continue
        fin = gc.minimality_test_discrete(
            gc.restrict_to_finite_group(fn)).is_minimal
        assert inf == fin
        both += 1
    assert both >= 15


def test_proper_convex_combination_is_not_extreme():
    g1 = gc.gmic(F(4, 5))
    g2 = gc.gj_2_slope(F(4, 5), F(1, 3))
    assert gc.extremality_test(g2).is_extreme
    avg = gc.linear_combination(F(1, 2), g1, F(1, 2), g2, f=F(4, 5))
    assert gc.minimality_test(avg).is_minimal
    rep = gc.extremality_test(avg)
    assert not rep.is_extreme
    # the common tight relations leave a gap around the shared f/2 kink
    assert rep.covered.uncovered == ((F(11, 30), F(13, 30)),)


def test_three_way_maximal_face_agreement_on_finer_grids():
    from conftest import oracle_maximal_additive_faces, random_minimal_functions

    for fn in random_minimal_functions(8, xgrid=6, ygrid=6, proba=1):
        got = sorted(f.key() for f in
                     gc.generate_maximal_additive_faces(fn).faces)
        assert got == oracle_maximal_additive_faces(fn)


def test_additive_faces_match_limit_oracle_on_discontinuous_functions():
    # every additive face with its maximal flag, non-maximal faces included;
    # continuous inputs too, whose slack record holds only the value cone
    from conftest import oracle_additive_faces, random_minimal_functions

    hom = gc.multiplicative_homomorphism
    fns = [hom(gc.hildebrand_discont_3_slope_1(), 2), hom(gc.gj_2_slope(), 2)]
    for grid in (4, 5):
        minimal = random_minimal_functions(20, xgrid=grid, ygrid=grid,
                                           proba=F(1, 2))
        fns += [fn for fn in minimal if not fn.is_continuous][:5]
    fns += random_minimal_functions(4, xgrid=5, ygrid=5, proba=1)
    assert len(fns) == 16
    assert sum(fn.is_continuous for fn in fns) == 5
    for fn in fns:
        got = gc.generate_additive_faces(fn)
        assert [(f.key(), m) for f, m in zip(got.faces, got.maximal)] == \
            oracle_additive_faces(fn)


@pytest.mark.parametrize("continuous", [True, False])
def test_additive_faces_match_limit_oracle_on_random_subadditive_functions(
        continuous):
    # every additive face with its maximal flag, on small random functions
    # with breakpoints k/q, q = 2..6, and values and limits in quarters
    from conftest import oracle_additive_faces, random_subadditive_functions

    for fn in random_subadditive_functions(150, 12, continuous):
        got = gc.generate_additive_faces(fn)
        assert [(f.key(), m) for f, m in zip(got.faces, got.maximal)] == \
            oracle_additive_faces(fn)


@pytest.mark.parametrize("continuous", [True, False])
def test_additive_faces_follow_the_one_slope_rule(continuous):
    # the rule the enumerator applies, against the brute-force limit oracle
    # and without the enumerator: a 2-face or an edge is additive exactly
    # when pi has one slope on its moving pieces (I, J or K of positive
    # length) and the limit slack vanishes at one of its vertices,
    # approached from the face itself or from a 2-face that contains it
    from conftest import oracle_additive_faces, random_subadditive_functions

    seen = Counter()
    for fn in random_subadditive_functions(15, 18, continuous):
        additive = {key for key, _ in oracle_additive_faces(fn)}
        faces = faces_of_complex(fn, dims=(1, 2))
        two = [g for g in faces if g.dimension == 2]
        for face in faces:
            slopes = {fn.which_function((lo + hi) / 2).slope
                      for lo, hi in face.key() if lo < hi}
            around = [face] + [g for g in two if face.dimension == 1
                               and g.contains_face(face)]
            rule = len(slopes) == 1 and any(
                oracle_delta_pi_limit(fn, g, v) == 0
                for g in around for v in face.vertices)
            assert (face.key() in additive) == rule
            seen[face.dimension, rule] += 1
    assert all(seen[k] >= 10 for k in product((1, 2), (False, True)))


def test_additive_faces_match_limit_oracle_where_the_walk_could_go_wrong():
    # the enumerator walks only the tight vertices and skips the cones that
    # leave the square: every vertex tight (the zero function), tight
    # vertices on the diagonal (gmic(1/2)), a subadditive function that is
    # not symmetric and jumps at 0, and a minimal one with tight cones at
    # x = 0 and x = 1 that leave the square, and one whose boundary vertices
    # are tight only through such cones
    from conftest import oracle_additive_faces

    third = [0, F(1, 3), F(2, 3), 1]
    not_symmetric = gc.from_breakpoints_and_limits(
        third, [(0, F(1, 4), F(3, 4)), (1, 1, 1), (1, 1, 1),
                (0, F(1, 4), F(3, 4))])
    boundary = gc.from_breakpoints_and_limits(
        third, [(0, F(2, 3), 0), (F(1, 2), F(2, 3), F(1, 3)), (1, 1, F(1, 3)),
                (0, F(2, 3), 0)])
    # pi(0) > 0 and every tight cone at (0, 1/2) and (1/2, 0) leaves the
    # square, so neither vertex is additive
    outside = gc.from_breakpoints_and_limits(
        [0, F(1, 2), 1], [(F(1, 4), 1, F(1, 4)), (1, F(3, 4), F(1, 4)),
                          (F(1, 4), 1, F(1, 4))])
    kinds = {v.kind for v in gc.minimality_test(not_symmetric).violations}
    assert kinds == {"symmetry"}
    assert gc.minimality_test(boundary).is_minimal
    rec = vertex_slacks(boundary)
    assert any(sx and x == (rec.D if sx > 0 else 0)
               for x, _, (sx, _, _) in rec.tight)
    for fn in (gc.from_breakpoints_and_values([0, 1], [0, 0]),
               gc.gmic(F(1, 2)), not_symmetric, boundary, outside):
        got = gc.generate_additive_faces(fn)
        assert [(f.key(), m) for f, m in zip(got.faces, got.maximal)] == \
            oracle_additive_faces(fn)


def test_slope_coherence_on_random_discontinuous_functions():
    found = 0
    for seed in range(200):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=seed)
        try:
            if not gc.minimality_test(fn).is_minimal:
                continue
            cc = gc.generate_covered_components(fn)
        except (gc.NoCandidateFError, gc.UnsupportedCaseError):
            continue
        for comp in cc.components:
            slopes = {fn.which_function((lo + hi) / 2).slope for lo, hi in comp}
            assert len(slopes) == 1
        found += 1
        if found >= 10:
            break
    assert found >= 10


def _grid_function(rng, continuous):
    """A function with pi(0) = 0 and breakpoints on k/2 .. k/12, so that its
    piece lengths have a large lcm; values and limits on (1/6)Z."""
    inner = rng.sample(sorted({F(k, m) for m in range(2, 13)
                               for k in range(1, m)}), rng.randrange(2, 6))
    bkpt = [F(0), *sorted(inner), F(1)]

    def val():
        return F(rng.randrange(7), 6)

    limits = [(v, v, v) for v in (val() for _ in inner)] if continuous else \
        [(val(), val(), val()) for _ in inner]
    ends = (0, 0, 0) if continuous else (0, val(), val())
    return gc.from_breakpoints_and_limits(bkpt, [ends, *limits, ends])


def _grid_functions(count):
    import random

    rng = random.Random(2024)
    return [_grid_function(rng, i % 2 == 0) for i in range(count)]


def test_limit_table_scan_matches_fraction_limits():
    # the tabulated kernel against slacks from fn.limit in Fractions, at
    # every complex vertex (x <= y) and every cone the record scans
    from groupcut._scan import SIDE_TRIPLES

    fns = _grid_functions(24)
    fns += [gc.random_piecewise_function(x, 6, F(1, 2), True, seed=s)
            for x, s in ((5, 1), (7, 2), (9, 3), (10, 4))]
    for fn in fns:
        rec = vertex_slacks(fn)
        bk = fn.breakpoints
        lines = {*bk, *(b + 1 for b in bk[1:])}
        want_points = sorted(
            {(x, y) for x in bk for y in bk}
            | {p for x in bk for s in lines if 0 <= s - x <= 1
               for p in ((x, s - x), (s - x, x))})
        D = rec.D
        points = [(F(x, D), F(y, D)) for x, y in rec.points]
        assert points == [p for p in want_points if p[0] <= p[1]]
        cones = SIDE_TRIPLES[:1 if fn.is_continuous else None]
        neg, tight, pos = [], [], []
        for (x, y), (X, Y) in zip(rec.points, points):
            for s in cones:
                d = fn.limit(X, s[0]) + fn.limit(Y, s[1]) - fn.limit(X + Y, s[2])
                if d < 0:
                    neg.append((x, y, s, d))
                elif d == 0:
                    tight.append((x, y, s))
                else:
                    pos.append(d)
        assert [(x, y, s, F(n, d)) for x, y, s, n, d in rec.neg] == neg
        assert list(rec.tight) == tight
        assert rec.min_pos == min(pos, default=None)


def test_integer_symmetry_check_matches_fraction_limits():
    # symmetry violations against limits_at, at f a breakpoint, f given
    # explicitly off the breakpoint grid, and f of a symmetric function
    from groupcut.minimality import SIDE_NAMES, Violation

    def reference(fn, f):
        out = []
        for x in sorted({*fn.breakpoints, *((f - b) % 1 for b in fn.breakpoints)}):
            v, r, l = fn.limits_at(f - x)
            for side, a, b in zip(SIDE_NAMES, fn.limits_at(x), (v, l, r)):
                if a + b != 1:
                    out.append(Violation("symmetry", x=x, sides=side,
                                         slack=a + b - 1))
        return out

    fns = _grid_functions(12)
    fns += [gc.random_piecewise_function(6, 6, F(1, 2), True, seed=s)
            for s in range(6)]
    checked = failing = 0
    for fn in fns:
        for f in (fn.breakpoints[1], F(5, 13), F(7, 17), fn.f):
            if f is None:
                continue
            got = [v for v in gc.minimality_test(fn, f=f).violations
                   if v.kind == "symmetry"]
            want = reference(fn, f)
            assert got == want and repr(got) == repr(want)
            checked += 1
            failing += bool(want)
    assert checked > 40 and 0 < failing < checked


def _value_check_inputs(count):
    """(fn, f) pairs, half in each model: random piecewise functions of
    mixed continuity and symmetry, some with a value or limit moved out of
    [0, 1] or onto 1, each at f = None or at an f off the breakpoint grid;
    random functions on (1/q)Z, partly symmetric, at f = None, a group
    point, or a point off the group."""
    import random

    rng, out = random.Random(7), []
    for seed in range(count // 2):
        fn = gc.random_piecewise_function(
            rng.randint(2, 6), rng.randint(2, 4), rng.choice([0, F(1, 2), 1]),
            rng.random() < 0.7, seed=seed)
        if rng.random() < 0.4:
            lim = [list(t) for t in fn.limits]
            lim[rng.randrange(len(lim) - 1)][rng.randrange(3)] = F(
                rng.choice([-1, 4, 5]), 4)
            lim[-1] = lim[0]
            fn = gc.from_breakpoints_and_limits(fn.breakpoints, lim, f=fn.f)
        out.append((fn, rng.choice([None, F(rng.randrange(1, 11), 11)])))
    for _ in range(count - count // 2):
        q = rng.randint(2, 10)
        vals = [F(rng.randint(-1, 5) if rng.random() < 0.15 else
                  rng.randint(0, 4), 4) for _ in range(q)]
        fi = rng.randrange(1, q)
        if rng.random() < 0.6:
            for a in range(q):
                if rng.random() < 0.8:
                    vals[(fi - a) % q] = 1 - vals[a]
            vals[0] = F(0) if rng.random() < 0.8 else vals[0]
        fn = gc.discrete_from_points_and_values(
            [F(i, q) for i in range(q + 1)], [*vals, vals[0]],
            f=F(fi, q) if rng.random() < 0.5 else None)
        out.append((fn, rng.choice([None, F(fi, q), F(1, q + 1)])))
    return out


def test_value_checks_match_the_fraction_oracle():
    # value-at-0, range and symmetry violations, in order, and find_f's
    # result or refusal, against Fraction limits in both models; an f off
    # the finite group is refused
    import re

    kinds = Counter()
    for fn, f in _value_check_inputs(1000):
        _, found = oracle_value_violations(fn)
        if isinstance(found, F):
            assert gc.find_f(fn) == found
        else:
            with pytest.raises(found[0], match=re.escape(found[1])):
                gc.find_f(fn)
            found = None
        try:
            want, _ = oracle_value_violations(fn, f)
        except gc.ConstructionError as e:
            with pytest.raises(gc.ConstructionError, match=re.escape(str(e))):
                gc.minimality_test(fn, f)
            kinds["refused"] += 1
            continue
        f_used = next((g for g in (f, fn.f, found) if g is not None), None)
        if f_used is None and not want:
            with pytest.raises(gc.NoCandidateFError):
                gc.minimality_test(fn, f)
            kinds["no f"] += 1
            continue
        rep = gc.minimality_test(fn, f)
        assert rep.f_used == f_used
        assert [(v.kind, v.x, v.sides, v.slack) for v in rep.violations
                if v.kind != "subadditivity"] == want
        kinds.update(k for k, *_ in want)
    assert min(kinds.values()) > 20, kinds


def _random_sparse_systems(rng, count):
    """(sparse integer rows, ncols): 1 to 3 small nonzeros per row, some
    rows sums of earlier ones; in two systems of three one row is made a
    multiple of P (zero modulo P) or has one entry moved by P, so that the
    rank modulo P can fall short of the rank over Q."""
    from groupcut.exactlinalg import P

    out = []
    for n in range(count):
        ncols = rng.randrange(1, 9)
        rows = []
        for _ in range(rng.randrange(1, 3 * ncols + 2)):
            if len(rows) > 1 and rng.random() < 0.25:
                a, b = (dict(r) for r in rng.sample(rows, 2))
                c = rng.choice((-2, 1, 3))
                row = {j: c * a.get(j, 0) + b.get(j, 0)
                       for j in a.keys() | b.keys()}
            else:
                cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 3)))
                row = {j: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                       for j in cols}
            rows.append(sorted((j, v) for j, v in row.items() if v))
        i = rng.randrange(len(rows))
        if n % 3 == 1:
            rows[i] = [(j, v * P * rng.choice((1, -2))) for j, v in rows[i]]
        elif n % 3 == 2 and rows[i]:
            k = rng.randrange(len(rows[i]))
            j, v = rows[i][k]
            rows[i][k] = (j, v + rng.choice((P, -P)))
        out.append((rows, ncols))
    return out


def test_kernel_matches_fraction_oracle_on_random_sparse_systems(monkeypatch):
    # integer_kernel_basis and kernel_basis against Gauss-Jordan in
    # Fractions; the exact eliminations per system tell the path: none when
    # the rank is full modulo P, one on the rank rows alone, two when a row
    # outside them breaks their kernel and all rows are eliminated
    import random
    from collections import Counter

    from groupcut import exactlinalg

    from conftest import oracle_kernel_basis

    calls = []
    reduce = exactlinalg._reduce
    monkeypatch.setattr(exactlinalg, "_reduce",
                        lambda *a: calls.append(1) or reduce(*a))
    paths = Counter()
    for rows, ncols in _random_sparse_systems(random.Random(61), 600):
        dense = [tuple(F(dict(r).get(j, 0)) for j in range(ncols))
                 for r in rows]
        want = oracle_kernel_basis(dense, ncols)
        calls.clear()
        assert exactlinalg.integer_kernel_basis(rows, ncols) == want
        paths[len(calls)] += 1
        assert exactlinalg.kernel_basis(dense, ncols) == want
    assert set(paths) == {0, 1, 2} and min(paths.values()) >= 20, paths


def _workload_systems():
    """(integer rows, ncols) of the extremality system of every benchmark
    workload instance at seed 1 whose verdict builds one."""
    import sys
    from pathlib import Path

    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import instances

    out = []
    for workload in instances.WORKLOADS:
        for inst in instances.build(workload, 1):
            try:
                system = gc.extremality_test(inst.fn).system
            except gc.GroupCutError:
                continue  # not subadditive, or discontinuous on both sides
            if system is not None:
                out.append((system.integer_rows, system.ncols))
    return out


def test_rank_rows_match_a_dense_oracle():
    # the rows that raise the rank of their prefix modulo P, on systems
    # whose rank modulo P falls short of the rank over Q and on the
    # systems the benchmark's verdicts build
    import random

    from groupcut.exactlinalg import _rank_rows

    from conftest import oracle_rank_rows

    systems = _random_sparse_systems(random.Random(61), 600)
    workload = _workload_systems()
    assert len(workload) >= 30
    full = 0
    for rows, ncols in systems + workload:
        want = oracle_rank_rows(rows, ncols)
        assert _rank_rows(rows, ncols) == want
        full += len(want) == ncols
    assert 0 < full < len(systems) + len(workload)


def test_rank_rows_prove_full_rank_of_every_extreme_report():
    # an extreme verdict carries ncols rows of full rank over Q, in order;
    # a report that is not extreme carries none
    from groupcut.exactlinalg import matrix_rank

    from conftest import random_minimal_functions

    fns = [gc.multiplicative_homomorphism(fn, lam)
           for fn in (gc.gmic(F(4, 5)), gc.gj_2_slope(),
                      gc.drlm_backward_3_slope(),
                      gc.hildebrand_discont_3_slope_1())
           for lam in (1, 2, 3)]
    fns += random_minimal_functions(20) + random_minimal_functions(
        20, proba=F(1, 2))
    fns += [gc.restrict_to_finite_group(fn, oversampling=os_)
            for fn in fns if fn.is_continuous for os_ in (1, 2)]
    extreme = 0
    for fn in fns:
        try:
            rep = gc.extremality_test(fn)
        except gc.UnsupportedCaseError:
            continue  # discontinuous on both sides of the origin
        if not rep.is_extreme:
            assert rep.rank_rows == ()
            continue
        extreme += 1
        system = rep.system
        assert len(rep.rank_rows) == system.ncols
        assert list(rep.rank_rows) == sorted(set(rep.rank_rows))
        assert matrix_rank([system.rows[i] for i in rep.rank_rows]) == \
            system.ncols
    assert extreme >= 20
