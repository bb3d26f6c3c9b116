import random
import re
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from operator import add, sub

import pytest

import groupcut as gc
from groupcut.errors import (ConstructionError, InternalConsistencyError,
                             ParameterError)
from groupcut.exactlinalg import kernel_basis, matrix_rank, rref
from groupcut.extremality import perturbation_from_vector

from conftest import (oracle_equation_system, oracle_find_epsilon,
                      oracle_kernel_dimension, oracle_perturbation,
                      oracle_symbolic, random_minimal_functions)

ZERO = F(0)


class TestExactLinalg:
    def test_rref_simple(self):
        rows = [[F(2), F(4)], [F(1), F(2)]]
        reduced, pivots = rref(rows)
        assert pivots == [0]
        assert reduced == [[1, 2]]

    def test_kernel_matches_sympy(self):
        import random

        rng = random.Random(77)
        for _ in range(25):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = [tuple(F(rng.randrange(-4, 5)) for _ in range(ncols))
                    for _ in range(nrows)]
            basis = kernel_basis(rows, ncols)
            assert len(basis) == oracle_kernel_dimension(rows, ncols)
            for vec in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_rank(self):
        assert matrix_rank([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]) == 2

    def test_rref_and_kernel_equal_sympy(self):
        """rref is Matrix.rref() entry for entry; kernel_basis is
        Matrix.nullspace() scaled to primitive integer vectors, which are
        positive in their free coordinate."""
        import random
        from math import gcd, lcm

        import sympy

        rng = random.Random(4242)
        cases = [([], 3), ([], 1)]
        for _ in range(80):
            ncols = rng.randrange(1, 7)
            rows = [[F(rng.randrange(-5, 6), rng.randrange(1, 5))
                     if rng.random() < 0.6 else ZERO for _ in range(ncols)]
                    for _ in range(rng.randrange(1, 6))]
            rows.insert(rng.randrange(len(rows) + 1), [ZERO] * ncols)
            rows.append(list(rng.choice(rows)))
            rows.append([F(-3, 2) * e for e in rng.choice(rows)])
            cases.append((rows, ncols))
        # tall, sparse and redundant, as the extremality systems are: 2 or 3
        # nonzeros per row, many more rows than columns, repeated multiples
        # and sums of earlier rows
        for _ in range(20):
            ncols = rng.randrange(4, 11)
            rows = []
            for _ in range(rng.randrange(3 * ncols, 5 * ncols)):
                if len(rows) > 2 and rng.random() < 0.3:
                    a, b = rng.sample(rows, 2)
                    rows.append([F(rng.choice((-2, 1, 3))) * x + y
                                 for x, y in zip(a, b)])
                    continue
                row = [ZERO] * ncols
                for j in rng.sample(range(ncols), rng.choice((2, 3))):
                    row[j] = F(rng.choice((-3, -1, 1, 2, 5)), rng.randrange(1, 4))
                rows.append(row)
            cases.append((rows, ncols))
        for rows, ncols in cases:
            m = sympy.Matrix(len(rows), ncols,
                             [sympy.Rational(e.numerator, e.denominator)
                              for row in rows for e in row])
            want_reduced, want_pivots = m.rref()
            reduced, pivots = rref(rows)
            assert tuple(pivots) == want_pivots
            assert reduced == [[F(int(e.p), int(e.q))
                                for e in want_reduced.row(i)]
                               for i in range(len(pivots))]
            assert matrix_rank(rows) == len(want_pivots)
            want_basis = []
            for vec in m.nullspace():
                scale = lcm(*(int(e.q) for e in vec))
                ints = [int(e * scale) for e in vec]
                g = gcd(*ints)
                want_basis.append(tuple(F(e // g) for e in ints))
            assert kernel_basis(rows, ncols) == want_basis

    @pytest.mark.parametrize("fn, kernel_dim", [
        (gc.restrict_to_finite_group(gc.drlm_backward_3_slope(),
                                     oversampling=3), 4),
        (gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=2), 0)],
        ids=["drlm:os=3", "gj_2_slope:os=2"])
    def test_rref_and_kernel_do_not_depend_on_the_row_order(self, fn,
                                                            kernel_dim):
        import random

        system = gc.extremality_test(fn).system
        rows, ncols = list(system.rows), system.ncols
        want = rref(rows), kernel_basis(rows, ncols)
        assert len(want[1]) == kernel_dim
        rng = random.Random(5)
        for _ in range(4):
            rng.shuffle(rows)
            assert (rref(rows), kernel_basis(rows, ncols)) == want

    def test_each_row_is_reduced_in_a_few_steps(self, monkeypatch):
        # every basis row is reduced, so a row is cleared once per pivot
        # column it holds and the new pivot once per basis row holding it:
        # 2455 steps on the q = 90 restriction of gj_2_slope (838 rows, 89
        # columns)
        from groupcut import exactlinalg

        calls = []
        clear = exactlinalg._clear
        monkeypatch.setattr(exactlinalg, "_clear",
                            lambda *a: calls.append(1) or clear(*a))
        fn = gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=3)
        system = gc.extremality_test(fn).system
        assert (len(system), system.ncols) == (838, 89)
        exactlinalg._reduce(system.integer_rows, system.ncols)
        assert 0 < len(calls) <= 3 * len(system)

    def test_elimination_stops_at_full_rank(self, monkeypatch):
        # hildebrand under lambda = 6 has a 401 x 27 system that reaches
        # full rank at row 50; the rows after it are left unread, which
        # takes the elimination from 6289 steps to 426
        from groupcut import exactlinalg

        calls = []
        clear = exactlinalg._clear
        monkeypatch.setattr(exactlinalg, "_clear",
                            lambda *a: calls.append(1) or clear(*a))
        fn = gc.multiplicative_homomorphism(gc.hildebrand_discont_3_slope_1(),
                                            6)
        rep = gc.extremality_test(fn)
        system = rep.system
        assert (len(system), system.ncols) == (401, 27)
        exactlinalg._reduce(system.integer_rows, system.ncols)
        assert len(calls) == 426
        # the kernel of all 401 rows is still trivial, and so is the report
        assert oracle_kernel_dimension(list(system.rows), system.ncols) == 0
        assert rep.is_extreme and rep.kernel_dimension == 0
        assert (rep.perturbation, rep.epsilon, rep.notes) == (None, None, ())
        assert len(rref(list(system.rows))[1]) == 27

    @pytest.mark.parametrize("fn", [
        gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=3),
        gc.multiplicative_homomorphism(gc.hildebrand_discont_3_slope_1(), 6)],
        ids=["gj_2_slope:os=3", "hildebrand:lam=6"])
    def test_an_extreme_verdict_runs_no_exact_step(self, fn, monkeypatch):
        # full rank modulo P proves the kernel empty: no row is cleared
        # exactly, and the report keeps the ncols rank rows
        from groupcut import exactlinalg

        calls = []
        clear = exactlinalg._clear
        monkeypatch.setattr(exactlinalg, "_clear",
                            lambda *a: calls.append(1) or clear(*a))
        rep = gc.extremality_test(fn)
        assert rep.is_extreme and calls == []
        assert len(rep.rank_rows) == rep.system.ncols

    def test_rows_of_the_wrong_length_are_refused(self):
        with pytest.raises(ParameterError):
            kernel_basis([(F(1), F(2), F(3))], 2)
        with pytest.raises(ParameterError):
            kernel_basis([(F(1),)], 2)
        with pytest.raises(ParameterError):
            rref([(F(1), F(2)), (F(1),)])
        with pytest.raises(ParameterError):
            matrix_rank([(F(1),), (F(1), F(2))])
        # a full-rank prefix does not skip the check of the rows after it
        with pytest.raises(ParameterError):
            kernel_basis([(F(1), F(0)), (F(0), F(1)), (F(1),)], 2)
        with pytest.raises(ParameterError):
            rref([(F(1), F(0)), (F(0), F(1)), (F(1), F(2), F(3))])


class TestGenerateSymbolic:
    def test_hildebrand_published_vector_function(self, hildebrand):
        cc = gc.generate_covered_components(hildebrand)
        sym = gc.generate_symbolic(hildebrand, cc)
        assert sym.k == 3 and sym.m == 4
        assert sym.jump_points == (
            (F(1, 8), "left"), (F(3, 8), "right"), (F(1, 2), "right"),
            (1, "left"))
        # g restricted to [0, 1/8) is x times the first unit vector
        assert sym.value(F(1, 16)) == (F(1, 16), 0, 0, 0, 0, 0, 0)
        assert sym.value(1) == (F(1, 4), F(1, 2), F(1, 4), 1, 1, 1, 1)
        # branch on [1/8, 3/8]: slope e_2 with constant (1/8, -1/8, 0, 1, 0, 0, 0)
        assert sym.value(F(1, 4)) == (F(1, 8), F(1, 8), 0, 1, 0, 0, 0)

    def test_a_piece_outside_every_component_is_refused(self):
        # the components must cover [0, 1]; a hand-made set that leaves
        # (1/2, 1) out without listing it as uncovered is an internal error
        fn = gc.from_breakpoints_and_values([0, F(1, 2), 1], [0, 1, 0])
        gap = gc.CoveredComponentSet((((F(0), F(1, 2)),),), (), (), True)
        with pytest.raises(gc.InternalConsistencyError, match=re.escape(
                "piece (1/2, 1) not inside any covered component")):
            gc.generate_symbolic(fn, gap)

    def test_continuous_function_has_no_jumps(self, gmic45):
        cc = gc.generate_covered_components(gmic45)
        sym = gc.generate_symbolic(gmic45, cc)
        assert sym.m == 0 and sym.k == 2
        assert sym.value(F(4, 5)) == (F(4, 5), 0)
        assert sym.value(1) == (F(4, 5), F(1, 5))

    def test_uncovered_rejected(self, drlm):
        cc = gc.generate_covered_components(drlm)
        with pytest.raises(ConstructionError, match=re.escape(
                "uncovered intervals present: [(5/12, 2/3)]")):
            gc.generate_symbolic(drlm, cc)

    def test_function_reproduces_itself(self, hildebrand, gmic45, gj):
        # dotting g with the function's own component slopes and jumps gives
        # the function back (up to the value at 0, which is 0 anyway)
        for fn in (hildebrand, gmic45, gj):
            cc = gc.generate_covered_components(fn)
            sym = gc.generate_symbolic(fn, cc)
            vec = []
            for comp in cc.components:
                lo, hi = comp[0]
                vec.append(fn.which_function((lo + hi) / 2).slope)
            for x, side in sym.jump_points:
                v, r, l = fn.limits_at(x if x != 1 else 1)
                vec.append(v - l if side == "left" else r - v)
            for x in (0, F(1, 16), F(1, 8), F(2, 5), F(7, 8), 1):
                got = sum((a * b for a, b in zip(sym.value(x), vec)), ZERO)
                want = fn(x) if x != 1 else fn.limits_at(0)[0]
                assert got == want


class TestEquationSystem:
    def test_hildebrand_rows_match_published(self, hildebrand):
        rep = gc.extremality_test(hildebrand)
        rows = set(rep.system.rows)
        assert (F(1, 8), F(-1, 8), 0, 1, 0, 0, 0) in rows
        assert (F(1, 4), F(1, 4), 0, 1, 1, 0, 0) in rows
        assert (F(1, 4), F(1, 2), F(1, 4), 1, 1, 1, 1) in rows

    def test_trivial_system_has_three_rows(self):
        # constant 1/2 with pi(0) = 0 is subadditive but has no covered
        # intervals, so no symbolic system is built; instead check the row
        # count on gmic where tight rows deduplicate into normalizations
        rep = gc.extremality_test(gc.gmic(F(4, 5)))
        assert len(rep.system.rows) == 3

    def test_gmic_kernel_trivial(self, gmic45):
        rep = gc.extremality_test(gmic45)
        assert rep.kernel_dimension == 0

    def test_provenance_recorded(self, hildebrand):
        rep = gc.extremality_test(hildebrand)
        assert any(p.startswith("normalization") for p in rep.system.provenance)
        assert len(rep.system.provenance) == len(rep.system.rows)

    def test_provenance_built_on_first_read(self, hildebrand, gj):
        # a verdict keeps each row's template and grid points; the strings
        # are built when a report reader first asks for them
        restricted = gc.restrict_to_finite_group(gj, oversampling=1)
        for fn, first in ((hildebrand, "normalization pi~(0) = 0"),
                          (restricted, "normalization pi~(3/5) = 0")):
            system = gc.extremality_test(fn).system
            assert "provenance" not in vars(system)
            assert system.provenance[0] == first
            assert vars(system)["provenance"] is system.provenance

    def test_kernel_dim_invariant_under_permutation_and_duplication(self, hildebrand):
        import random

        rep = gc.extremality_test(hildebrand)
        rows = list(rep.system.rows)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            shuffled += [rows[0], rows[-1]]
            assert len(kernel_basis(shuffled, rep.system.ncols)) == \
                rep.kernel_dimension

    def test_self_membership_residuals(self, hildebrand):
        # the function's own slope/jump vector satisfies every additivity
        # row but not the pi~(f) = 0 normalization
        cc = gc.generate_covered_components(hildebrand)
        sym = gc.generate_symbolic(hildebrand, cc)
        system = gc.build_equation_system(hildebrand, sym, F(1, 2))
        vec = [6, 2, -2, F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2)]
        for row, why in zip(system.rows, system.provenance):
            residual = sum((a * b for a, b in zip(row, vec)), ZERO)
            if "pi~(1/2) = 0" in why:
                assert residual == 1
            else:
                assert residual == 0

    def test_f_off_the_grid_is_refused(self, hildebrand):
        sym = gc.generate_symbolic(hildebrand,
                                   gc.generate_covered_components(hildebrand))
        assert gc.build_equation_system(hildebrand, sym, F(3, 8))
        with pytest.raises(ParameterError):
            gc.build_equation_system(hildebrand, sym, F(1, 3))


def _hom(fn, lam):
    return gc.multiplicative_homomorphism(fn, lam)


def _random(seed):
    return gc.random_piecewise_function(4, 4, F(1, 2), True, seed=seed)


def _system_inputs():
    """The benchmark ladders, hildebrand under lam = 6, seeded random
    minimal functions and restrictions of some of them.  random227 under
    lam = 1 has the tight cone pi~(1+) + pi~(1+) = pi~(2+), whose sum folds
    to 0+."""
    hb, gj, drlm = (gc.hildebrand_discont_3_slope_1(), gc.gj_2_slope(),
                    gc.drlm_backward_3_slope())
    gmic = gc.gmic(F(4, 5))
    restrict = gc.restrict_to_finite_group
    yield "gomory_fractional", gc.gomory_fractional()
    yield "equiv5", gc.equiv5_random_discont_1()
    for lam in (1, 2):
        yield f"hildebrand:lam={lam}", _hom(hb, lam)
        for seed in (227, 344):
            yield f"random{seed}:lam={lam}", _hom(_random(seed), lam)
    yield "gmic", gmic
    for lam in (1, 2, 4, 6):
        yield f"gj_2_slope:lam={lam}", _hom(gj, lam)
    for lam in (1, 2, 3):
        yield f"drlm:lam={lam}", _hom(drlm, lam)
    yield "gmic:os=3", restrict(gmic, oversampling=3)
    yield "drlm:os=3", restrict(drlm, oversampling=3)
    for os in (1, 2, 3):
        yield f"gj_2_slope:os={os}", restrict(gj, oversampling=os)
    for proba in (1, F(1, 2)):
        for i, fn in enumerate(random_minimal_functions(3, proba=proba)):
            yield f"minimal{proba}:{i}", fn
            for os in (1, 2, 3):
                yield f"minimal{proba}:{i}:os={os}", restrict(fn, oversampling=os)
    for i, fn in enumerate(random_minimal_functions(40, proba=F(1, 2))[3:], 3):
        yield f"minimal1/2:{i}", fn
    yield "hildebrand:lam=6", _hom(hb, 6)


class TestSystemAgainstOracle:
    def test_rows_provenance_and_kernel(self):
        """Both models' integer systems read, in their Fraction view, as the
        dense Fraction construction of oracle_equation_system, row for row
        and in order, and the kernel is the oracle rows' kernel basis."""
        compared = set()
        for name, fn in _system_inputs():
            try:
                rep = gc.extremality_test(fn)
            except gc.UnsupportedCaseError:
                continue
            if rep.system is None:
                continue
            rows, provenance, ncols = oracle_equation_system(fn)
            assert rep.system.rows == tuple(rows), name
            assert rep.system.provenance == tuple(provenance), name
            assert rep.system.ncols == ncols and len(rep.system) == len(rows)
            assert rep.kernel == tuple(kernel_basis(rows, ncols)), name
            compared.add(name)
        assert {"random227:lam=1", "hildebrand:lam=2", "hildebrand:lam=6",
                "gj_2_slope:lam=6", "gj_2_slope:os=3",
                "minimal1/2:0:os=3"} <= compared
        assert len(compared) >= 40

    def test_finite_rows_are_sparse_in_column_order(self):
        # the finite builder makes each sparse key from group indices: it
        # must be the row's nonzero entries in column order, so that equal
        # rows meet as equal keys
        finite = 0
        for name, fn in _system_inputs():
            if isinstance(fn, gc.DiscreteFunction):
                system = gc.extremality_test(fn).system
                assert system.integer_rows == tuple(
                    tuple((c, int(e)) for c, e in enumerate(row) if e)
                    for row in oracle_equation_system(fn)[0]), name
                finite += 1
        assert finite >= 23

    def test_verdicts_build_no_fraction_rows(self, monkeypatch):
        # the verdict eliminates the integer rows; the Fraction row view is
        # built only when read, and the Fraction entry of the elimination
        # is not used
        from groupcut import exactlinalg

        def refuse(*args):
            raise AssertionError("Fraction rows scanned on the verdict path")

        monkeypatch.setattr(exactlinalg, "_integer_rows", refuse)
        for fn in (_hom(gc.hildebrand_discont_3_slope_1(), 2),
                   gc.restrict_to_finite_group(gc.gj_2_slope(),
                                               oversampling=3)):
            system = gc.extremality_test(fn).system
            assert "rows" not in vars(system)
            assert len(system.rows) == len(system) > 0


class TestStreamedSystem:
    """A verdict reads the system's rows as they are made and stops at
    ncols rank rows; the first read of the system makes the rest."""

    @staticmethod
    def _counted(monkeypatch):
        """The (point, side) pairs the system interns and the tight cones
        it reads, counted as they happen."""
        from types import SimpleNamespace

        from groupcut import extremality

        interned, cones = [], []
        missing = extremality._VectorIds.__missing__
        monkeypatch.setattr(extremality._VectorIds, "__missing__",
                            lambda ids, key: interned.append(key) or
                            missing(ids, key))

        def counted(rec):
            for cone in rec.tight:
                cones.append(cone)
                yield cone

        slacks = extremality.vertex_slacks
        monkeypatch.setattr(extremality, "vertex_slacks", lambda fn: (
            SimpleNamespace(D=slacks(fn).D, tight=counted(slacks(fn)))))
        return interned, cones

    def test_gj_2_slope_is_decided_on_its_normalization_rows(self,
                                                             monkeypatch):
        interned, cones = self._counted(monkeypatch)
        rep = gc.extremality_test(_hom(gc.gj_2_slope(), 6))
        assert rep.is_extreme and interned == [] and cones == []
        assert rep.rank_rows == (1, 2)
        assert len(rep.system) == 3 and interned and len(cones) == 247

    def test_hildebrand_reads_part_of_its_cones(self, monkeypatch):
        interned, cones = self._counted(monkeypatch)
        rep = gc.extremality_test(_hom(gc.hildebrand_discont_3_slope_1(), 2))
        assert rep.is_extreme and rep.rank_rows[-1] == 17
        assert 0 < len(cones) < 562
        before = len(interned)
        assert len(rep.system) == 45 and len(cones) == 562
        assert len(interned) > before

    @pytest.mark.parametrize("os, rows", [(1, 111), (2, 390), (3, 838),
                                          (6, 3200)])
    def test_finite_rows_are_made_up_to_the_last_rank_row(self, os, rows):
        # read by diagonal, the tight pairs reach full rank three rows
        # after ncols; the rows past the last rank row are made on the
        # system's first read
        rep = gc.extremality_test(
            gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=os))
        system = rep.system
        assert rep.is_extreme and rep.rank_rows[-1] == system.ncols + 2
        assert system.ncols + 2 == 30 * os + 1
        assert len(system.drawn[0]) == rep.rank_rows[-1] + 1
        assert "integer_rows" not in vars(system)
        assert len(system) == rows

    def test_the_completed_system_is_the_whole_one(self):
        from groupcut.exactlinalg import _rank_rows

        hb = gc.hildebrand_discont_3_slope_1()
        fns = [fn for fn, _ in _covered_inputs()]
        fns += [_hom(hb, 6), _hom(gc.gj_2_slope(), 4), gc.gmic(F(4, 5))]
        minimal = random_minimal_functions(20)
        fns += minimal
        fns += [gc.restrict_to_finite_group(fn, oversampling=os)
                for fn in (gc.gj_2_slope(), gc.drlm_backward_3_slope(),
                           *minimal[:6])
                for os in (1, 3)]
        seen = Counter()
        for fn in fns:
            if isinstance(fn, gc.DiscreteFunction):
                whole = gc.extremality_test(fn).system
            else:
                covered = gc.generate_covered_components(fn)
                if covered.uncovered:
                    continue
                whole = gc.build_equation_system(
                    fn, gc.generate_symbolic(fn, covered),
                    gc.minimality_test(fn).f_used)
            rows = whole.integer_rows  # drained before any rank pass
            rep = gc.extremality_test(fn)
            system = rep.system
            # only a short rank (not extreme here) reads the whole system
            assert ("integer_rows" in vars(system)) != rep.is_extreme
            assert system == whole and system.sources == whole.sources
            assert system.integer_rows == rows and len(system) == len(rows)
            rank_rows = _rank_rows(rows, system.ncols)
            if rep.is_extreme:
                assert rep.rank_rows == tuple(rank_rows)
            else:
                assert len(rank_rows) < system.ncols and rep.rank_rows == ()
            seen[rep.is_extreme, type(fn)] += 1
        assert len(seen) == 4 and sum(seen.values()) >= 30

    @pytest.mark.parametrize("read", ["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_read_the_whole_system(self, read):
        import copy
        import pickle

        read = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                "pickle": lambda s: pickle.loads(pickle.dumps(s))}[read]
        fn = _hom(gc.hildebrand_discont_3_slope_1(), 2)
        system = gc.extremality_test(fn).system
        assert "integer_rows" not in vars(system)
        other = read(system)
        whole = gc.extremality_test(fn).system
        assert len(whole) == 45
        assert other == whole and other.sources == whole.sources
        assert other.provenance == whole.provenance and len(other) == 45
        assert system == whole


def _covered_inputs():
    """Covered minimal functions with their covered components: hildebrand
    under lam = 2 and 6, random227 and random344 under lam = 1 and 2 (not
    extreme) and the covered ones of 40 seeded random minimal functions,
    half of their points discontinuous."""
    hb = gc.hildebrand_discont_3_slope_1()
    fns = [_hom(hb, 2), _hom(hb, 6)]
    fns += [_hom(_random(seed), lam) for seed in (227, 344) for lam in (1, 2)]
    fns += random_minimal_functions(40, proba=F(1, 2))
    out = []
    for fn in fns:
        try:
            covered = gc.generate_covered_components(fn)
        except gc.UnsupportedCaseError:
            continue
        if not covered.uncovered:
            out.append((fn, covered))
    return out


class TestIntegerTailAgainstOracles:
    """generate_symbolic, build_equation_system and perturbation_from_vector
    work on the integer grid of g; each is checked against a Fraction
    construction that shares none of its lookups."""

    def test_symbolic_grid_triples_and_slopes(self):
        inputs = _covered_inputs()
        assert len(inputs) >= 15
        for fn, covered in inputs:
            sym = gc.generate_symbolic(fn, covered)
            grid, triples, slopes = oracle_symbolic(fn, covered)
            assert sym.grid == tuple(grid)
            assert [tuple(tuple(F(a, sym.D) for a in v) for v in t)
                    for t in sym.triples] == triples
            assert sym.slopes == tuple(slopes)

    def test_perturbation_from_a_fraction_vector(self):
        # kernel vectors are integer; their multiples by 5/3, -2/7 or 1/2,
        # plus 1/3 of a second kernel vector, are not, and still vanish at
        # 0 and 1
        compared = 0
        for fn, covered in _covered_inputs():
            sym = gc.generate_symbolic(fn, covered)
            kernel = gc.extremality_test(fn).kernel
            for c in (F(5, 3), F(-2, 7), F(1, 2)) if kernel else ():
                vec = [c * a + (F(1, 3) * kernel[1][j] if kernel[1:] else 0)
                       for j, a in enumerate(kernel[0])]
                assert any(a.denominator > 1 for a in vec)
                got = perturbation_from_vector(sym, vec, f=fn.f)
                want = oracle_perturbation(sym, vec, f=fn.f)
                assert (got.breakpoints, got.limits, got.f) == \
                    (want.breakpoints, want.limits, want.f)
                compared += 1
            # a vector that does not vanish at 1 is refused
            with pytest.raises(ConstructionError, match="does not vanish"):
                perturbation_from_vector(sym, [F(1, 3)] * sym.dim)
        assert compared >= 12


class TestExtremalityTest:
    def test_truth_is_the_verdict(self, gmic45, drlm):
        assert bool(gc.extremality_test(gmic45)) is True
        assert bool(gc.extremality_test(drlm)) is False

    def test_gmic_extreme(self, gmic45, gmic15):
        rep = gc.extremality_test(gmic45)
        assert rep.is_extreme and rep.kernel_dimension == 0
        assert len(rep.covered.components) == 2
        assert gc.extremality_test(gmic15).is_extreme

    def test_hildebrand_extreme(self, hildebrand):
        rep = gc.extremality_test(hildebrand)
        assert rep.is_extreme and rep.kernel_dimension == 0

    def test_not_minimal_is_not_extreme(self, equiv5):
        rep = gc.extremality_test(equiv5)
        assert not rep.is_extreme and not rep.is_minimal
        assert rep.covered is None and rep.kernel_dimension is None

    def test_drlm_uncovered_not_extreme(self, drlm):
        rep = gc.extremality_test(drlm)
        assert not rep.is_extreme and rep.is_minimal
        assert rep.covered.uncovered == ((F(5, 12), F(2, 3)),)
        assert rep.perturbation is None
        assert any("perturbation unavailable" in n for n in rep.notes)

    def test_covered_non_extreme_has_verified_perturbation(self):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        rep = gc.extremality_test(fn)
        assert rep.is_minimal and not rep.is_extreme
        assert rep.covered.is_fully_covered
        assert rep.kernel_dimension >= 1
        pert, eps = rep.perturbation, rep.epsilon
        assert pert is not None and eps > 0
        plus = gc.linear_combination(1, fn, eps, pert, f=fn.f)
        minus = gc.linear_combination(1, fn, -eps, pert, f=fn.f)
        assert gc.minimality_test(plus).is_minimal
        assert gc.minimality_test(minus).is_minimal
        assert gc.linear_combination(F(1, 2), plus, F(1, 2), minus, f=fn.f) == fn

    def test_tightness_transfer(self):
        # every tight relation of the function stays tight for the kernel
        # perturbation: the system residual of the kernel vector is zero
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        rep = gc.extremality_test(fn)
        basis = kernel_basis(rep.system.rows, rep.system.ncols)
        for vec in basis:
            for row in rep.system.rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_perturbation_vector_of_the_wrong_length_is_refused(self, gmic45):
        sym = gc.generate_symbolic(gmic45, gc.generate_covered_components(gmic45))
        assert sym.dim == 2
        assert perturbation_from_vector(sym, (F(0), F(0)))
        for vec in ((0, 0, 5), (0,)):
            with pytest.raises(ParameterError):
                perturbation_from_vector(sym, vec)


def _epsilon_corpus():
    """(fn, pert) pairs for the epsilon against its oracle, from drlm and
    distinct random minimal functions.  For each restriction at
    oversampling 1 to 3 that is not extreme: its kernel vectors with their
    pairwise sums and differences, interpolated, as lift candidates of the
    function; and on the restriction each kernel vector and one vector
    outside the kernel: at odd oversampling the first kernel vector plus
    random noise, at even oversampling that noise made symmetric (zero at
    0 and f, odd about f / 2)."""
    rng = random.Random(16)
    fns, seen = [], set()
    for fn in [gc.drlm_backward_3_slope(),
               *random_minimal_functions(40, 3, 3, F(1, 2)),
               *random_minimal_functions(60, 4, 4),
               *random_minimal_functions(60, 5, 5),
               *random_minimal_functions(17, 6, 6),
               *random_minimal_functions(12, 4, 4, F(1, 2))]:
        if (fn._canonical(), fn.f) not in seen:
            seen.add((fn._canonical(), fn.f))
            fns.append(fn)
    cases = []
    for fn in fns:
        for oversampling in (1, 2, 3):
            d = gc.restrict_to_finite_group(fn, oversampling=oversampling)
            basis = gc.extremality_test(d).kernel
            lifts = [*basis, *(tuple(map(op, u, w)) for op in (add, sub)
                               for u, w in combinations(basis, 2))]
            cases += [(fn, gc.from_breakpoints_and_values(
                d.points, (0, *vec, 0))) for vec in lifts]
            if not basis:
                continue
            q, fi = d.q, int(d.f * d.q)
            noise = [0, *(rng.randrange(-2, 3) for _ in basis[0]), 0]
            noise[fi] = 0
            other = [*map(add, (0, *basis[0], 0), noise)] if oversampling % 2 \
                else [noise[a] - noise[(fi - a) % q] for a in range(q + 1)]
            cases += [(d, gc.DiscreteFunction(q, d.points, tuple(map(F, v))))
                      for v in (*((0, *vec, 0) for vec in basis), other)]
    return cases


def _outcome(call, fn, pert):
    try:
        return call(fn, pert)
    except gc.GroupCutError as e:
        return type(e)


class TestFindEpsilon:
    def test_matches_the_halving_oracle(self):
        # the closed form against the halving search it replaced, on lift
        # candidates and finite vectors in and out of the kernel: the same
        # epsilon or the same refusal; in either model, a subadditive base
        # function that breaks symmetry at f = 1/4 is refused by both
        points = [0, F(1, 4), F(1, 2), F(3, 4), 1]
        fn = gc.from_breakpoints_and_values(points, [0, 1, 1, 1, 0],
                                            f=F(1, 4))
        hat = gc.from_breakpoints_and_values(points, [0, 0, 1, 0, 0])
        restrict = gc.restrict_to_finite_group
        broken = [(fn, hat), (restrict(fn), restrict(hat))]
        assert all(_outcome(oracle_find_epsilon, *c) is ParameterError
                   for c in broken)
        cases = _epsilon_corpus() + broken
        outcomes = Counter()
        for fn, pert in cases:
            got = _outcome(gc.find_epsilon, fn, pert)
            assert got == _outcome(oracle_find_epsilon, fn, pert)
            outcomes[type(fn).__name__, isinstance(got, type)] += 1
        assert len(cases) >= 700
        # both models, both outcomes
        assert all(outcomes[k] >= 10 for k in product(
            ("PiecewiseFunction", "DiscreteFunction"), (False, True)))

    def test_zero_perturbation_rejected(self, gmic45):
        zero = gc.from_breakpoints_and_values([0, 1], [0, 0])
        with pytest.raises(ParameterError):
            gc.find_epsilon(gmic45, zero)

    def test_scaling_monotone(self):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        rep = gc.extremality_test(fn)
        pert = rep.perturbation
        double = gc.linear_combination(2, pert, 0, pert, f=None)
        assert gc.find_epsilon(fn, double) <= gc.find_epsilon(fn, pert)

    def test_output_verified(self):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=344)
        rep = gc.extremality_test(fn)
        eps = gc.find_epsilon(fn, rep.perturbation)
        plus = gc.linear_combination(1, fn, eps, rep.perturbation, f=fn.f)
        assert gc.minimality_test(plus).is_minimal

    def test_f_less_input_takes_find_f(self, drlm):
        # without fn.f the epsilon is taken at find_f(fn), as
        # extremality_test takes it
        r227 = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        dfn = gc.restrict_to_finite_group(drlm, oversampling=3)
        for fn, bare, eps in (
                (r227, gc.from_breakpoints_and_limits(r227.breakpoints,
                                                      r227.limits), F(1, 12)),
                (dfn, gc.DiscreteFunction(dfn.q, dfn.points, dfn.values),
                 F(1, 15))):
            rep = gc.extremality_test(fn)
            assert bare.f is None and gc.find_f(bare) == fn.f
            assert gc.find_epsilon(bare, rep.perturbation) == rep.epsilon == eps
        no_f = gc.from_breakpoints_and_values([0, F(1, 2), 1], [0, F(1, 2), 0])
        with pytest.raises(gc.NoCandidateFError):
            gc.find_epsilon(no_f, r227)

    def test_a_base_function_that_breaks_symmetry_is_refused(self):
        # subadditive, but pi(x) + pi(1/4 - x) != 1: the caller's input is
        # at fault, in either model, not the epsilon search
        points = [0, F(1, 4), F(1, 2), F(3, 4), 1]
        fn = gc.from_breakpoints_and_values(points, [0, 1, 1, 1, 0],
                                            f=F(1, 4))
        hat = gc.from_breakpoints_and_values(points, [0, 0, 1, 0, 0])
        assert not gc.minimality_test(fn).is_minimal
        for base, pert in ((fn, hat), (gc.restrict_to_finite_group(fn),
                                       gc.restrict_to_finite_group(hat))):
            with pytest.raises(ParameterError, match=re.escape(
                    "base function must be minimal valid")):
                gc.find_epsilon(base, pert)

    @pytest.mark.parametrize("values", [
        (1, 0, 0, 0, 0, 1),  # nonzero at 0
        (0, 1, 0, 0, 0, 0),  # pi~(1/5) + pi~(f - 1/5) != 0
        (0, 1, 0, -1, 0, 0),  # symmetric, nonzero at the tight (1/5, 1/5)
    ])
    def test_refused_perturbations(self, gmic45, values):
        # gmic with f = 4/5 is tight wherever x, y and x + y lie in [0, f]
        points = [F(k, 5) for k in range(6)]
        dfn = gc.restrict_to_finite_group(gmic45)
        if values[0]:
            lift = gc.from_breakpoints_and_limits(
                points, [(1, 0, 0), *((0, 0, 0),) * 4, (1, 0, 0)])
        else:
            lift = gc.from_breakpoints_and_values(points, values)
        for fn, pert in ((gmic45, lift), (dfn, gc.DiscreteFunction(
                5, dfn.points, tuple(map(F, values))))):
            for find in (gc.find_epsilon, oracle_find_epsilon):
                with pytest.raises(InternalConsistencyError):
                    find(fn, pert)


class TestDiscreteExtremality:
    def test_gmic_restriction_extreme(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45)
        rep = gc.extremality_test_discrete(dfn)
        assert rep.is_extreme and rep.kernel_dimension == 0

    def test_q2_trivially_extreme(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 2), 1], [0, 1, 0], f=F(1, 2))
        assert gc.extremality_test_discrete(dfn).is_extreme

    def test_constant_pattern_not_extreme(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 4), F(1, 2), F(3, 4), 1], [0, 1, F(1, 2), F(1, 2), 0])
        rep = gc.extremality_test_discrete(dfn)
        assert not rep.is_extreme and rep.kernel_dimension >= 1
        pert, eps = rep.perturbation, rep.epsilon
        plus = [v + eps * w for v, w in zip(dfn.values, pert.values)]
        minus = [v - eps * w for v, w in zip(dfn.values, pert.values)]
        for vals in (plus, minus):
            d = gc.discrete_from_points_and_values(dfn.points, vals, f=dfn.f)
            assert gc.minimality_test_discrete(d).is_minimal

    def test_kernel_dim_against_bruteforce(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 4), F(1, 2), F(3, 4), 1], [0, 1, F(1, 2), F(1, 2), 0])
        rep = gc.extremality_test_discrete(dfn)
        assert rep.kernel_dimension == oracle_kernel_dimension(
            rep.system.rows, rep.system.ncols)

    def test_not_minimal_discrete(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 3), F(2, 3), 1], [0, 1, F(1, 4), 0], f=F(1, 3))
        rep = gc.extremality_test_discrete(dfn)
        assert not rep.is_extreme and not rep.is_minimal

    def test_pinned_drlm_restriction_kernel(self, drlm):
        """Four-dimensional kernel of the drlm restriction at q = 36:
        vector i is -1 at column 18 - i and +1 at column 19 + i."""
        rep = gc.extremality_test_discrete(
            gc.restrict_to_finite_group(drlm, oversampling=3))
        assert rep.system.ncols == 35 and rep.kernel_dimension == 4
        want = []
        for i in range(4):
            vec = [ZERO] * 35
            vec[18 - i], vec[19 + i] = F(-1), F(1)
            want.append(tuple(vec))
        assert rep.kernel == tuple(want)
        assert rep.perturbation.values == (ZERO,) + want[0] + (ZERO,)
        assert rep.epsilon == F(1, 15)

    def test_find_epsilon_refuses_a_perturbation_of_the_other_model(self, drlm):
        dfn = gc.restrict_to_finite_group(drlm, oversampling=3)
        rep = gc.extremality_test(dfn)
        assert gc.find_epsilon(dfn, rep.perturbation) == rep.epsilon
        with pytest.raises(ParameterError):
            gc.find_epsilon(drlm, rep.perturbation)


class TestOversamplingBridge:
    def test_gmic_oversampling_agrees(self, gmic45):
        fin = gc.extremality_test_discrete(
            gc.restrict_to_finite_group(gmic45, oversampling=3))
        assert fin.is_extreme == gc.extremality_test(gmic45).is_extreme

    def test_random_functions_agree(self):
        for fn in random_minimal_functions(4, xgrid=5, ygrid=5, start_seed=1):
            inf = gc.extremality_test(fn).is_extreme
            fin = gc.extremality_test_discrete(
                gc.restrict_to_finite_group(fn, oversampling=3)).is_extreme
            assert inf == fin

    def test_restriction_forward_direction(self, gmic45, hildebrand):
        # extreme function => extreme restriction (oversampling 1), for the
        # continuous member of the pair
        dfn = gc.restrict_to_finite_group(gmic45)
        assert gc.extremality_test_discrete(dfn).is_extreme


def test_one_vertex_scan_per_verdict(monkeypatch):
    # minimality, the subadditivity refusal, face enumeration and the
    # system rows all read the function's one vertex slack record: one
    # kernel scan per verdict, and no limit table, so no slack, evaluated
    # outside it; the symmetry check reads a table of its own, at the
    # breakpoints and their mirrors
    from groupcut import _scan

    table = _scan.limit_table
    callers = Counter()

    def counting_table(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return table(*args)

    monkeypatch.setattr(_scan, "limit_table", counting_table)
    hom = gc.multiplicative_homomorphism
    for fn in (hom(gc.hildebrand_discont_3_slope_1(), 2),
               hom(gc.gj_2_slope(), 2)):
        callers.clear()
        assert gc.extremality_test(fn).is_extreme
        assert callers == {"scan_slacks": 1, "symmetry_table": 1}


def _covered_non_extreme_inputs():
    """(fn, report) of covered non-extreme functions: random227 and
    random344 under lam = 1 and 2, and the distinct seeded random minimal
    functions of thirteen grids that are covered and not extreme, each
    also under lam = -1, +-2, +-3 and +-4."""
    out, seen = [], set()

    def add(fn):
        if (fn._canonical(), fn.f) in seen:
            return False
        seen.add((fn._canonical(), fn.f))
        try:
            rep = gc.extremality_test(fn)
        except gc.UnsupportedCaseError:
            return False
        if rep.kernel:
            out.append((fn, rep))
        return bool(rep.kernel)

    for seed, lam in product((227, 344), (1, 2)):
        add(_hom(_random(seed), lam))
    for x, y, p in ((8, 3, 1), (3, 6, 0), (4, 4, F(1, 2)), (6, 3, F(1, 2)),
                    (6, 8, 1), (8, 4, 1), (3, 3, 0), (6, 8, F(1, 2)),
                    (8, 4, F(1, 2)), (6, 6, F(1, 2)), (6, 6, 1), (6, 4, 1),
                    (6, 3, 1)):
        for seed in range(300):
            fn = gc.random_piecewise_function(x, y, p, True, seed=seed)
            if gc.minimality_test(fn, collect_all=False).is_minimal and add(fn):
                for lam in (-1, 2, -2, 3, -3, 4, -4):
                    add(_hom(fn, lam))
    return out


def test_integer_merge_of_kernel_perturbations_matches_the_fraction_merge():
    # perturbation_from_vector merges its grid on the integer dot products;
    # the Fraction triples merged by from_breakpoints_and_limits give the
    # same breakpoints, limits and f for every kernel vector
    from operator import mul

    inputs = _covered_non_extreme_inputs()
    assert len(inputs) >= 104
    for fn, rep in inputs:
        sym = gc.generate_symbolic(fn, rep.covered)
        f = rep.minimality.f_used
        for vec in rep.kernel:
            triples = [tuple(F(sum(map(mul, part, vec)), sym.D) for part in t)
                       for t in sym.triples]
            triples[0] = triples[-1] = (F(0), triples[0][1], triples[-1][2])
            want = gc.from_breakpoints_and_limits(sym.grid, triples, f=f,
                                                  merge=True)
            got = perturbation_from_vector(sym, vec, f=f)
            assert (got.breakpoints, got.limits, got.f) == \
                (want.breakpoints, want.limits, want.f), fn
