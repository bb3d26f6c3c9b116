import copy
import pickle
from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.errors import ConstructionError
from groupcut.pwl import AffinePiece, DiscreteFunction, PiecewiseFunction

from conftest import oracle_canonical, oracle_linear_combination


class TestConstructors:
    def test_from_values_gmic_data(self, gmic45):
        assert gmic45.end_points() == [0, F(4, 5), 1]
        assert gmic45.values_at_end_points() == [0, 1, 0]
        assert gmic45.is_continuous

    def test_zero_function(self, zero_fn):
        for x in (0, F(1, 3), F(7, 9), 1):
            assert zero_fn(x) == 0

    def test_midpoint_interpolation(self):
        fn = gc.from_breakpoints_and_values([0, F(1, 2), 1], [0, 1, 0])
        assert fn(F(1, 4)) == F(1, 2)

    def test_length_mismatch(self):
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_values([0, F(1, 2), 1], [0, 1])

    def test_non_monotone(self):
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_values([0, F(2, 3), F(1, 3), 1], [0, 1, 1, 0])

    def test_bad_endpoints(self):
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_values([F(1, 5), 1], [0, 0])
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_values([0, F(4, 5)], [0, 0])

    def test_periodicity_seam_must_agree(self):
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_values([0, 1], [0, 1])
        with pytest.raises(ConstructionError):
            gc.from_breakpoints_and_limits(
                [0, 1], [(0, 0, 0), (0, 0, F(1, 2))])

    def test_limits_constructor_continuous_detection(self):
        fn = gc.from_breakpoints_and_limits(
            [0, F(1, 2), 1],
            [(0, 0, 0), (1, 1, 1), (0, 0, 0)])
        assert fn.is_continuous

    def test_dict_limit_spelling(self, equiv5):
        fn = gc.from_breakpoints_and_limits(
            [0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1],
            [{-1: 0, 0: 0, 1: 0}, {-1: 1, 0: 1, 1: 1},
             {-1: 0, 0: F(2, 5), 1: F(2, 5)},
             {-1: F(2, 5), 0: F(1, 2), 1: F(3, 5)},
             {-1: F(3, 5), 0: F(3, 5), 1: 1}, {-1: 0, 0: 0, 1: 0}])
        assert fn == equiv5

    def test_merge_drops_flat_interior_points(self):
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 4), F(1, 2), 1], [0, F(1, 2), 1, 0])
        assert fn.end_points() == [0, F(1, 2), 1]
        unmerged = gc.from_breakpoints_and_values(
            [0, F(1, 4), F(1, 2), 1], [0, F(1, 2), 1, 0], merge=False)
        assert unmerged.end_points() == [0, F(1, 4), F(1, 2), 1]
        assert unmerged == fn  # equal as periodic functions


class TestEvaluation:
    def test_gmic_values(self, gmic45):
        assert gmic45(F(4, 5)) == 1
        assert gmic45(F(9, 5)) == 1  # periodicity
        assert gmic45(F(1, 2)) == F(5, 8)

    def test_periodicity_everywhere(self, equiv5):
        for x in (F(1, 7), F(3, 5), F(9, 10)):
            for t in (-2, -1, 1, 5):
                assert equiv5(x + t) == equiv5(x)

    def test_equiv5_limits(self, equiv5):
        assert equiv5.limits_at_end_points() == [
            (0, 0, 0), (1, 1, 1), (F(2, 5), F(2, 5), 0),
            (F(1, 2), F(3, 5), F(2, 5)), (F(3, 5), 1, F(3, 5)), (0, 0, 0)]
        assert equiv5.limits_at(F(3, 5)) == (F(1, 2), F(3, 5), F(2, 5))
        # periodic reduction of limit queries
        assert equiv5.limits_at(F(7, 5)) == (F(2, 5), F(2, 5), 0)

    def test_equiv5_value_on_flat_piece(self, equiv5):
        # on (2/5, 3/5) the function interpolates the right limit 2/5 at 2/5
        # to the left limit 2/5 at 3/5, hence is constant 2/5
        assert equiv5(F(1, 2)) == F(2, 5)

    def test_limits_at_continuous_point(self, gmic45):
        assert gmic45.limits_at(F(2, 5)) == (F(1, 2), F(1, 2), F(1, 2))

    def test_which_function(self, gmic45):
        piece = gmic45.which_function(F(1, 2))
        assert (piece.slope, piece.intercept) == (F(5, 4), 0)
        # line through (4/5, 1) and (1, 0)
        piece = gmic45.which_function(F(9, 10))
        assert (piece.slope, piece.intercept) == (-5, 5)
        at_bkpt = gmic45.which_function(F(4, 5))
        assert at_bkpt.slope == 0 and at_bkpt.intercept == 1
        assert at_bkpt.face == (F(4, 5), F(4, 5))

    def test_number_of_slopes(self, gmic45, equiv5, zero_fn):
        assert gmic45.number_of_slopes() == 2
        assert zero_fn.number_of_slopes() == 1
        # slopes from the limit data: 5, -5, 0, 0, -5
        assert equiv5.interval_slopes() == [5, -5, 0, 0, -5]
        assert equiv5.number_of_slopes() == 3

    def test_roundtrip_from_limits(self, equiv5, hildebrand):
        for fn in (equiv5, hildebrand):
            again = gc.from_breakpoints_and_limits(
                fn.end_points(), fn.limits_at_end_points(), merge=False)
            assert again.end_points() == fn.end_points()
            assert again.limits_at_end_points() == fn.limits_at_end_points()


class TestDiscrete:
    def test_constructor(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1],
            [0, F(1, 4), F(1, 2), F(3, 4), 1, 0])
        assert dfn.q == 5
        assert dfn(F(3, 5)) == F(3, 4)
        assert dfn(F(8, 5)) == F(3, 4)

    def test_zero(self):
        dfn = gc.discrete_from_points_and_values([0, 1], [0, 0])
        assert dfn.q == 1 and dfn(0) == 0

    def test_mismatched_lengths(self):
        with pytest.raises(ConstructionError):
            gc.discrete_from_points_and_values([0, F(1, 2), 1], [0, 1])

    @pytest.mark.parametrize("f", [F(-1, 5), 0, 1, F(6, 5)])
    def test_f_outside_unit_interval_rejected(self, f):
        with pytest.raises(ConstructionError):
            gc.discrete_from_points_and_values(
                [0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1],
                [0, F(1, 4), F(1, 2), F(3, 4), 1, 0], f=f)

    def test_incomplete_grid_rejected(self):
        with pytest.raises(ConstructionError):
            gc.discrete_from_points_and_values([0, F(1, 3), 1], [0, F(1, 3), 0])

    def test_non_grid_evaluation(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 2), 1], [0, 1, 0])
        with pytest.raises(ConstructionError):
            dfn(F(1, 3))


class TestValueTypes:
    """The behaviour that the three value types of pwl promise: repr,
    equality, unhashability, copies and both ways of construction."""

    def _instances(self, gmic45):
        piece = gmic45.which_function(F(1, 2))
        dfn = gc.restrict_to_finite_group(gmic45)
        return [
            (piece, AffinePiece(F(5, 4), F(0), (F(0), F(4, 5))),
             AffinePiece(F(5, 4), F(1), (F(0), F(4, 5)))),
            (dfn, DiscreteFunction(5, dfn.points, dfn.values, F(4, 5)),
             DiscreteFunction(5, dfn.points, dfn.values[:2] + (F(1, 3),)
                              + dfn.values[3:], F(4, 5))),
            (gmic45, PiecewiseFunction(gmic45.breakpoints, gmic45.limits),
             gc.gmic(F(3, 5))),
        ]

    def test_repr(self, gmic45, hildebrand):
        assert repr(gmic45.which_function(F(1, 2))) == \
            "AffinePiece(5/4*x + 0 on (Fraction(0, 1), Fraction(4, 5)))"
        assert repr(gmic45.which_function(F(4, 5))) == \
            "AffinePiece(0*x + 1 on (Fraction(4, 5), Fraction(4, 5)))"
        assert repr(gc.restrict_to_finite_group(gmic45)) == \
            "<DiscreteFunction on (1/5)Z, f=4/5>"
        assert repr(gc.discrete_from_points_and_values([0, 1], [0, 0])) == \
            "<DiscreteFunction on (1/1)Z, f=None>"
        assert repr(gmic45) == "<PiecewiseFunction continuous, 2 pieces, f=4/5>"
        assert repr(hildebrand) == \
            "<PiecewiseFunction discontinuous, 8 pieces, f=1/2>"

    def test_equality(self, gmic45):
        for obj, same, other in self._instances(gmic45):
            assert obj == same and not obj != same
            assert obj != other and not obj == other
            assert obj != 3 and not obj == 3 and 3 != obj

    def test_unhashable(self, gmic45):
        for obj, _, _ in self._instances(gmic45):
            with pytest.raises(TypeError):
                hash(obj)

    def test_copies_compare_equal(self, gmic45):
        for obj, _, _ in self._instances(gmic45):
            for twin in (copy.copy(obj), copy.deepcopy(obj),
                         pickle.loads(pickle.dumps(obj))):
                assert type(twin) is type(obj) and twin == obj
                assert repr(twin) == repr(obj)

    def test_positional_and_keyword_construction(self, gmic45):
        pts, vals = (F(0), F(1, 2), F(1)), (F(0), F(1), F(0))
        assert AffinePiece(1, 2, (0, 1)) == \
            AffinePiece(slope=1, intercept=2, face=(0, 1))
        dfn = DiscreteFunction(q=2, points=pts, values=vals, f=F(1, 2))
        assert DiscreteFunction(2, pts, vals, F(1, 2)) == dfn
        assert (dfn.q, dfn.points, dfn.values, dfn.f) == (2, pts, vals, F(1, 2))
        assert DiscreteFunction(2, pts, vals).f is None
        fn = PiecewiseFunction(breakpoints=gmic45.breakpoints,
                               limits=gmic45.limits, f=F(4, 5))
        assert fn == PiecewiseFunction(gmic45.breakpoints, gmic45.limits)
        assert (fn.breakpoints, fn.limits, fn.f) == \
            (gmic45.breakpoints, gmic45.limits, F(4, 5))
        assert PiecewiseFunction(gmic45.breakpoints, gmic45.limits).f is None

    def test_discrete_equality_ignores_f(self):
        pts, vals = (F(0), F(1, 2), F(1)), (F(0), F(1), F(0))
        assert DiscreteFunction(2, pts, vals, F(1, 2)) == \
            DiscreteFunction(2, pts, vals, None)

    def test_piecewise_equality_is_canonical(self, gmic45):
        # an unmerged flat interior point and a different f change nothing
        unmerged = gc.from_breakpoints_and_values(
            [0, F(2, 5), F(4, 5), 1], [0, F(1, 2), 1, 0], merge=False)
        assert len(unmerged.breakpoints) == 4 and unmerged == gmic45
        assert PiecewiseFunction(gmic45.breakpoints, gmic45.limits,
                                 F(1, 2)) == gmic45


class TestRandomGeneration:
    def test_deterministic(self):
        a = gc.random_piecewise_function(5, 5, F(1, 3), True, seed=11)
        b = gc.random_piecewise_function(5, 5, F(1, 3), True, seed=11)
        assert a == b and a.f == b.f

    def test_proba_one_is_continuous(self):
        fn = gc.random_piecewise_function(5, 5, 1, False, seed=3)
        assert fn.is_continuous
        assert all(b.denominator in (1, 5) for b in fn.breakpoints)
        assert fn(0) == 0

    def test_symmetry_condition_with_limits(self):
        for seed in range(4):
            fn = gc.random_piecewise_function(5, 5, F(1, 3), True, seed=seed)
            f = fn.f
            assert fn(f) == 1
            for i in range(6):
                x = F(i, 5)
                tx, tm = fn.limits_at(x), fn.limits_at(f - x)
                assert tx[0] + tm[0] == 1
                assert tx[1] + tm[2] == 1
                assert tx[2] + tm[1] == 1

    def test_values_on_y_grid(self):
        fn = gc.random_piecewise_function(6, 4, F(1, 2), False, seed=9)
        for v, r, l in fn.limits:
            for val in (v, r, l):
                assert val.denominator in (1, 2, 4)

    def test_seeded_draws_are_pinned(self):
        # the benchmark pools, perfbench/reference.json and the seeded
        # corpora of these tests are keyed by seed: the draw order must not
        # change; a refusal counts as its type name
        import hashlib
        from itertools import product

        from groupcut.errors import GroupCutError
        from groupcut.jsonio import dumps_function

        digest = hashlib.sha256()
        for x, y, p, sym, seed in product(range(1, 9), (1, 3, 4),
                                          (0, F(1, 2), 1), (False, True),
                                          range(8)):
            try:
                doc = dumps_function(
                    gc.random_piecewise_function(x, y, p, sym, seed=seed))
            except GroupCutError as exc:
                doc = type(exc).__name__
            digest.update(doc.encode())
        assert digest.hexdigest() == (
            "4efe0ffaadd33141ef741302c1dc5b3ab9f0b416d70aaa19acd1e243a93c2832")


class TestLinearCombination:
    def test_affine_mix(self, gmic45):
        double = gc.linear_combination(2, gmic45, 0, gmic45)
        assert double(F(2, 5)) == 1
        mix = gc.linear_combination(F(1, 2), gmic45, F(1, 2), gmic45)
        assert mix == gmic45

    def test_seam_of_mix(self, hildebrand):
        mix = gc.linear_combination(F(1, 3), hildebrand, F(2, 3), hildebrand)
        assert mix == hildebrand


def test_linear_combination_matches_fraction_limits():
    # random pairs on breakpoints k/2 .. k/12, so their denominators
    # differ, half of their points discontinuous, with coefficients that
    # are zero, negative or not integers
    import random

    rng = random.Random(11)
    fns = [gc.random_piecewise_function(rng.randint(2, 12), rng.randint(1, 9),
                                        F(1, 2), rng.random() < 0.5,
                                        seed=rng.randrange(10 ** 6))
           for _ in range(60)]
    fns += [gc.hildebrand_discont_3_slope_1(), gc.gj_2_slope(),
            gc.multiplicative_homomorphism(gc.drlm_backward_3_slope(), 2)]
    coeffs = (0, 1, -1, 3, F(1, 2), F(-5, 7), F(7, 3), "2/9")
    for _ in range(600):
        fn1, fn2 = rng.choice(fns), rng.choice(fns)
        a, b = rng.choice(coeffs), rng.choice(coeffs)
        f = rng.choice((None, F(1, 3)))
        got = gc.linear_combination(a, fn1, b, fn2, f=f)
        want = oracle_linear_combination(gc.to_rational(a), fn1,
                                         gc.to_rational(b), fn2, f=f)
        assert (got.breakpoints, got.limits, got.f) == \
            (want.breakpoints, want.limits, want.f)


class TestMergeSemantics:
    def test_interior_breakpoints_are_genuine_after_merge(self):
        for seed in range(8):
            fn = gc.random_piecewise_function(6, 4, F(1, 2), True, seed=seed)
            slopes = fn.interval_slopes()
            for i in range(1, len(fn.breakpoints) - 1):
                v, r, l = fn.limits[i]
                genuine = not (v == r == l) or slopes[i - 1] != slopes[i]
                assert genuine, f"non-breakpoint survived merge at index {i}"

    def test_merge_and_canonical_match_the_fraction_merge(self):
        # merging and == decide equal slopes on the integer slope ids, against
        # the Fraction merge of oracle_canonical.  Breakpoints on 1/24, values
        # on 1/2, about a fifth of the points one-sided discontinuous
        import random

        rng = random.Random(26)
        half = [F(k, 2) for k in range(3)]
        dropped = kept_jumps = 0
        for _ in range(2000):
            pts = [F(0), *sorted(F(k, 24) for k in rng.sample(
                range(1, 24), rng.randint(1, 10))), F(1)]
            triples = []
            for _ in pts[:-1]:
                v = rng.choice(half)
                t = [v, v, v]
                if rng.random() < 0.2:
                    t[rng.choice((1, 2))] = rng.choice([h for h in half if h != v])
                triples.append(tuple(t))
            triples.append(triples[0])
            want = oracle_canonical(tuple(pts), tuple(triples))
            merged = gc.from_breakpoints_and_limits(pts, triples, merge=True)
            raw = gc.from_breakpoints_and_limits(pts, triples, merge=False)
            assert (merged.breakpoints, merged.limits) == want
            assert raw._canonical() == want == merged._canonical()
            for fn in (merged, raw):
                assert fn.number_of_slopes() == len(set(fn.interval_slopes()))
            dropped += len(pts) > len(want[0])
            kept_jumps += any(not v == r == l for v, r, l in want[1][1:-1])
        assert dropped >= 500 and kept_jumps >= 500, (dropped, kept_jumps)


def test_random_symmetry_needs_interior_f():
    import pytest
    from groupcut.errors import ConstructionError

    with pytest.raises(ConstructionError):
        gc.random_piecewise_function(1, 3, 1, True, seed=0)
    fn = gc.random_piecewise_function(1, 3, 1, False, seed=0)
    assert fn.end_points() == [0, 1]


def test_scaled_tables_equal_fraction_products():
    # the integer tables, built from numerators and denominators, against
    # the Fraction products x * D and limit * V
    from groupcut.compendium import construct, sourced_entries

    fns = [construct(e.name) for e in sourced_entries() if e.sourced]
    fns += [gc.multiplicative_homomorphism(gc.gj_2_slope(), 7)]
    fns += [gc.random_piecewise_function(x, y, F(1, 2), True, seed=s)
            for s in range(40) for x, y in ((4, 4), (6, 5), (8, 3))]
    for fn in fns:
        for extra in (1, 6, 35):
            b, rows, D, V = fn.scaled_tables(extra)
            assert D % extra == 0
            assert all((x * D).denominator == 1 for x in fn.breakpoints)
            assert all((v * V).denominator == 1 for t in fn.limits for v in t)
            assert b == [int(x * D) for x in fn.breakpoints]
            assert rows == [tuple(int(v * V) for v in t) for t in fn.limits]


def test_slope_ids_are_the_classes_of_equal_slopes():
    # the walk and the covering saturation count read the integer slope
    # ids: two pieces share an id exactly when their Fraction slopes agree
    from itertools import combinations

    from groupcut.compendium import REGISTRY

    fns = [gc.random_piecewise_function(x, x, p, True, seed=seed)
           for seed in range(60) for x, p in ((4, F(1, 2)), (6, F(1)))]
    fns += [entry.construct() for entry in REGISTRY.values()
            if entry.sourced and entry.builder is not None]
    fns += [gc.multiplicative_homomorphism(base, lam)
            for base in (gc.hildebrand_discont_3_slope_1(), gc.gj_2_slope(),
                         gc.drlm_backward_3_slope())
            for lam in (2, 3, 5)]
    fns = [fn for fn in fns if isinstance(fn, gc.PiecewiseFunction)]
    assert len(fns) >= 130
    for fn in fns:
        ids, slopes = fn._slope_ids(), fn.interval_slopes()
        assert len(ids) == len(slopes)
        assert sorted(set(ids)) == list(range(fn.number_of_slopes()))
        for i, j in combinations(range(len(ids)), 2):
            assert (ids[i] == ids[j]) == (slopes[i] == slopes[j]), fn
