from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.errors import ConstructionError, ParameterError


class TestMultiplicativeHomomorphism:
    def test_identity(self, gmic45):
        assert gc.multiplicative_homomorphism(gmic45, 1) == gmic45

    def test_doubling_gmic(self, gmic45):
        fn = gc.multiplicative_homomorphism(gmic45, 2)
        assert fn.end_points() == [0, F(2, 5), F(1, 2), F(9, 10), 1]
        assert fn.f == F(2, 5)
        for x in (F(1, 10), F(2, 5), F(17, 20)):
            assert fn(x) == gmic45(2 * x)

    def test_lambda_minus_one_is_automorphism_default(self, gmic45):
        assert gc.multiplicative_homomorphism(gmic45, -1) == \
            gc.automorphism(gmic45)

    def test_zero_rejected(self, gmic45):
        with pytest.raises(ParameterError):
            gc.multiplicative_homomorphism(gmic45, 0)

    def test_discontinuous_orientation(self, hildebrand):
        fn = gc.multiplicative_homomorphism(hildebrand, -1)
        # mirror of the left jump at 1/8 is a right jump at 7/8
        v, r, l = fn.limits_at(F(7, 8))
        assert r != v and l == v

    def test_minimality_preserved(self, gmic45, gj):
        for fn in (gmic45, gj):
            for lam in (2, 3, -2):
                out = gc.multiplicative_homomorphism(fn, lam)
                assert gc.minimality_test(out).is_minimal == \
                    gc.minimality_test(fn).is_minimal


class TestAutomorphism:
    def test_infinite_lambda_two_rejected(self, gmic45):
        with pytest.raises(ParameterError):
            gc.automorphism(gmic45, 2)

    def test_involution(self, gmic45, hildebrand):
        for fn in (gmic45, hildebrand):
            assert gc.automorphism(gc.automorphism(fn, -1), -1) == fn

    def test_identity(self, gmic45):
        assert gc.automorphism(gmic45, 1) == gmic45

    def test_discrete_automorphism(self, gmic45):
        hr = gc.restrict_to_finite_group(gmic45)
        ha = gc.automorphism(hr, 2)
        assert ha.values == (0, F(1, 2), 1, F(1, 4), F(3, 4), 0)
        assert ha.f == F(2, 5)

    def test_discrete_coprimality(self, gmic45):
        hr = gc.restrict_to_finite_group(gmic45)
        with pytest.raises(ParameterError):
            gc.automorphism(hr, 5)

    def test_discrete_f_off_the_group_is_refused(self):
        # f = 1/3 is no point of (1/5)Z: refused as minimality_test
        # refuses it, not moved to a group point
        d = gc.discrete_from_points_and_values(
            [F(i, 5) for i in range(6)], [0, F(1, 2), 1, F(1, 2), F(1, 4), 0],
            f=F(1, 3))
        message = r"f = 1/3 is not a point of \(1/5\)Z"
        with pytest.raises(ConstructionError, match=message):
            gc.minimality_test(d)
        with pytest.raises(ConstructionError, match=message):
            gc.automorphism(d, 2)


class TestRestrict:
    def test_gmic_default_order(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45)
        assert dfn.q == 5
        assert dfn.points == tuple(F(i, 5) for i in range(6))
        assert dfn.values == (0, F(1, 4), F(1, 2), F(3, 4), 1, 0)

    def test_oversampling(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45, oversampling=3)
        assert dfn.q == 15

    def test_order_incompatible_with_f(self, gmic45):
        with pytest.raises(ParameterError):
            gc.restrict_to_finite_group(gmic45, order=7)

    def test_explicit_order(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45, order=10)
        assert dfn.q == 10 and dfn(F(4, 5)) == 1

    def test_restriction_minimality_equivalence(self, gj, gmic45):
        for fn in (gj, gmic45):
            dfn = gc.restrict_to_finite_group(fn)
            assert gc.minimality_test_discrete(dfn).is_minimal == \
                gc.minimality_test(fn).is_minimal


class TestInterpolate:
    def test_composition_with_restrict(self, gmic45):
        fn = gc.interpolate_to_infinite_group(
            gc.restrict_to_finite_group(gmic45, order=5))
        assert all(b.denominator in (1, 5) for b in fn.breakpoints)
        assert fn(F(4, 5)) == 1
        assert fn == gmic45  # gmic has its breakpoints on the grid

    def test_zero_function(self):
        dfn = gc.discrete_from_points_and_values([0, 1], [0, 0])
        fn = gc.interpolate_to_infinite_group(dfn)
        assert fn.end_points() == [0, 1]
        assert fn(F(1, 3)) == 0

    def test_round_trip(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45, oversampling=2)
        assert gc.restrict_to_finite_group(
            gc.interpolate_to_infinite_group(dfn), order=dfn.q) == dfn


def test_restriction_of_discontinuous_function(hildebrand):
    dfn = gc.restrict_to_finite_group(hildebrand)
    assert dfn.q == 8
    assert dfn.values == (0, F(1, 4), F(1, 2), F(3, 4), 1,
                          F(3, 4), F(1, 2), F(1, 4), 0)
    assert gc.extremality_test_discrete(dfn).is_extreme


@pytest.mark.parametrize("transform, finite, kwargs", [
    ("restrict_to_finite_group", False, {"oversampling": 2.5}),
    ("restrict_to_finite_group", False, {"oversampling": True}),
    ("restrict_to_finite_group", False, {"order": 10.5}),
    ("restrict_to_finite_group", False, {"order": F(10)}),
    ("multiplicative_homomorphism", False, {"lam": True}),
    ("multiplicative_homomorphism", False, {"lam": F(2)}),
    ("automorphism", False, {"lam": True}),
    ("automorphism", False, {"lam": -1.0}),
    ("automorphism", True, {"lam": 2.0}),
], ids=["oversampling-2.5", "oversampling-True", "order-10.5", "order-F(10)",
        "lam-True", "lam-F(2)", "automorphism-True", "automorphism--1.0",
        "finite-automorphism-2.0"])
def test_non_integer_parameters_refused(gmic45, transform, finite, kwargs):
    # an integral float, Fraction or bool is refused, not truncated
    fn = gc.restrict_to_finite_group(gmic45) if finite else gmic45
    with pytest.raises(ParameterError, match="must be an integer, got"):
        getattr(gc, transform)(fn, **kwargs)


def _gmic_symbolic():
    fn = gc.gmic()
    return gc.generate_symbolic(fn, gc.generate_covered_components(fn))


@pytest.mark.parametrize("call, error, match", [
    (lambda: gc.restrict_to_finite_group(gc.gmic(), order=10,
                                         oversampling=2),
     ParameterError, "either order or oversampling"),
    (lambda: gc.restrict_to_finite_group(gc.gmic(), oversampling=0),
     ParameterError, "oversampling must be a positive integer"),
    (lambda: gc.random_piecewise_function(0, 4),
     ConstructionError, "xgrid and ygrid must be at least 1"),
    (lambda: gc.random_piecewise_function(continuous_proba=F(3, 2)),
     ConstructionError, r"continuous_proba must lie in \[0, 1\]"),
    (lambda: gc.face_from_triple([0, F(1, 2), 1], [0, 1], [0, 2]),
     ConstructionError, "interval needs 1 or 2 endpoints"),
    (lambda: _gmic_symbolic().limit(F(3, 2)),
     ConstructionError, r"outside \[0, 1\]"),
], ids=["order-and-oversampling", "oversampling-0", "xgrid-0",
        "proba-above-1", "three-endpoints", "symbolic-limit-outside"])
def test_typed_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
