import dataclasses
from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.errors import (ConstructionError, NoCandidateFError,
                             ParameterError)


class TestFindF:
    def test_gmic(self, gmic45):
        assert gc.find_f(gmic45) == F(4, 5)

    def test_equiv5(self, equiv5):
        assert gc.find_f(equiv5) == F(1, 5)

    def test_zero_function_errors(self, zero_fn):
        with pytest.raises(NoCandidateFError):
            gc.find_f(zero_fn)

    def test_limit_only_case_is_explicit_error(self):
        fn = gc.from_breakpoints_and_limits(
            [0, F(1, 2), 1],
            [(0, 0, 0), (F(1, 2), 1, 1), (0, 0, 0)])
        with pytest.raises(NoCandidateFError, match="one-sided limit"):
            gc.find_f(fn)


class TestMinimalityTest:
    def test_gmic_minimal(self, gmic45):
        rep = gc.minimality_test(gmic45)
        assert rep.is_minimal and rep.violations == ()
        assert rep.f_used == F(4, 5)

    def test_gomory_fractional_range_violation(self):
        rep = gc.minimality_test(gc.gomory_fractional(F(4, 5)))
        assert not rep.is_minimal
        assert not rep and bool(gc.minimality_test(gc.gmic(F(4, 5)))) is True
        kinds = {v.kind for v in rep.violations}
        assert "range" in kinds

    def test_range_on_integer_tables_matches_fractions(self):
        # values and limits below 0, above 1 and at both ends of [0, 1], on
        # mixed denominators: the range check on the scaled integer tables
        # finds what the Fraction comparison finds, in the same order
        import random

        from groupcut.jsonio import minimality_report_to_dict
        from groupcut.minimality import SIDE_NAMES

        def rep_of(violations):
            return gc.MinimalityReport(False, None, violations)

        rng = random.Random(5)
        choices = [F(-1, 3), F(-1, 7), 0, F(2, 5), 1, F(8, 7), F(5, 3)]
        seen = set()
        for _ in range(60):
            q = rng.randint(2, 5)
            limits = [tuple(rng.choice(choices) for _ in range(3))
                      for _ in range(q)]
            fn = gc.from_breakpoints_and_limits(
                [F(k, q) for k in range(q + 1)], limits + limits[:1])
            out = [(x, side, val) for x, t in zip(fn.breakpoints, fn.limits)
                   for side, val in zip(SIDE_NAMES, t) if not 0 <= val <= 1]
            want = tuple(gc.Violation("range", x=x, sides=side,
                                      slack=min(val, 1 - val))
                         for x, side, val in out)
            rep = gc.minimality_test(fn, f=F(1, 2))
            got = tuple(v for v in rep.violations if v.kind == "range")
            assert got == want
            assert [repr(v) for v in got] == [repr(v) for v in want]
            assert minimality_report_to_dict(rep_of(got)) == \
                minimality_report_to_dict(rep_of(want))
            first = gc.minimality_test(fn, f=F(1, 2), collect_all=False)
            assert first.violations == rep.violations[:1]
            seen.update((val < 0, side) for _, side, val in out)
        assert seen == {(low, side) for low in (True, False)
                        for side in SIDE_NAMES}

    def test_equiv5_limit_witness(self, equiv5):
        rep = gc.minimality_test(equiv5)
        assert not rep.is_minimal
        hits = [v for v in rep.violations
                if v.kind == "subadditivity" and (v.x, v.y) == (F(2, 5), F(4, 5))
                and v.face is not None and v.face.edge_kind == "horizontal"]
        assert hits and hits[0].slack == F(-2, 5)
        assert hits[0].face.key() == gc.face_from_triple(
            (F(1, 5), F(2, 5)), F(4, 5), (1, F(6, 5))).key()

    def test_witness_faces_are_built_on_first_read(self, monkeypatch):
        from groupcut import minimality

        calls = []
        grid_face = minimality.grid_face
        monkeypatch.setattr(minimality, "grid_face",
                            lambda *a: calls.append(a) or grid_face(*a))
        fn = gc.equiv5_random_discont_1()
        rep = gc.extremality_test(fn)
        assert not rep.is_minimal and calls == []
        witnessed = [v for v in rep.minimality.violations
                     if v.kind == "subadditivity"]
        assert len(witnessed) > 10
        for v in witnessed:
            assert v.face == minimality.witness_face(fn, (v.x, v.y), v.sides)
        assert len(calls) == 2 * len(witnessed)

    def test_violation_fields_are_built_on_first_read(self):
        # a verdict builds no point, slack or face of a subadditivity
        # violation; reading them gives the violation the public
        # constructor makes from the same data, and so does a copy or a
        # pickle of an unread one
        import copy
        import pickle

        from groupcut.jsonio import minimality_report_to_dict

        rep = gc.extremality_test(gc.equiv5_random_discont_1()).minimality
        lazy = [v for v in rep.violations if v.kind == "subadditivity"]
        assert len(lazy) > 10
        assert not any({"x", "y", "slack", "face"} & vars(v).keys()
                       for v in lazy)
        copies = [copy.copy(v) for v in lazy]
        pickles = [pickle.loads(pickle.dumps(v)) for v in lazy]
        for v, c, p in zip(lazy, copies, pickles):
            eager = gc.Violation(v.kind, x=v.x, y=v.y, sides=v.sides,
                                 slack=v.slack, witness=v.witness)
            assert all(type(e) is F for e in (v.x, v.y, v.slack))
            for other in (eager, c, p):
                assert other == v and repr(other) == repr(v)
                assert hash(other) == hash(v)
                assert other.describe() == v.describe()
        again = gc.MinimalityReport(rep.is_minimal, rep.f_used, tuple(
            gc.Violation(v.kind, x=v.x, y=v.y, sides=v.sides, slack=v.slack,
                         witness=v.witness) for v in rep.violations))
        assert minimality_report_to_dict(again) == \
            minimality_report_to_dict(rep)

    def test_public_violation_constructor(self):
        v = gc.Violation("range", x=F(1, 2), slack=F(-1, 3))
        assert (v.y, v.sides, v.face, v.witness) == (None, None, None, None)
        assert repr(v) == ("Violation(kind='range', x=Fraction(1, 2), "
                           "y=None, sides=None, slack=Fraction(-1, 3), "
                           "face=None)")
        assert v == gc.Violation("range", F(1, 2), None, None, F(-1, 3))
        assert v.describe() == "range at x=1/2, slack -1/3"
        with pytest.raises(AttributeError):
            v.missing
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x = 0

    def test_compendium_minimal_functions(self, gj, drlm, hildebrand, gmic15):
        for fn in (gj, drlm, hildebrand, gmic15):
            rep = gc.minimality_test(fn)
            assert rep.is_minimal and rep.violations == ()

    def test_fail_fast(self, equiv5):
        rep = gc.minimality_test(equiv5, collect_all=False)
        assert not rep.is_minimal and len(rep.violations) == 1

    def test_value_at_zero(self):
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 2), 1], [F(1, 4), 1, F(1, 4)], f=F(1, 2))
        rep = gc.minimality_test(fn)
        assert {v.kind for v in rep.violations} >= {"value-at-0"}

    def test_invalid_f(self, gmic45):
        with pytest.raises(ConstructionError):
            gc.minimality_test(gmic45, f=F(3, 2))

    def test_symmetry_and_value_at_f_consistent(self):
        # pi(0) = 0 and symmetry holding forces pi(f) = 1: a function where
        # pi(f) != 1 must report symmetry (not a bare value error)
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 2), 1], [0, F(3, 4), 0], f=F(1, 2))
        rep = gc.minimality_test(fn)
        assert not rep.is_minimal
        assert "symmetry" in {v.kind for v in rep.violations}
        assert "value-at-0" not in {v.kind for v in rep.violations}

    def test_upper_triangle_restriction_is_lossless(self, equiv5):
        # scanning the full square finds exactly the mirror closures of the
        # upper-triangle violations
        from groupcut.complex2d import scan_vertex_slacks

        _, full, _, _ = scan_vertex_slacks(equiv5, upper_triangle=False)
        _, upper, _, _ = scan_vertex_slacks(equiv5, upper_triangle=True)

        def norm(entries):
            out = set()
            for (x, y), (sx, sy, ss), slack in entries:
                if (x, sx) > (y, sy):
                    x, y, sx, sy = y, x, sy, sx
                out.add(((x, y), (sx, sy, ss), slack))
            return out

        assert norm(full) == norm(upper)

    def test_minimal_implies_bruteforce_grid_subadditive(self, gj):
        assert gc.minimality_test(gj).is_minimal
        grid = [F(i, 60) for i in range(61)]
        assert all(gc.delta_pi(gj, x, y) >= 0 for x in grid for y in grid)


class TestDetectZeroPeriod:
    def test_gmic_has_none(self, gmic45):
        assert gc.detect_zero_period(gmic45) is None

    def test_period_five(self):
        fn = gc.from_breakpoints_and_values(
            [F(i, 10) for i in range(11)],
            [0, F(1, 2)] * 5 + [0])
        assert gc.detect_zero_period(fn) == 5

    def test_period_three(self):
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6), 1],
            [0, F(1, 2), 0, F(1, 2), 0, F(1, 2), 0])
        assert gc.detect_zero_period(fn) == 3

    def test_non_periodic_zero_rejected(self):
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 3), F(2, 3), 1], [0, 0, 1, 0])
        with pytest.raises(ConstructionError):
            gc.detect_zero_period(fn)


class TestDiscreteMinimality:
    def test_gmic_restriction(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45)
        rep = gc.minimality_test_discrete(dfn)
        assert rep.is_minimal and rep.f_used == F(4, 5)

    def test_violations(self):
        dfn = gc.discrete_from_points_and_values(
            [0, F(1, 3), F(2, 3), 1], [0, 1, F(1, 4), 0], f=F(1, 3))
        rep = gc.minimality_test_discrete(dfn)
        assert not rep.is_minimal
        assert "symmetry" in {v.kind for v in rep.violations}

    @pytest.mark.parametrize("f", [F(-1, 5), 0, 1, F(6, 5)])
    def test_f_outside_unit_interval_refused(self, gmic45, f):
        dfn = gc.restrict_to_finite_group(gmic45)
        with pytest.raises(ConstructionError):
            gc.minimality_test_discrete(dfn, f=f)


class TestValueOneAtZero:
    """Value 1 at 0 and no other 1: 0 is no candidate for f, so both models
    report the value-at-0 violation instead of refusing f = 0."""

    MAKERS = [gc.from_breakpoints_and_values, gc.discrete_from_points_and_values]

    @pytest.mark.parametrize("make", MAKERS)
    @pytest.mark.parametrize("collect_all", [True, False])
    def test_reported_as_violation(self, make, collect_all):
        fn = make([0, F(1, 2), 1], [1, 0, 1])
        rep = gc.minimality_test(fn, collect_all=collect_all)
        assert not rep.is_minimal and rep.f_used is None
        kinds = [v.kind for v in rep.violations]
        assert kinds[0] == "value-at-0" and kinds.count("value-at-0") == 1
        assert rep.violations[0].slack == 1
        if not collect_all:
            assert kinds == ["value-at-0"]

    @pytest.mark.parametrize("make", MAKERS)
    def test_no_candidate_f(self, make):
        fn = make([0, F(1, 2), 1], [1, 0, 1])
        with pytest.raises(NoCandidateFError, match="no candidate f"):
            gc.find_f(fn)
        rep = gc.extremality_test(fn)
        assert not rep.is_minimal and rep.notes == ("not minimal valid",)


class TestEitherModel:
    @pytest.mark.parametrize("bad", [3, "gmic", None, [0, 1]])
    def test_other_arguments_refused(self, bad):
        for test in (gc.minimality_test, gc.minimality_test_discrete,
                     gc.extremality_test, gc.extremality_test_discrete,
                     gc.find_f):
            with pytest.raises(ParameterError):
                test(bad)

    def test_second_names_agree(self, gmic45):
        d = gc.restrict_to_finite_group(gmic45, oversampling=3)
        assert gc.minimality_test(d) == gc.minimality_test_discrete(d)
        assert gc.minimality_test(d, collect_all=False) == \
            gc.minimality_test_discrete(d, collect_all=False)
        assert gc.extremality_test(d) == gc.extremality_test_discrete(d)
        assert gc.extremality_test(d).is_extreme
        # the former finite-model names take the infinite model too
        assert gc.minimality_test_discrete(gmic45) == gc.minimality_test(gmic45)
        assert gc.find_f(d) == F(4, 5)
