from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.compendium import (REGISTRY, construct, data_file_sha256,
                                 data_file_text, provenance, sourced_entries)
from groupcut.errors import ParameterError, UnsourcedEntryError
from groupcut.jsonio import loads_function


class TestGmic:
    def test_data(self, gmic45):
        assert gmic45.end_points() == [0, F(4, 5), 1]
        assert gmic45.values_at_end_points() == [0, 1, 0]
        assert gmic45.f == F(4, 5)

    def test_extreme_for_other_f(self):
        assert gc.extremality_test(gc.gmic(F(1, 5))).is_extreme

    def test_symmetric_at_half(self):
        fn = gc.gmic(F(1, 2))
        for x in (0, F(1, 8), F(1, 4), F(1, 2), F(3, 4)):
            assert fn(x) + fn(F(1, 2) - x) == 1

    @pytest.mark.parametrize("bad", [0, 1, F(3, 2), -1])
    def test_bad_parameters(self, bad):
        with pytest.raises(ParameterError):
            gc.gmic(bad)


class TestGomoryFractional:
    @pytest.mark.parametrize("f", [0, 1, F(-1, 5), F(3, 2)])
    def test_f_outside_the_unit_interval_is_refused(self, f):
        with pytest.raises(ParameterError):
            gc.gomory_fractional(f)

    def test_not_minimal_range(self):
        rep = gc.minimality_test(gc.gomory_fractional(F(4, 5)))
        assert not rep.is_minimal
        assert "range" in {v.kind for v in rep.violations}

    def test_sup_of_limits(self):
        fn = gc.gomory_fractional(F(4, 5))
        assert max(v for t in fn.limits for v in t) == F(5, 4)
        assert fn.limits_at(1)[2] == F(5, 4)

    @pytest.mark.parametrize("f", [F(4, 5), F(1, 3), F(7, 9)])
    def test_value_at_f_is_one(self, f):
        assert gc.gomory_fractional(f)(f) == 1


class TestEquiv5:
    def test_limits_list(self, equiv5):
        assert equiv5.limits_at_end_points() == [
            (0, 0, 0), (1, 1, 1), (F(2, 5), F(2, 5), 0),
            (F(1, 2), F(3, 5), F(2, 5)), (F(3, 5), 1, F(3, 5)), (0, 0, 0)]

    def test_discontinuous(self, equiv5):
        assert not equiv5.is_continuous

    def test_not_minimal(self, equiv5):
        assert not gc.minimality_test(equiv5).is_minimal


class TestRegistry:
    def test_contains_expected_names(self):
        names = {e.name for e in sourced_entries()}
        assert {"gmic", "gj_2_slope", "drlm_backward_3_slope",
                "hildebrand_discont_3_slope_1", "not_minimal_2",
                "example7slopecoarse2"} <= names

    def test_gj_entry_parameters_and_citation(self):
        e = REGISTRY["gj_2_slope"]
        assert e.sourced
        assert dict(e.parameters) == {"f": "3/5", "lam": "1/3"}
        assert "Gomory" in e.citation and "Johnson" in e.citation

    def test_unsourced_constructions_error(self):
        for name in ("not_minimal_2", "example7slopecoarse2",
                     "bcdsp_arbitrary_slope", "kzh_2q_example_1"):
            assert not REGISTRY[name].sourced
            with pytest.raises(UnsourcedEntryError):
                construct(name)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            construct("definitely_not_there")

    def test_construct_dispatch(self):
        fn = construct("gmic", f=F(1, 3))
        assert fn(F(1, 3)) == 1

    def test_default_constructions_pass_their_documented_property(self):
        assert gc.extremality_test(construct("gmic")).is_extreme
        assert gc.extremality_test(construct("gj_2_slope")).is_extreme
        assert gc.extremality_test(
            construct("hildebrand_discont_3_slope_1")).is_extreme
        assert not gc.minimality_test(construct("gomory_fractional")).is_minimal
        drlm = construct("drlm_backward_3_slope")
        assert gc.minimality_test(drlm).is_minimal
        assert not gc.extremality_test(drlm).is_extreme


class TestDataFiles:
    CASES = [
        ("gj_2_slope__3_5__1_3.json", lambda: gc.gj_2_slope(F(3, 5), F(1, 3))),
        ("drlm_backward_3_slope__1_12__4_12.json",
         lambda: gc.drlm_backward_3_slope(F(1, 12), F(4, 12))),
        ("hildebrand_discont_3_slope_1.json", gc.hildebrand_discont_3_slope_1),
        ("equiv5_random_discont_1.json", gc.equiv5_random_discont_1),
    ]

    @pytest.mark.parametrize("fname,builder", CASES)
    def test_builder_matches_data_file(self, fname, builder):
        stored = loads_function(data_file_text(fname))
        assert stored == builder()

    @pytest.mark.parametrize("fname,builder", CASES)
    def test_checksum_matches_sidecar(self, fname, builder):
        side = provenance(fname)
        assert side["sha256"] == data_file_sha256(fname)
        assert side["citation"]

    def test_hildebrand_file_keeps_unmerged_points(self):
        stored = loads_function(data_file_text("hildebrand_discont_3_slope_1.json"))
        assert F(1, 4) in stored.breakpoints and F(3, 4) in stored.breakpoints


class TestParameterChecks:
    def test_gj_2_slope_conditions(self):
        with pytest.raises(ParameterError):
            gc.gj_2_slope(F(1, 5), 1)  # lam*(1-f) >= f
        with pytest.raises(ParameterError):
            gc.gj_2_slope(F(3, 5), 0)

    def test_drlm_conditions(self):
        with pytest.raises(ParameterError):
            gc.drlm_backward_3_slope(F(1, 12), F(6, 12))  # f + 2*bkpt >= 1
