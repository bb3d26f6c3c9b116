import json
from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.errors import ConstructionError
from groupcut.jsonio import (components_to_dict, dumps_function,
                             extremality_report_to_dict, face_to_dict,
                             function_from_dict, function_to_dict,
                             loads_function, minimality_report_to_dict)


class TestFunctionFormat:
    def test_piecewise_shape(self, equiv5):
        d = function_to_dict(equiv5)
        assert d["kind"] == "piecewise"
        assert d["f"] == "1/5"
        assert d["breakpoints"][0] == "0" and d["breakpoints"][-1] == "1"
        assert d["limits"][2] == ["2/5", "2/5", "0"]  # [value, right, left]

    def test_discrete_shape(self, gmic45):
        d = function_to_dict(gc.restrict_to_finite_group(gmic45))
        assert d["kind"] == "discrete"
        assert d["points"] == ["0", "1/5", "2/5", "3/5", "4/5", "1"]
        assert d["values"] == ["0", "1/4", "1/2", "3/4", "1", "0"]

    def test_round_trip_exact(self, equiv5, hildebrand, gmic45):
        for fn in (equiv5, hildebrand, gmic45):
            again = loads_function(dumps_function(fn))
            assert again.end_points() == fn.end_points()
            assert again.limits_at_end_points() == fn.limits_at_end_points()
            assert again.f == fn.f

    def test_round_trip_discrete(self, gmic45):
        dfn = gc.restrict_to_finite_group(gmic45)
        assert loads_function(dumps_function(dfn)) == dfn

    def test_unknown_kind(self):
        with pytest.raises(ConstructionError):
            function_from_dict({"kind": "spline"})

    def test_document_must_be_an_object(self):
        with pytest.raises(ConstructionError):
            loads_function("[1, 2]")

    @pytest.mark.parametrize("change", [
        {"limits": True}, {"limits": None}, {"breakpoints": 7},
        {"breakpoints": ["0", "1"]}, {"limits": [["0", "0"]] * 3},
        {"limits": [["0", "0", "0"], "0", ["0", "0", "0"]]},
        {"kind": None}, {"kind": ["piecewise"]}],
        ids=["limits-bool", "limits-null", "breakpoints-number",
             "unequal-lengths", "short-triple", "triple-not-a-list",
             "no-kind", "kind-not-a-string"])
    def test_a_document_of_the_wrong_shape_is_refused(self, change):
        doc = {"kind": "piecewise", "f": "4/5",
               "breakpoints": ["0", "4/5", "1"],
               "limits": [["0", "0", "0"], ["1", "1", "1"], ["0", "0", "0"]]}
        assert function_from_dict(doc).f == F(4, 5)
        with pytest.raises(ConstructionError):
            function_from_dict({**doc, **change})

    @pytest.mark.parametrize("f", [0, "", False, []])
    def test_an_f_that_is_no_rational_string_is_refused(self, gmic45, f):
        # only a missing f or null means "no f"; 0 is no "p/q" string
        doc = function_to_dict(gmic45)
        assert function_from_dict({**doc, "f": None}).f is None
        with pytest.raises(ValueError, match="not a rational literal"):
            function_from_dict({**doc, "f": f})

    @pytest.mark.parametrize("kind, field", [
        ("piecewise", "breakpoints"), ("piecewise", "limits"),
        ("discrete", "points"), ("discrete", "values")])
    def test_a_missing_field_is_refused(self, gmic45, kind, field):
        fn = gmic45 if kind == "piecewise" else \
            gc.restrict_to_finite_group(gmic45)
        doc = function_to_dict(fn)
        del doc[field]
        with pytest.raises(ConstructionError, match=field):
            function_from_dict(doc)

    def test_discrete_lists_of_unequal_lengths_are_refused(self, gmic45):
        doc = function_to_dict(gc.restrict_to_finite_group(gmic45))
        doc["values"] = doc["values"][:-1]
        with pytest.raises(ConstructionError):
            function_from_dict(doc)

    def test_file_round_trip(self, tmp_path, hildebrand):
        from groupcut.jsonio import load_function, save_function

        path = tmp_path / "fn.json"
        save_function(hildebrand, path)
        assert load_function(path).limits_at_end_points() == \
            hildebrand.limits_at_end_points()


class TestFaceFormat:
    def test_face_dict(self):
        face = gc.face_from_triple(
            (F(1, 5), F(3, 10)), (F(3, 4), F(17, 20)), (1, F(6, 5)))
        d = face_to_dict(face)
        assert d["p1"] == ["1/5", "3/10"]
        assert d["p3"] == ["1", "23/20"]
        assert ["1/5", "4/5"] in d["vertices"]
        assert d["dimension"] == 2


class TestReportFormats:
    def test_minimality_report(self, equiv5):
        d = minimality_report_to_dict(gc.minimality_test(equiv5))
        assert d["is_minimal"] is False
        assert any(v["kind"] == "subadditivity" and v["face"] for v in d["violations"])
        json.dumps(d)  # serializable

    def test_extremality_report(self, gmic45):
        d = extremality_report_to_dict(gc.extremality_test(gmic45))
        assert d["is_extreme"] is True and d["kernel_dimension"] == 0
        assert d["system"]["rows"]
        assert len(d["system"]["rows"]) == len(d["system"]["provenance"])
        json.dumps(d)

    def test_components_dict(self, hildebrand):
        d = components_to_dict(gc.generate_covered_components(hildebrand))
        assert d["closed"] is False
        assert d["components"][0] == [["0", "1/8"], ["3/8", "1/2"]]
        assert d["moves"]
        json.dumps(d)


def test_extremality_report_includes_kernel_basis():
    fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
    d = extremality_report_to_dict(gc.extremality_test(fn))
    assert d["kernel"] and all(isinstance(e, str) for e in d["kernel"][0])
    assert extremality_report_to_dict(
        gc.extremality_test(gc.gmic(F(4, 5))))["kernel"] == []


def test_extremality_report_carries_the_rank_rows():
    # an extreme report writes its rank rows as indices into
    # system.rows; a report that is not extreme writes none
    dfn = gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=3)
    rep = gc.extremality_test(dfn)
    d = extremality_report_to_dict(rep)
    assert d["system"]["rank_rows"] == list(rep.rank_rows)
    assert len(d["system"]["rank_rows"]) == rep.system.ncols == 89
    assert all(type(i) is int and 0 <= i < len(d["system"]["rows"])
               for i in d["system"]["rank_rows"])
    json.dumps(d)
    drlm = gc.restrict_to_finite_group(gc.drlm_backward_3_slope(),
                                       oversampling=3)
    assert extremality_report_to_dict(
        gc.extremality_test(drlm))["system"]["rank_rows"] == []
