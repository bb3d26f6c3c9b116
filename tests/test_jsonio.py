import hashlib
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
    def test_empty_face_dict(self):
        face = gc.face_from_triple((0, F(1, 4)), (0, F(1, 4)), (1, 2))
        assert face_to_dict(face) == {"empty": True}

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


def _sha256(doc) -> str:
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


_HOM = gc.multiplicative_homomorphism
# the reports and components where a one-sided point crosses the seam at
# 0 and 1 (witness faces, symbolic rows) or the covering is drawn; each
# pin is (minimality with witness faces, extremality, components or None)
_PINNED = {
    "equiv5": (
        gc.equiv5_random_discont_1,
        "4b533e32017373b371114b65b6746426e04bab3b8e9bc79b16f9dadcb45c4ae9",
        "d8f7e283ba024c6487c578ce0984b72d56b874a37f4bff2df7e389c219db1bc2",
        None),
    "random227": (
        lambda: gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227),
        "b8e71c13a48ffde664fa52f676c16dbf22dffc054faa7ca1271db02532fcce61",
        "6e5bf2946c686cc5c6518b5f600ce8bd9cdccba0d128ba026d93aac2996db4d6",
        "6fc3610ff10eac737b96064fc3a33a52700d26c38bda55a27c17e99527a2e7ab"),
    "hildebrand-lam1": (
        lambda: _HOM(gc.hildebrand_discont_3_slope_1(), 1),
        "b8e71c13a48ffde664fa52f676c16dbf22dffc054faa7ca1271db02532fcce61",
        "2d2f2c4b6db30dbdbc4a3c8da29450ee3c3a291c7af6620e50d7d0b49b326a24",
        "6b0b956e44f359ee7e6b4160e3120c02dc2a68da9710eebfaa5d2cbf91b6d03c"),
    "hildebrand-lam2": (
        lambda: _HOM(gc.hildebrand_discont_3_slope_1(), 2),
        "e68baff77d6bc40a8e2d082b07609e991420d89f16881eddada515964daafa7b",
        "3aa0a8546735fcc0516a47f3915be8c575d39d58eea64d8fe371c93833a99551",
        "3c347dd65ab370c946a2079c32d31336ee308570454960e9406cfe686473740b"),
    "hildebrand-lam6": (
        lambda: _HOM(gc.hildebrand_discont_3_slope_1(), 6),
        "a46b1bc05e15574ae0959279851d0a880b0ddca75dda01197157ce7decd0c1cd",
        "bd8f04f2bdb30cbcc7c3ecbd818147bfab5e056ba66f86fa55a6a2a4a3dfeb6c",
        "8108f73b4400e3056924ebbbce1d21bb8a7137a33536b4e1feffaad8df7e3832"),
    "gj_2_slope-lam6": (
        lambda: _HOM(gc.gj_2_slope(), 6),
        "1eb73f8c741d2c8c648f0b12ec61c8710bbd851daa285999390aba6bac4eb203",
        "6cfaca6fc14aba293a5ca74ca04481df13a72f5cda49b3d73410a3638079b93d",
        "bf541e6899608fe371636f030f84efa65fda1767dcd34fffc9f8402a25347d26"),
    "drlm-lam2": (
        lambda: _HOM(gc.drlm_backward_3_slope(), 2),
        "5bb1c6c2e5711267f70f927cbae5b09bc16589e0194285304c24163db5b5a86a",
        "0fb1be1ab7cbe1044450e79ba4c50742fb06cb701b7fa9504611d31164b99949",
        "480625b6896f7f61470e883311dca00f6de2644af61385551989257080cefd0c"),
    "gj_2_slope-os3": (
        lambda: gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=3),
        "77957c64d234d4e76fc3a04ecc64241dccd11284f6a85dfcda4cbe5796d5a4e2",
        "07e7a715c08e881610294b1eac7a27a596bbc92d97cbef57f00d91cb5d038182",
        None),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_reports_and_components_are_pinned(name):
    build, minimality, extremality, components = _PINNED[name]
    fn = build()
    assert _sha256(minimality_report_to_dict(
        gc.minimality_test(fn))) == minimality
    assert _sha256(extremality_report_to_dict(
        gc.extremality_test(fn))) == extremality
    if components is not None:
        assert _sha256(components_to_dict(
            gc.generate_covered_components(fn))) == components


def test_covered_steps_frames_are_pinned():
    from groupcut.svgplot import covered_steps_frames

    frames = covered_steps_frames(_HOM(gc.hildebrand_discont_3_slope_1(), 2))
    assert [_sha256(frame) for frame in frames] == [
        "e7ace48d4503c2a3d709c6e95f0ef47e061f8797cf226b9ae093cd4a42b418ff",
        "f0cf6ea20749fe0784fdf1f514c021aa3609a68574e310fa0d878d4d7b25acb1",
        "c6a13e65248584e69c9431915bc381d2f4b7fd3ed2787fcdf5a70cc25e2ad84b",
        "d6ab3d73ebf09f55940de47f63c102baa0a732b85bf215fab897418c93f7abe4",
        "e88fd1a623167ec8c28456c8fd66ac6ab5d0db8e7d1483b1eca88e51a8c03325"]
