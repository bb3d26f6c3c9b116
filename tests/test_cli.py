import json

import pytest

from groupcut.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_RATIONALS = ("0", "1", "-1", "1/2", "1/4", "3/4", "1/5", "2/5", "4/5",
              "1/3", "2/3", "3/2")
# JSON texts, so that each use is a fresh object
_JUNK = ("null", "true", "7", "0.5", '"x"', '""', '"1.5"', '"1/0"', "[]", "{}",
         '["0"]', "[[]]", '{"f": "1/2"}')


def _mutated(rng, doc):
    """A copy of a function document with one or two random changes: a
    field dropped or replaced, the kind changed, or an entry of a list (or
    of a limit triple) replaced by a rational or by junk, dropped, or a
    rational inserted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        op = rng.random()
        if op < 0.2:
            key = rng.choice(sorted(doc) or ["f"])
            if op < 0.1:
                doc.pop(key, None)
            else:
                doc[key] = json.loads(rng.choice(_JUNK)) if op < 0.15 \
                    else rng.choice(_RATIONALS)
        elif op < 0.25:
            doc["kind"] = rng.choice(("piecewise", "discrete", "finite", 3,
                                      None))
        else:
            lists = [v for v in doc.values() if isinstance(v, list) and v]
            if not lists:
                continue
            target = rng.choice(lists)
            triples = [t for t in target if isinstance(t, list) and t]
            if triples and rng.random() < 0.5:
                target = rng.choice(triples)
            i = rng.randrange(len(target))
            if op < 0.8:
                target[i] = rng.choice(_RATIONALS)
            elif op < 0.87:
                target[i] = json.loads(rng.choice(_JUNK))
            elif op < 0.94:
                del target[i]
            else:
                target.insert(i, rng.choice(_RATIONALS))
    return doc


def _raised_in(exc, function):
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name == function


def test_mutated_function_documents_end_in_a_verdict_or_a_typed_error(
        capsys, monkeypatch):
    # 2,000 seeded mutations of documents of both kinds go through the
    # loader, both tests and the CLI.  Each ends in a report or a typed
    # error; the one untyped error allowed is parse_rational's ValueError
    # (tests/test_rational.py).  The CLI exits 0 or 1 only with the
    # library's verdict, and 2 on every error.
    import random
    from collections import Counter
    from fractions import Fraction as F

    import groupcut as gc
    from groupcut import cli
    from groupcut.jsonio import (function_from_dict, function_to_dict,
                                 loads_function)

    def codes(doc):
        """The exit codes of the minimality and extremality verbs."""
        try:
            fn = function_from_dict(doc)
        except gc.GroupCutError:
            return 2, 2
        except ValueError as exc:
            assert type(exc) is ValueError, exc
            assert _raised_in(exc, "parse_rational"), exc
            return 2, 2
        out = []
        for test in (gc.minimality_test, gc.extremality_test):
            try:
                rep = test(fn)
            except gc.GroupCutError:
                out.append(2)
                continue
            out.append(0 if getattr(rep, "is_extreme", rep.is_minimal) else 1)
        return tuple(out)

    # each document is read from memory, and cli.main builds its parser
    # once, so that the 4,000 CLI runs fit the tier-1 time
    texts = {}
    monkeypatch.setattr(cli, "load_function",
                        lambda name: loads_function(texts[name]))
    bases = [function_to_dict(fn) for fn in (
        gc.gmic(F(4, 5)), gc.gj_2_slope(),
        gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227),
        gc.restrict_to_finite_group(gc.gmic(F(4, 5))),
        gc.restrict_to_finite_group(gc.drlm_backward_3_slope()))]
    rng = random.Random(2)
    seen = Counter()
    for n in range(2000):
        base = bases[n % len(bases)]
        doc = _mutated(rng, base)
        want = codes(doc)
        name = f"doc{n}.json"
        texts[name] = json.dumps(doc)
        for verb, code in zip(("minimality", "extremality"), want):
            got = main([verb, name])
            err = capsys.readouterr().err
            assert got == code, (verb, doc, err)
            assert not err if code < 2 else err.startswith("error: ")
            seen[base["kind"], verb, code] += 1
    for kind in ("piecewise", "discrete"):
        for verb in ("minimality", "extremality"):
            assert all(seen[kind, verb, code] >= 10 for code in (0, 1, 2)), \
                seen


def test_closed_output_pipe_exits_141_without_traceback(tmp_path):
    # the --json report of the q = 90 restriction of gj_2_slope is about
    # 1 MB, far more than a pipe holds, so the writer meets the closed pipe
    import os
    import subprocess
    import sys
    from pathlib import Path

    import groupcut as gc
    from groupcut.jsonio import dumps_function

    fn = tmp_path / "gj_2_slope_q90.json"
    fn.write_text(dumps_function(
        gc.restrict_to_finite_group(gc.gj_2_slope(), oversampling=3)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupcut.cli", "extremality", str(fn),
         "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class TestVerdictVerbs:
    def test_minimality_gmic(self, capsys):
        code, out, _ = run(capsys, "minimality", "gmic", "--f", "4/5")
        assert code == 0
        assert "pi(0) = 0" in out
        assert "pi is subadditive." in out
        assert "pi is symmetric." in out
        assert "Thus pi is minimal." in out

    def test_minimality_gomory_fractional(self, capsys):
        code, out, _ = run(capsys, "minimality", "gomory_fractional")
        assert code == 1
        assert "does not stay in the range of [0, 1]" in out

    def test_extremality_gmic(self, capsys):
        code, out, _ = run(capsys, "extremality", "gmic", "--f", "4/5")
        assert code == 0
        assert "All intervals are covered (or connected-to-covered). 2 components." in out
        assert "Finite dimensional test: Solution space has dimension 0" in out
        assert "Thus the function is extreme." in out

    def test_extremality_drlm(self, capsys):
        code, out, _ = run(capsys, "extremality", "drlm_backward_3_slope")
        assert code == 1
        assert "Uncovered intervals: [(5/12, 2/3)]" in out
        assert "Thus the function is NOT extreme." in out

    def test_extremality_json(self, capsys):
        code, out, _ = run(capsys, "extremality", "gmic", "--f", "4/5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kernel_dimension"] == 0 and data["is_extreme"]

    def test_extremality_json_uncovered_note(self, capsys):
        code, out, _ = run(capsys, "extremality", "drlm_backward_3_slope",
                           "--json")
        assert code == 1
        assert json.loads(out)["notes"] == [
            "uncovered intervals: [(5/12, 2/3)]",
            "perturbation unavailable: uncovered case"]

    def test_minimality_json_lists_the_violation_kinds(self, capsys,
                                                       tmp_path):
        _, doc, _ = run(capsys, "random", "--xgrid", "4", "--ygrid", "4",
                        "--continuous-proba", "1/2", "--seed", "3")
        path = tmp_path / "r3.json"
        path.write_text(doc)
        code, out, _ = run(capsys, "minimality", str(path), "--json")
        assert code == 1
        data = json.loads(out)
        assert not data["is_minimal"]
        assert {v["kind"] for v in data["violations"]} == {"subadditivity"}
        code, out, _ = run(capsys, "minimality", "gomory_fractional", "--json")
        assert code == 1
        assert sorted(v["kind"] for v in json.loads(out)["violations"]) == [
            "range", "range", "symmetry", "symmetry", "symmetry"]

    def test_value_at_the_origin_is_reported(self, capsys, tmp_path):
        import groupcut as gc
        from groupcut.jsonio import save_function

        path = tmp_path / "lifted.json"
        save_function(gc.from_breakpoints_and_values(
            [0, "1/2", 1], ["1/5", 1, "1/5"], f="1/2"), path)
        code, out, _ = run(capsys, "minimality", str(path))
        assert code == 1
        assert out.splitlines()[:3] == [
            "pi(0) != 0", "pi is not symmetric.", "Thus pi is NOT minimal."]
        assert "  violation: value-at-0 at x=0, slack 1/5" in out.splitlines()

    def test_cli_matches_library_verdicts(self, capsys):
        import groupcut as gc

        for name, expect in [("gmic", True), ("gj_2_slope", True),
                             ("drlm_backward_3_slope", False)]:
            code, _, _ = run(capsys, "extremality", name)
            assert (code == 0) == expect
            assert gc.extremality_test(gc.construct(name)).is_extreme == expect


class TestDataVerbs:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "gmic", "--f", "4/5", "--x", "1/2")
        assert code == 0 and out.strip() == "5/8"

    def test_eval_rejects_decimal(self, capsys):
        code, _, err = run(capsys, "eval", "gmic", "--x", "0.5")
        assert code == 2 and "error" in err

    def test_delta(self, capsys):
        code, out, _ = run(capsys, "delta", "gmic", "--f", "4/5",
                           "--x", "2/5", "--y", "2/5")
        assert code == 0 and out.strip() == "0"

    def test_show(self, capsys):
        code, out, _ = run(capsys, "show", "hildebrand_discont_3_slope_1")
        assert code == 0 and "discontinuous" in out

    def test_list(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "gmic" in out and "UNSOURCED" in out

    def test_unsourced_entry_error(self, capsys):
        code, _, err = run(capsys, "show", "not_minimal_2")
        assert code == 2 and "unsourced" in err

    def test_covered(self, capsys):
        code, out, _ = run(capsys, "covered", "gmic", "--f", "4/5")
        assert code == 0 and "component 2" in out

    def test_covered_json(self, capsys):
        code, out, _ = run(capsys, "covered", "gmic", "--f", "4/5", "--json")
        assert code == 0
        assert json.loads(out) == {
            "closed": True, "components": [[["0", "4/5"]], [["4/5", "1"]]],
            "uncovered": [], "moves": []}

    def test_covered_text_lists_the_uncovered_intervals(self, capsys):
        code, out, _ = run(capsys, "covered", "drlm_backward_3_slope")
        assert code == 0
        assert out.splitlines() == [
            "component 1: [0, 1/12]",
            "component 2: [1/12, 5/12] u [2/3, 1]",
            "uncovered: (5/12, 2/3)"]

    def test_show_a_discrete_file(self, capsys, tmp_path):
        _, doc, _ = run(capsys, "restrict", "gmic", "--f", "4/5")
        path = tmp_path / "discrete.json"
        path.write_text(doc)
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0
        assert out.splitlines() == [
            "discrete function on (1/5)Z, f = 4/5",
            "points: 0, 1/5, 2/5, 3/5, 4/5, 1",
            "values: 0, 1/4, 1/2, 3/4, 1, 0"]

    def test_faces_text_tags_the_maximal_faces(self, capsys):
        import groupcut as gc

        code, out, _ = run(capsys, "faces", "gmic", "--f", "4/5")
        assert code == 0
        faces = gc.generate_additive_faces(gc.gmic(f="4/5"))
        lines = out.splitlines()
        assert len(lines) == len(faces.faces)
        assert [line.endswith(" (maximal)") for line in lines] == list(faces.maximal)
        assert "<Face dim 2 I'=[0, 4/5] J'=[0, 4/5] K'=[0, 4/5]> (maximal)" \
            in lines
        code, out, _ = run(capsys, "faces", "gmic", "--f", "4/5", "--maximal")
        assert code == 0 and "(maximal)" not in out

    def test_interpolate_refuses_a_piecewise_function(self, capsys):
        code, out, err = run(capsys, "interpolate", "gmic")
        assert code == 2 and not out
        assert err == "error: interpolate expects a discrete function\n"

    def test_param_without_a_value_is_refused(self, capsys):
        code, out, err = run(capsys, "eval", "gmic", "--param", "f",
                             "--x", "1/2")
        assert code == 2 and not out
        assert err == "error: --param needs name=p/q, got 'f'\n"

    def test_merit(self, capsys):
        code, out, _ = run(capsys, "merit", "gmic", "--f", "4/5")
        assert code == 0 and out.strip() == "17/25"

    def test_faces_json(self, capsys):
        code, out, _ = run(capsys, "faces", "gmic", "--f", "4/5",
                           "--maximal", "--json")
        assert code == 0
        data = json.loads(out)
        assert any(f["dimension"] == 2 for f in data)

    def test_faces_of_a_non_subadditive_function_are_refused(self, capsys):
        code, out, err = run(capsys, "faces", "equiv5_random_discont_1")
        assert code == 2 and out == ""
        assert err == ("error: slack -2/5 < 0 at (0, 2/5) (sides (1, -1, 0)); "
                       "additive-face enumeration requires subadditivity\n")

    def test_restrict_and_interpolate_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "restrict", "gmic", "--f", "4/5")
        assert code == 0
        data = json.loads(out)
        assert data["values"] == ["0", "1/4", "1/2", "3/4", "1", "0"]
        path = tmp_path / "discrete.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "interpolate", str(path))
        assert code == 0
        assert json.loads(out2)["kind"] == "piecewise"

    def test_transform(self, capsys):
        code, out, _ = run(capsys, "transform", "gmic", "--f", "4/5",
                           "--homomorphism", "2")
        assert code == 0
        assert json.loads(out)["f"] == "2/5"

    def test_transform_bad_automorphism(self, capsys):
        code, _, err = run(capsys, "transform", "gmic", "--automorphism", "2")
        assert code == 2

    @pytest.mark.parametrize("verb", [
        "covered", "faces", "merit", "restrict --oversampling 2",
        "transform --homomorphism 2"])
    def test_piecewise_verbs_refuse_a_discrete_file(self, capsys, tmp_path,
                                                    verb):
        # an error (exit 2), not a fault inside the verb (exit 3)
        _, out, _ = run(capsys, "restrict", "gmic", "--oversampling", "2")
        path = tmp_path / "discrete.json"
        path.write_text(out)
        name, *options = verb.split()
        code, out, err = run(capsys, name, str(path), *options)
        assert code == 2 and not out
        assert err.startswith("error: ") and "internal error" not in err

    def test_random_deterministic(self, capsys):
        code, out1, _ = run(capsys, "random", "--seed", "5")
        code2, out2, _ = run(capsys, "random", "--seed", "5")
        assert code == code2 == 0 and out1 == out2

    def test_json_round_trip_through_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "show", "gj_2_slope", "--json")
        assert code == 0
        path = tmp_path / "gj.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "show", str(path), "--json")
        assert code == 0 and json.loads(out) == json.loads(out2)

    def test_param_passing(self, capsys):
        code, out, _ = run(capsys, "eval", "gj_2_slope", "--param", "f=3/5",
                           "--param", "lam=1/3", "--x", "3/5")
        assert code == 0 and out.strip() == "1"

    def test_unknown_param_is_refused(self, capsys):
        code, out, err = run(capsys, "extremality", "gmic",
                             "--param", "bogus=1/2")
        assert code == 2 and not out
        assert "bogus" in err and "accepted: f, conditioncheck" in err
        # accepted by the builders without being listed as a parameter
        code, _, _ = run(capsys, "extremality", "gmic",
                         "--param", "conditioncheck=true")
        assert code == 0

    def test_param_and_f_are_refused_on_a_function_file(self, capsys,
                                                        tmp_path):
        # exit 2 (error), where they were ignored and the verdict printed
        path = tmp_path / "gmic.json"
        code, out, _ = run(capsys, "show", "gmic", "--json")
        path.write_text(out)
        for extra in (["--f", "1/2"], ["--param", "f=1/2"],
                      ["--param", "f=1/2", "--f", "1/2"]):
            code, out, err = run(capsys, "minimality", str(path), *extra)
            assert code == 2 and not out
            assert "are for compendium names" in err
        code, out, _ = run(capsys, "minimality", str(path))
        assert code == 0 and "Thus pi is minimal." in out

    def test_f_and_param_f_together_are_refused(self, capsys):
        # --f silently replaced --param f=
        code, out, err = run(capsys, "eval", "gj_2_slope", "--param", "f=3/5",
                             "--f", "4/5", "--x", "3/5")
        assert code == 2 and not out
        assert "--f" in err and "--param f=" in err

    def test_repeated_param_is_refused(self, capsys):
        # the later --param f= silently replaced the earlier one
        code, out, err = run(capsys, "eval", "gmic", "--param", "f=1/2",
                             "--param", "f=1/3", "--x", "1/2")
        assert code == 2 and not out
        assert "--param f= is given twice" in err

    def test_decimal_param_gets_the_rational_literal_message(self, capsys):
        # the message was int()'s "invalid literal for int() with base 10"
        code, out, err = run(capsys, "eval", "gmic", "--param", "f=0.5",
                             "--x", "1/2")
        assert code == 2 and not out
        _, _, want = run(capsys, "eval", "gmic", "--f", "0.5", "--x", "1/2")
        assert err == want == "error: not a rational literal (use p or p/q): '0.5'\n"

    def test_function_file_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run(capsys, "extremality", str(path))
        assert code == 2 and not out
        assert "JSON object" in err

    def test_a_function_file_of_the_wrong_shape_is_an_error(self, capsys,
                                                            tmp_path):
        # exit 2 (error), neither 0 nor 1 (a verdict), and no traceback
        doc = {"kind": "piecewise", "f": "4/5",
               "breakpoints": ["0", "4/5", "1"], "limits": True}
        for name, bad in (("bool", doc), ("missing", {
                k: v for k, v in doc.items() if k != "limits"})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(bad))
            code, out, err = run(capsys, "extremality", str(path))
            assert code == 2 and not out
            assert err.startswith("error: ") and "'limits'" in err

    def test_an_unexpected_exception_is_no_verdict(self, capsys, monkeypatch):
        # a fault inside a verb exits 3, never 0 or 1 (the verdicts)
        from groupcut import cli

        def broken(args):
            raise TypeError("unexpected")

        monkeypatch.setitem(cli._COMMANDS, "extremality", broken)
        code, out, err = run(capsys, "extremality", "gmic")
        assert code == 3 and not out
        assert err == "internal error: TypeError: unexpected\n"

    def test_json_numbers_in_a_function_file_are_refused(self, capsys,
                                                         tmp_path):
        # exit 2 (error), not 1 (not minimal)
        doc = {"kind": "piecewise", "f": "1/2", "breakpoints": ["0", "1"],
               "limits": [["0", "0", "0"], ["0", "0", "0"]]}
        for key, number in (("breakpoints", [0, 1]), ("f", 0.5)):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({**doc, key: number}))
            code, out, err = run(capsys, "minimality", str(path))
            assert code == 2 and not out
            assert "not a rational literal" in err


class TestPlotVerb:
    def test_plot_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "gmic.svg"
        code, out, _ = run(capsys, "plot", "gmic", "--f", "4/5",
                           "--kind", "additive", "--out", str(out_file))
        assert code == 0 and out_file.exists()
        assert out_file.read_text().startswith('<?xml')

    def test_plot_env_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPCUT_OUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, "plot", "gmic", "--kind", "function")
        assert code == 0
        assert list(tmp_path.glob("*.svg"))

    def test_covered_frames_written(self, capsys, tmp_path):
        frames_dir = tmp_path / "frames"
        code, out, _ = run(capsys, "covered", "hildebrand_discont_3_slope_1",
                           "--frames", str(frames_dir))
        assert code == 0
        written = sorted(frames_dir.glob("step_*.svg"))
        assert len(written) >= 3
        assert written[0].read_text().startswith('<?xml')

    def test_extremality_on_discrete_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "restrict", "gmic", "--f", "4/5")
        path = tmp_path / "hr.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "extremality", str(path))
        assert code == 0
        assert "Solution space has dimension 0" in out2
        assert "Thus the function is extreme." in out2

    def test_minimality_on_discrete_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "restrict", "gmic", "--f", "4/5")
        path = tmp_path / "hr.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "minimality", str(path))
        assert code == 0 and "Thus pi is minimal." in out2

    def test_plot_perturbation_on_non_extreme_function(self, capsys, tmp_path):
        import groupcut as gc
        from fractions import Fraction as F
        from groupcut.jsonio import save_function

        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        src = tmp_path / "fn.json"
        save_function(fn, src)
        out_file = tmp_path / "pert.svg"
        code, out, _ = run(capsys, "plot", str(src), "--kind", "perturbation",
                           "--out", str(out_file))
        assert code == 0 and out_file.exists()

    def test_plot_perturbation_errors_on_extreme_function(self, capsys):
        code, _, err = run(capsys, "plot", "gmic", "--kind", "perturbation",
                           "--out", "/tmp/nope.svg")
        assert code == 2 and "no perturbation" in err

    def test_plot_a_discrete_file(self, capsys, tmp_path):
        _, doc, _ = run(capsys, "restrict", "gmic", "--f", "4/5")
        src = tmp_path / "discrete.json"
        src.write_text(doc)
        out_file = tmp_path / "discrete.svg"
        code, out, _ = run(capsys, "plot", str(src), "--out", str(out_file))
        assert code == 0 and out == f"wrote {out_file}\n"
        assert out_file.read_text().startswith('<?xml')

    def test_plot_covered_kind(self, capsys, tmp_path):
        out_file = tmp_path / "covered.svg"
        code, _, _ = run(capsys, "plot", "drlm_backward_3_slope",
                         "--kind", "covered", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith('<?xml')

    def test_plot_cones_kind(self, capsys, tmp_path):
        out_file = tmp_path / "cones.svg"
        code, _, _ = run(capsys, "plot", "equiv5_random_discont_1",
                         "--kind", "cones", "--out", str(out_file))
        assert code == 0 and out_file.exists()

    def test_plot_size_below_one_refused(self, capsys, tmp_path):
        out_file = tmp_path / "gmic.svg"
        for size in ("0", "-5"):
            code, out, err = run(capsys, "plot", "gmic", "--size", size,
                                 "--out", str(out_file))
            assert code == 2 and not out and "size" in err
        assert not out_file.exists()
