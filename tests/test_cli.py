import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cfcalc.calculus
import cfcalc.cli
import cfcalc.complexes
import cfcalc.indices
from cfcalc import (
    ConstructibleFunction, build_model, emit_scene, euler_integral,
    hyperfunction_index, list_models, parse_scene,
)
from cfcalc.cli import load_scene, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_simplex_scene(tmp_path, n: int, copies: int = 0, real: int = 1) -> str:
    """A scene file whose complex is one simplex on n vertices, with copies
    more subcomplexes that each list that simplex in reverse order; its
    real form M is its face on the first real vertices, by default v0."""
    vertices = [f"v{i}" for i in range(n)]
    doc = {
        "name": f"simplex{n}", "complex": {"maximal_simplices": [vertices]},
        "subcomplexes": {
            "M": [vertices[:real]],
            **{f"S{i}": [vertices[::-1]] for i in range(copies)},
        },
        "real_form": {"M": "M", "complex_dim": 1},
        "strata": [], "probes": [], "expect": {},
    }
    path = tmp_path / f"simplex{n}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "node.json"
    path.write_text(emit_scene(build_model("node_curve")), encoding="utf-8")
    return str(path)


class TestLoadScene:
    def test_model_spec_with_params(self):
        scene = load_scene("kashiwara_point(d0=1, d1=2)")
        assert scene.name == "kashiwara_point(d0=1, d1=2, k=3)"

    def test_bare_model_name(self):
        assert load_scene("pair_C_R").name == "pair_C_R(k=3, m=1)"

    def test_file_wins_over_model_lookup(self, scene_file):
        scene = load_scene(scene_file)
        assert scene.name == "node_curve(k=3, m=1)"


class TestExitCodes:
    def test_verify_model_passes(self, capsys):
        code, out, err = run(capsys, "verify", "pair_C_R")
        assert code == 0 and err == ""
        assert "result: PASS" in out

    def test_verify_scene_file_passes(self, capsys, scene_file):
        code, out, _ = run(capsys, "verify", scene_file)
        assert code == 0
        assert "result: PASS" in out

    def test_verify_corrupted_eu_fails(self, capsys, corrupted_eu_path):
        code, out, _ = run(capsys, "verify", str(corrupted_eu_path))
        assert code == 1
        assert "result: FAIL" in out
        assert "value[parity_index]" in out
        assert "value[hyperfunction_index]" in out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": ', encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: invalid scene JSON")

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: scene file is not UTF-8 text")
        assert err.count("\n") == 1

    def test_deeply_nested_file(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err == "error: invalid scene JSON: nested too deeply\n"

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "check", "perverse_sheaf")
        assert code == 2
        assert "available" in err

    def test_unknown_function(self, capsys):
        code, _, err = run(capsys, "integrate", "pair_C_R", "--function", "magic")
        assert code == 2
        assert "unknown function" in err

    def test_indicator_of_missing_subcomplex(self, capsys):
        code, _, err = run(capsys, "dual", "pair_C_R", "--function", "indicator:NOPE")
        assert code == 2
        assert "no subcomplex named" in err

    @pytest.mark.parametrize(
        "command, model, at, message",
        [
            ("hyperdim", "pair_C_R", "b0,b1", "b0 b1 is not a simplex of the real form 'real_line'"),
            ("parity", "pair_C_R", "b0,b1", "b0 b1 is not a simplex of the real form 'real_line'"),
            ("hyperdim", "antipodal_cover", "b0", "b0 is not a simplex of the real form 'fixed_locus'"),
            ("index", "pair_C_R", "zz", "zz is not a simplex of the ambient complex"),
            ("dual", "pair_C_R", "zz", "zz is not a simplex of the ambient complex"),
            ("index", "pair_C_R", ",", "--at needs at least one vertex name"),
        ],
    )
    def test_at_names_the_complex_the_function_lives_on(self, capsys, command, model, at, message):
        code, out, err = run(capsys, command, model, "--at", at)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_parameter_spec(self, capsys):
        for spec, message in (
            ("pair_C_R(k=x)", "parameter 'k' needs an integer, got 'x'"),
            ("pair_C_R(m)", "cannot parse parameter 'm' in model spec 'pair_C_R(m)'"),
        ):
            assert run(capsys, "check", spec) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["３", "٣", "1_0", "+4", "--4", "4.0", "0x4", "4 4"])
    def test_parameter_is_ascii_digits_with_an_optional_minus(self, capsys, value):
        # as in scene JSON; Python's int() would read the first four
        message = f"error: parameter 'm' needs an integer, got {value!r}\n"
        spec = f"pair_C_R(m={value})"
        assert run(capsys, "check", spec) == (2, "", message)
        assert run(capsys, "models", "emit", "pair_C_R", f"m={value}") == (2, "", message)

    @pytest.mark.parametrize(
        "spec, emit",
        [
            ("pair_C_R(m=\u30003)", ["pair_C_R", "m=\u30003"]),
            ("pair_C_R(\u3000m=3)", ["pair_C_R", "\u3000m=3"]),
            ("pair_C_R(m=\x0b2)", ["pair_C_R", "m=\x0b2"]),
            ("pair_C_R(m=2)\n", ["pair_C_R\n", "m=2"]),
            ("pair_\uff23_R(m=2)", ["pair_\uff23_R", "m=2"]),
        ],
        ids=["ideographic_space_in_value", "ideographic_space_in_key", "vertical_tab",
             "trailing_newline", "full_width_name"],
    )
    def test_spec_takes_only_json_whitespace_and_an_ascii_name(self, capsys, spec, emit):
        # str.strip, and re's $ and \w, would let the first four through
        for argv in (("check", spec), ("models", "emit", *emit)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), argv

    def test_spec_allows_json_whitespace_around_keys_and_values(self, capsys):
        assert run(capsys, "check", "pair_C_R( m = 2 )")[0] == 0
        assert run(capsys, "check", "pair_C_R(\tm=2\r\n)")[0] == 0
        assert run(capsys, "models", "emit", "pair_C_R", " m = 2 ")[0] == 0

    def test_parameter_given_twice_in_spec(self, capsys):
        code, out, err = run(capsys, "check", "node_curve(k=3,k=4)")
        assert code == 2 and out == ""
        assert err == "error: parameter 'k' given twice in model spec 'node_curve(k=3,k=4)'\n"

    def test_parameter_given_twice_to_emit(self, capsys):
        code, out, err = run(capsys, "models", "emit", "node_curve", "k=3", "k=4")
        assert code == 2 and out == ""
        assert err == "error: parameter 'k' given twice in models emit node_curve\n"

    def test_fourteen_vertex_simplex_checks_quickly(self, capsys, tmp_path):
        path = one_simplex_scene(tmp_path, 14)
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", path)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "complex: 14 vertices, 16383 simplices, dimension 13" in out

    def test_twenty_vertex_simplex_refused(self, capsys, tmp_path):
        path = one_simplex_scene(tmp_path, 20)
        start = time.perf_counter()
        code, out, err = run(capsys, "check", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: complex.maximal_simplices: face closure may hold up to 1048575 "
            "simplices, more than the limit of 1000000\n"
        )

    def test_fifteen_vertex_simplex_verifies_and_dualizes_over_its_facet(self, capsys, tmp_path):
        # 32,767 faces fit the closure budget, the one bound on a scene's
        # size; dual takes a pass per vertex over the simplices holding it
        path = one_simplex_scene(tmp_path, 15, real=14)
        start = time.process_time()
        code, out, err = run(capsys, "verify", path)
        assert time.process_time() - start < 1.5
        assert (code, err) == (0, "") and out.startswith("scene: simplex15\n")
        start = time.process_time()
        code, out, err = run(capsys, "dual", path, "--function", "indicator:M")
        assert time.process_time() - start < 1.5
        # the facet's closed 13-simplex: (-1)^13 at its top, 0 below
        facet = " ".join(sorted(f"v{i}" for i in range(14)))
        assert (code, out, err) == (0, f"{facet}\t-1\n", "")

    def test_many_probes_are_checked_in_linear_time(self, capsys, tmp_path):
        # a path on 10,889 vertices: every one of its 21,777 simplices is a
        # probe but the last, which repeats the first
        names = [f"v{i}" for i in range(10_889)]
        edges = [sorted(pair) for pair in zip(names, names[1:])]
        simplices = [[v] for v in names] + edges
        doc = {
            "name": "probes", "complex": {"maximal_simplices": edges},
            "subcomplexes": {"M": edges}, "real_form": {"M": "M", "complex_dim": 1},
            "strata": [], "probes": simplices[:-1] + simplices[:1], "expect": {},
        }
        path = tmp_path / "probes.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.process_time()
        code, out, err = run(capsys, "check", str(path))
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: probes[21776]: duplicate probe v0\n"

    def test_scene_closures_are_bounded_together(self, capsys, tmp_path, monkeypatch):
        # each entry alone fits the budget; twenty of them do not, and the
        # scene is refused before any face is listed
        def no_closure(gens):
            raise AssertionError("a face closure was listed")

        monkeypatch.setattr(cfcalc.complexes, "_face_closure", no_closure)
        path = one_simplex_scene(tmp_path, 18, copies=20)
        assert Path(path).stat().st_size < 3000
        start = time.process_time()
        code, out, err = run(capsys, "check", path)
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: subcomplexes: the complex and its subcomplexes together may hold up to "
            "5505004 simplices, more than the limit of 1000000\n"
        )

    def test_scene_file_past_the_size_bound_refused_before_parsing(
        self, capsys, tmp_path, monkeypatch
    ):
        text = emit_scene(build_model("pair_C_R"))
        path = tmp_path / "pair.json"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cfcalc.cli, "MAX_SCENE_CHARS", len(text))
        assert run(capsys, "check", str(path))[0] == 0  # a file at the bound is read

        def no_parse(text):
            raise AssertionError("the scene was parsed")

        monkeypatch.setattr(cfcalc.cli, "MAX_SCENE_CHARS", len(text) - 1)
        monkeypatch.setattr(cfcalc.cli, "parse_scene", no_parse)
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: scene file holds more than the limit of {len(text) - 1} characters\n"

    def test_wide_scene_file_weighed_as_held_and_refused_before_parsing(
        self, capsys, tmp_path, monkeypatch
    ):
        # one character past the Basic Multilingual Plane makes Python hold
        # the whole text at four bytes a character, and the bound weighs it
        # so: a file of fewer characters than the bound is refused
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        doc["name"] = "pair \U0001F600"
        text = json.dumps(doc, ensure_ascii=False)
        path = tmp_path / "wide.json"
        path.write_text(text, encoding="utf-8")
        held = sys.getsizeof(text) - sys.getsizeof("")
        assert held > 4 * len(text)
        monkeypatch.setattr(cfcalc.cli, "MAX_SCENE_CHARS", held)
        assert run(capsys, "check", str(path))[0] == 0  # a file at the bound is read

        def no_parse(text):
            raise AssertionError("the scene was parsed")

        monkeypatch.setattr(cfcalc.cli, "parse_scene", no_parse)
        for limit in (held - 1, 2 * len(text), len(text)):
            monkeypatch.setattr(cfcalc.cli, "MAX_SCENE_CHARS", limit)
            code, out, err = run(capsys, "check", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: scene file takes more than the limit of {limit} bytes as text\n"

    def test_container_dense_scene_file_refused_before_parsing(
        self, capsys, tmp_path, monkeypatch
    ):
        # the JSON reader builds every container before the scene is read,
        # so a text past the bracket bound is refused before it: the
        # MAX_SCENE_CHARS-character file of 10^7 empty objects, scaled to
        # one object past the bound, and at small bounds a text at and past
        # its own bound
        bound = cfcalc.scenes.MAX_SCENE_BRACKETS
        dense = tmp_path / "dense.json"
        dense.write_text('{"x": [' + ",".join(["{}"] * (bound - 1)) + "]}", encoding="utf-8")
        small = tmp_path / "small.json"
        small.write_text('{"x": [{}, {}]}', encoding="utf-8")
        monkeypatch.setattr(cfcalc.scenes, "MAX_SCENE_BRACKETS", 4)
        assert run(capsys, "check", str(small)) == (2, "", "error: scene: missing key 'complex'\n")

        def no_parse(text):
            raise AssertionError("the scene was parsed")

        monkeypatch.setattr(cfcalc.scenes.json, "loads", no_parse)
        for path, limit in ((small, 3), (dense, bound)):
            monkeypatch.setattr(cfcalc.scenes, "MAX_SCENE_BRACKETS", limit)
            start = time.process_time()
            code, out, err = run(capsys, "check", str(path))
            assert time.process_time() - start < 1.0
            assert (code, out) == (2, "")
            assert err == (
                f"error: scene text holds {limit + 1} '[' and '{{', "
                f"more than the limit of {limit}\n"
            )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_scene_file_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cfcalc.cli, "MAX_SCENE_CHARS", 1000)
        start = time.process_time()
        code, out, err = run(capsys, "check", "/dev/zero")
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: scene file holds more than the limit of 1000 characters\n"

    def test_disjoint_simplices_as_their_own_real_form_verify_quickly(self, capsys, tmp_path):
        # the worst input both budgets admit is 32,000 disjoint 4-simplices
        # whose real form is the whole complex (3.9 MB); this is the same
        # file at 1,000 simplices, where verify takes about 0.2 s of CPU
        simplices = [[f"v{i}_{j}" for j in range(5)] for i in range(1000)]
        doc = {
            "name": "disjoint", "complex": {"maximal_simplices": simplices},
            "subcomplexes": {"all": simplices, "one": simplices[:1]},
            "real_form": {"M": "all", "complex_dim": 2},
            "strata": [{"name": "one", "support": "one", "codim": 0, "multiplicity": 1}],
            "probes": [], "expect": {},
        }
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.process_time()
        code, out, err = run(capsys, "verify", str(path))
        assert time.process_time() - start < 1.0
        assert (code, err) == (0, "")
        assert out.endswith("\nresult: PASS (5 pass, 0 fail, 6 not applicable)\n")

    def test_strata_on_one_support_refused_before_their_work(self, capsys, tmp_path):
        # entries that repeat the complex's list cost the budget nothing, so a
        # second stratum on the same simplices is refused before its eu is built
        vertices = [f"v{i}" for i in range(13)]
        doc = {
            "name": "repeated", "complex": {"maximal_simplices": [vertices]},
            "subcomplexes": {"M": [], **{f"S{i}": [vertices] for i in range(20)}},
            "real_form": {"M": "M", "complex_dim": 1},
            "strata": [
                {"name": f"s{i}", "support": f"S{i}", "codim": 0, "multiplicity": 1}
                for i in range(20)
            ],
            "probes": [], "expect": {},
        }
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.process_time()
        code, out, err = run(capsys, "check", str(path))
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: strata[1].support: stratum 's0' has the same support\n"

    def test_huge_model_parameter_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "node_curve(k=99999999999999999999)")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: parameter 'k' must be at most 36\n"

    @pytest.mark.parametrize(
        "spec,err",
        [
            (
                "node_curve(m=4611686018427387904)",
                "parameter 'm' must be at most 2305843009213693952",
            ),
            (
                "kashiwara_point(d0=4611686018427387904, d1=4611686018427387904)",
                "parameter 'd0' must be at most 2305843009213693952",
            ),
            (
                "pair_C_R(m=4611686018427387905)",
                "parameter 'm' must be at most 4611686018427387904",
            ),
        ],
        ids=["node_curve_m", "kashiwara_point_d0", "pair_C_R_m"],
    )
    def test_multiplicity_over_its_maximum_refused(self, capsys, spec, err):
        code, out, stderr = run(capsys, "verify", spec)
        assert code == 2 and out == ""
        assert stderr == f"error: {err}\n"

    @pytest.mark.parametrize(
        "spec",
        [
            "node_curve(m=2305843009213693952)",
            "kashiwara_point(d0=2305843009213693952, d1=2305843009213693952)",
        ],
        ids=["node_curve", "kashiwara_point"],
    )
    def test_multiplicity_at_its_maximum_verifies(self, capsys, spec):
        code, _, err = run(capsys, "verify", spec)
        assert code == 0 and err == ""

    def test_kernel_fault_in_a_model_build_exits_3(self, capsys, monkeypatch):
        # an internal function constructor that drops vertices gives the
        # built-in scene an eu that is not 1 on them, which is the program's
        # fault, not the user's
        make = ConstructibleFunction._of

        def drops_vertices(ambient, items):
            return make(ambient, tuple([(s, v) for s, v in items if len(s) > 1]))

        monkeypatch.setattr(ConstructibleFunction, "_of", drops_vertices)
        code, out, err = run(capsys, "verify", "pair_C_R(m=2)")
        assert code == 3 and out == ""
        assert err == (
            "internal error: RuntimeError: built-in model 'pair_C_R' did not build: "
            "strata[0]: stratum 'ambient' is flagged smooth, so eu must be identically 1 on it\n"
        )

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(scene, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cfcalc.cli, "_cmd_check", broken)
        code, out, err = run(capsys, "check", "pair_C_R")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_kernel_fault_in_verify_exits_3(self, capsys, monkeypatch):
        # a shriek_restrict that leaves the function on the parent breaks
        # the kernel, not the scene
        def keep_parent(closed, phi):
            return phi

        for module in (cfcalc.calculus, cfcalc.indices):
            monkeypatch.setattr(module, "shriek_restrict", keep_parent)
        code, out, err = run(capsys, "verify", "pair_C_R")
        assert code == 3 and out == ""
        assert err == (
            "internal error: ModelError: function does not live on the source of the map\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["verify"],
            ["verify", "pair_C_R", "--seed", "x"],
            ["verify", "pair_C_R", "--bogus"],
        ],
        ids=["no_command", "unknown_command", "no_scene", "bad_seed", "unknown_option"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        captured = capsys.readouterr()
        assert exited.value.code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cfcalc")

    def test_integer_literal_over_digit_limit(self, capsys, tmp_path):
        bad = tmp_path / "long.json"
        bad.write_text('{"name": ' + "9" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err == "error: invalid scene JSON: an integer literal is too long\n"

    @pytest.mark.parametrize(
        "argv", [("verify",), ("hyperdim",), ("index", "--json")], ids=lambda a: "-".join(a)
    )
    def test_scene_integer_over_bound(self, capsys, tmp_path, argv):
        doc = json.loads(emit_scene(build_model("node_curve")))
        doc["strata"][0]["multiplicity"] = 10**4299 - 1
        doc["strata"][0]["eu"]["overrides"][0]["value"] = 99
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err == (
            "error: strata[0].multiplicity: must be at most 2^62 = 4611686018427387904 "
            "in absolute value\n"
        )

    @pytest.mark.parametrize(
        "field, path",
        [("name", "name"), ("vertex", "complex.maximal_simplices[0][0]")],
    )
    def test_lone_surrogate_refused(self, capsys, tmp_path, field, path):
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        if field == "name":
            doc["name"] = "bad\ud800name"
        else:
            doc["complex"]["maximal_simplices"][0][0] = "b\udc00"
        scene = tmp_path / "surrogate.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")  # escaped as \ud800
        for command in ("check", "verify"):
            code, out, err = run(capsys, command, str(scene))
            assert code == 2 and out == ""
            assert err == f"error: {path}: holds a lone surrogate escape, which is not text\n"

    @pytest.mark.parametrize(
        "name, shown", [("x\ny", r"'x\ny'"), ("a b", "'a b'")], ids=["newline", "space"]
    )
    def test_vertex_name_holding_a_separator_refused(self, capsys, tmp_path, name, shown):
        # --at splits on whitespace and commas, and a row prints a simplex
        # as its names joined by spaces, so no vertex name may hold either
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        tops = doc["complex"]["maximal_simplices"]
        tops.append([name])
        doc["probes"].append([name])
        scene = tmp_path / "separator.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        path = f"complex.maximal_simplices[{len(tops) - 1}][0]"
        for command in ("check", "verify"):
            code, out, err = run(capsys, command, str(scene))
            assert code == 2 and out == ""
            assert err == f"error: {path}: vertex name {shown} holds whitespace or a comma\n"

    def test_escaped_surrogate_pair_accepted(self, capsys, tmp_path):
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        doc["name"] = "smile \ud83d\ude00"
        scene = tmp_path / "pair.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "check", str(scene))
        assert code == 0 and out.startswith("scene: smile \U0001f600\n")
        out.encode("utf-8")
        text = emit_scene(parse_scene(scene.read_text(encoding="utf-8")))
        assert emit_scene(parse_scene(text)) == text

    def test_scene_integer_bound_is_inclusive(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", f"pair_C_R(m={2**62})")
        assert code == 0 and "result: PASS" in out
        # a model spec over the bound is refused as a parameter, so go through a file
        doc = json.loads(emit_scene(build_model("pair_C_R", m=2**62)))
        doc["strata"][0]["multiplicity"] = 2**62 + 1
        scene = tmp_path / "pair.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "hyperdim", str(scene))
        assert code == 2 and out == ""
        assert err.startswith("error: strata[0].multiplicity: must be at most 2^62")


def _drop_probes(doc: dict) -> None:
    doc["real_form"]["M"], doc["probes"], doc["expect"] = "origin", [], {}


def _stratum_on_one_triangle(doc: dict) -> None:
    doc["subcomplexes"]["piece"] = [["b0", "b1", "c"]]
    doc["strata"][0]["support"] = "piece"


# A model's emitted scene, one edit, and the line `check` refuses it with.
INVALID_SCENES = {
    "no_maximal_simplices": (
        "pair_C_R", lambda d: d["complex"].update(maximal_simplices=[]),
        "complex.maximal_simplices: needs at least one simplex",
    ),
    "complex_not_an_object": (
        "pair_C_R", lambda d: d.update(complex=[]), "complex: expected an object",
    ),
    "complex_dim_zero": (
        "pair_C_R", lambda d: d["real_form"].update(complex_dim=0),
        "real_form.complex_dim: must be a positive integer",
    ),
    "override_off_the_support": (
        "node_curve",
        lambda d: d["strata"][0]["eu"]["overrides"].append({"at": ["b1.b1"], "value": 2}),
        "strata[0].eu.overrides[1].at: b1.b1 is not a simplex of the support 'node'",
    ),
    "override_twice": (
        "node_curve",
        lambda d: d["strata"][0]["eu"]["overrides"].append({"at": ["c.c"], "value": 2}),
        "strata[0].eu.overrides[1].at: duplicate entry for c.c",
    ),
    "expected_value_twice": (
        "pair_C_R", lambda d: d["expect"]["parity_index"].append(d["expect"]["parity_index"][0]),
        "expect.parity_index[3].at: duplicate entry for b0 c",
    ),
    "conjugation_of_an_unknown_vertex": (
        "pair_C_R", lambda d: d["real_form"]["conjugation"].update(x="b1"),
        "real_form.conjugation: vertex map mentions non-vertices ['x']",
    ),
    "conjugation_to_an_unknown_vertex": (
        "pair_C_R", lambda d: d["real_form"]["conjugation"].update(b1="x"),
        "real_form.conjugation: vertex map hits non-vertices of the target: ['x']",
    ),
    "empty_support": (
        "antipodal_cover",
        lambda d: d["strata"].append(
            {"name": "fixed", "support": "fixed_locus", "codim": 1, "multiplicity": 1}
        ),
        "strata[1].support: subcomplex 'fixed_locus' is empty",
    ),
    "eu_not_invariant": (
        "pair_C_R",
        lambda d: d["strata"][0].update(
            smooth=False, eu={"default": 1, "overrides": [{"at": ["b1", "c"], "value": 2}]}
        ),
        "strata[0].eu: eu is not conjugation invariant at b1 c",
    ),
    "support_the_conjugation_moves": (
        "pair_C_R", _stratum_on_one_triangle,
        "strata[0].support: conjugation moves b0 b1 outside the support",
    ),
    "stratum_name_twice": (
        "kashiwara_point", lambda d: d["strata"][1].update(name="ambient"),
        "strata: stratum names must be distinct",
    ),
    "fixed_set_not_the_real_form": (
        "pair_C_R", _drop_probes,
        "real_form: fixed point set of the conjugation is not the real form",
    ),
    "check_declared_twice": (
        "pair_C_R", lambda d: d["expect"]["checks"].append("base_change"),
        "expect.checks[7]: duplicate check 'base_change'",
    ),
    "smooth_not_a_bool": (
        "pair_C_R", lambda d: d["strata"][0].update(smooth=1),
        "strata[0].smooth: expected true or false",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_SCENES))
def test_invalid_scene_names_its_path(capsys, tmp_path, case):
    model, edit, message = INVALID_SCENES[case]
    doc = json.loads(emit_scene(build_model(model)))
    edit(doc)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "check", str(path)) == (2, "", f"error: {message}\n")


# every output form of each scene command: (command, its flag sets)
OUTPUT_FORMS = [
    ("check", [[], ["--json"]]),
    *[(c, [[], ["--all"], ["--json"], ["--all", "--json"]])
      for c in ("index", "hyperdim", "parity", "dual")],
    ("integrate", [[], ["--json"]]),
    ("verify", [[], ["--json"]]),
]


def printed_tuples() -> list[str]:
    """The commands whose stdout or stderr holds a tuple's repr, "('": each
    command in each output form on the five models at k = 3, models emit,
    check on every scene of INVALID_SCENES and verify on the crafted
    golden scenes, which hold failed rows.  A simplex reaches the output as
    the text helper writes it, never as str() of a plain tuple."""
    argvs = [["models", "emit", info.name, "k=3"] for info in list_models()]
    argvs += [
        [command, f"{info.name}(k=3)", *flags]
        for info in list_models() for command, forms in OUTPUT_FORMS for flags in forms
    ]
    golden = Path(__file__).resolve().parent / "golden"
    argvs += [["verify", str(path)] for path in sorted(golden.glob("scene_*.json"))]
    with tempfile.TemporaryDirectory() as tmp:
        for case, (model, edit, _) in sorted(INVALID_SCENES.items()):
            doc = json.loads(emit_scene(build_model(model)))
            edit(doc)
            path = Path(tmp) / f"{case}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argvs.append(["check", str(path)])
        found = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(argv)
            if "('" in out.getvalue() + err.getvalue():
                found.append(" ".join(argv))
    return found


def test_no_simplex_is_printed_as_a_tuple():
    assert printed_tuples() == []


class TestValues:
    def test_all_reads_no_value_per_simplex(self, capsys, monkeypatch):
        # --all lists every simplex, so each row must not pay value()'s checks
        calls = []
        value = ConstructibleFunction.value
        monkeypatch.setattr(
            ConstructibleFunction, "value", lambda phi, s: calls.append(s) or value(phi, s)
        )
        for argv in (["hyperdim", "node_curve", "--all", "--json"], ["dual", "node_curve", "--all"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out
        assert calls == []

    def test_hyperdim_at_origin(self, capsys):
        code, out, _ = run(capsys, "hyperdim", "kashiwara_point", "--at", "c")
        assert code == 0
        assert out == "5\n"

    def test_integrate_solution_index(self, capsys):
        code, out, _ = run(capsys, "integrate", "kashiwara_point")
        assert code == 0
        assert out == "1\n"

    def test_integrate_hyperfunction_index(self, capsys):
        # integrate is the one command that takes the hyperfunction index
        scene = build_model("kashiwara_point")
        expected = euler_integral(hyperfunction_index(scene.pair, scene.cycle))
        argv = ("kashiwara_point", "--function", "hyperfunction_index")
        assert run(capsys, "integrate", *argv) == (0, f"{expected}\n", "")
        assert run(capsys, "dual", *argv) == (2, "", (
            "error: unknown function 'hyperfunction_index'; "
            "use solution_index or indicator:NAME\n"
        ))

    def test_integrate_indicator_of_node(self, capsys):
        code, out, _ = run(capsys, "integrate", "node_curve", "--function", "indicator:node")
        assert code == 0
        assert out == "1\n"  # two disks glued at one point

    def test_index_table(self, capsys):
        code, out, _ = run(capsys, "index", "kashiwara_point")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 25  # every simplex of the hexagonal disk
        table = dict(line.split("\t") for line in lines)
        assert table["c"] == "1"
        assert table["b0 b1 c"] == "3"

    def test_parity_at_probes(self, capsys):
        code, out, _ = run(capsys, "parity", "node_curve", "--at", "c.c")
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, "parity", "node_curve", "--at", "b0.c,c.c")
        assert (code, out) == (0, "1\n")

    def test_hyperdim_table_smooth(self, capsys):
        code, out, _ = run(capsys, "hyperdim", "pair_C_R")
        assert code == 0
        head, _, tail = out.partition("hyperfunction_dimension:")
        assert head.startswith("hyperfunction_index:")
        assert tail.strip()  # a real table follows for an all-smooth scene

    def test_hyperdim_table_singular(self, capsys):
        code, out, _ = run(capsys, "hyperdim", "node_curve")
        assert code == 0
        assert "hyperfunction_dimension: not applicable (singular stratum)" in out

    def test_hyperdim_with_a_stratum_off_the_real_form(self, capsys, tmp_path):
        # the scene is valid and verifies; hyperdim prints the index and
        # marks the dimension not applicable with the library's reason
        path = tmp_path / "miss.json"
        path.write_text(json.dumps({
            "name": "miss", "complex": {"maximal_simplices": [["a", "b"], ["b", "c"], ["x"]]},
            "subcomplexes": {"M": [["a", "b"]], "X": [["x"]]},
            "real_form": {"M": "M", "complex_dim": 1},
            "strata": [{"name": "s", "support": "X", "codim": 1, "multiplicity": 1}],
            "probes": [], "expect": {},
        }), encoding="utf-8")
        scene = str(path)
        reason = "stratum 's' misses the real form; flag allow_empty_trace to accept that"
        code, out, _ = run(capsys, "check", scene)
        assert code == 0 and out.endswith("\nok\n")
        assert run(capsys, "verify", scene)[0] == 0
        assert run(capsys, "hyperdim", scene) == (
            0, f"hyperfunction_index:\nhyperfunction_dimension: not applicable ({reason})\n", "",
        )
        code, out, _ = run(capsys, "hyperdim", scene, "--json")
        assert code == 0 and json.loads(out) == {
            "scene": "miss", "hyperfunction_index": [], "hyperfunction_dimension": None,
        }
        assert run(capsys, "hyperdim", scene, "--at", "a") == (0, "0\n", "")
        code, out, _ = run(capsys, "hyperdim", scene, "--at", "a", "--json")
        assert code == 0 and json.loads(out) == {
            "scene": "miss", "at": ["a"], "hyperfunction_index": 0,
            "hyperfunction_dimension": None,
        }

    def test_dual_of_interval_indicator(self, capsys, monkeypatch):
        original, ambients = cfcalc.cli.dual, []

        def counting(phi):
            ambients.append(len(phi.ambient))
            return original(phi)

        monkeypatch.setattr(cfcalc.cli, "dual", counting)
        code, out, _ = run(capsys, "dual", "pair_C_R", "--function", "indicator:real_line")
        assert code == 0
        assert out == "b0 c\t-1\nb3 c\t-1\nc\t-1\n"
        # the command dualizes on the ambient, not on the real form
        assert ambients == [len(build_model("pair_C_R").ambient)]

    def test_all_flag_includes_zeros(self, capsys):
        _, short, _ = run(capsys, "parity", "node_curve")
        _, full, _ = run(capsys, "parity", "node_curve", "--all")
        assert len(full.splitlines()) > len(short.splitlines())
        assert all("\t0" not in line for line in short.splitlines())


class TestJson:
    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "node_curve", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert blob["scene"] == "node_curve(k=3, m=1)"
        statuses = {e["status"] for e in blob["entries"]}
        assert statuses == {"pass", "not_applicable"}

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "check", "smooth_line_in_C2", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["valid"] is True
        assert blob["real_form"]["complex_dim"] == 2
        assert blob["strata"] == ["complex_line"]

    def test_at_json(self, capsys):
        code, out, _ = run(capsys, "hyperdim", "kashiwara_point", "--at", "c", "--json")
        blob = json.loads(out)
        assert code == 0
        assert blob["hyperfunction_index"] == 5
        assert blob["hyperfunction_dimension"] == 5

    def test_index_at_json(self, capsys):
        code, out, _ = run(capsys, "index", "kashiwara_point", "--at", "c", "--json")
        assert code == 0
        assert json.loads(out) == {
            "scene": "kashiwara_point(d0=2, d1=3, k=3)", "function": "solution_index",
            "at": ["c"], "value": 1,
        }

    def test_models_list_json(self, capsys):
        code, out, _ = run(capsys, "models", "list", "--json")
        infos = json.loads(out)
        assert code == 0
        assert [i["name"] for i in infos] == [
            "antipodal_cover", "kashiwara_point", "node_curve",
            "pair_C_R", "smooth_line_in_C2",
        ]


class TestModelsCommand:
    def test_list_mentions_parameters(self, capsys):
        code, out, _ = run(capsys, "models")
        assert code == 0
        assert "kashiwara_point:" in out
        assert "d0=2" in out

    def test_list_shows_each_maximum(self, capsys):
        code, out, _ = run(capsys, "models", "list")
        assert code == 0
        assert "  k=3 (min 3, max 36): half the number of rim vertices in each disk factor\n" in out
        assert "  m=1 (min 1, max 2305843009213693952): multiplicity along the curve\n" in out
        code, out, _ = run(capsys, "models", "list", "--json")
        assert code == 0
        listed = {
            (info["name"], p["name"]): p["maximum"]
            for info in json.loads(out)
            for p in info["params"]
        }
        assert listed == {
            (info.name, p.name): p.maximum for info in list_models() for p in info.params
        }
        assert listed["node_curve", "k"] == 36
        assert listed["kashiwara_point", "d1"] == 2**61

    def test_emit_round_trips(self, capsys):
        code, out, _ = run(capsys, "models", "emit", "node_curve", "k=4")
        assert code == 0
        assert parse_scene(out) == build_model("node_curve", k=4)

    def test_emit_needs_name(self, capsys):
        code, _, err = run(capsys, "models", "emit")
        assert code == 2
        assert "needs a model name" in err

    @pytest.mark.parametrize("extra", [["node_curve"], ["k=3"], ["node_curve", "k=3"]])
    def test_list_refuses_a_name_or_parameters(self, capsys, extra):
        # a name and parameters are for emit only
        code, out, err = run(capsys, "models", "list", *extra)
        message = f"models list takes no model name or parameters, got {extra[0]!r}"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestDeterminism:
    def test_verify_output_is_stable(self, capsys):
        _, first, _ = run(capsys, "verify", "smooth_line_in_C2")
        _, second, _ = run(capsys, "verify", "smooth_line_in_C2")
        assert first == second

    def test_emit_output_is_stable(self, capsys):
        _, first, _ = run(capsys, "models", "emit", "antipodal_cover")
        _, second, _ = run(capsys, "models", "emit", "antipodal_cover")
        assert first == second

    def test_seed_option_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "pair_C_R", "--seed", "7")
        assert code == 0
        assert "seed=7" in out

    @pytest.mark.parametrize("seed", ["\uff13", "1_0", "+7", " 7"])
    def test_seed_is_written_as_a_model_parameter(self, capsys, seed):
        # ASCII digits with at most a leading minus, as m=... in a model spec
        with pytest.raises(SystemExit) as exited:
            main(["verify", "pair_C_R", f"--seed={seed}"])
        captured = capsys.readouterr()
        assert exited.value.code == 2 and captured.out == ""
        assert captured.err == f"error: cfcalc verify: argument --seed: invalid int value: {seed!r}\n"

    def test_refusals_are_the_same_under_any_hash_seed(self, tmp_path):
        # each conjugation has several bad simplices, and the least is named
        pair = json.loads(emit_scene(build_model("pair_C_R")))
        del pair["real_form"]["conjugation"]["b1"]
        swaps = {
            "name": "three_swapped_edges",
            "complex": {"maximal_simplices": [["a0", "a1"], ["b0", "b1"], ["c0", "c1"]]},
            "subcomplexes": {"M": [["a0"]]},
            "real_form": {
                "M": "M", "complex_dim": 1,
                "conjugation": {
                    "a0": "a1", "a1": "a0", "b0": "b1", "b1": "b0", "c0": "c1", "c1": "c0"
                },
            },
            "strata": [], "probes": [], "expect": {},
        }
        # the least irregular simplex is the triangle, not its edge a c
        triangle = {
            **swaps,
            "name": "triangle_turned_over",
            "complex": {"maximal_simplices": [["a", "b", "c"]]},
            "subcomplexes": {"M": [["b"]]},
            "real_form": {"M": "M", "complex_dim": 1, "conjugation": {"a": "c", "c": "a"}},
        }
        for doc, line in (
            (pair, "error: real_form.conjugation: image b1 b4 of b1 b2 is not a simplex"
                   " of the target"),
            (swaps, "error: real_form.conjugation: involution is not regular: a0 a1 maps"
                    " onto itself without fixing its vertices"),
            (triangle, "error: real_form.conjugation: involution is not regular: a b c maps"
                       " onto itself without fixing its vertices"),
        ):
            path = tmp_path / f"{doc['name']}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            seen = set()
            for hash_seed in ("0", "1", "2", "3"):
                proc = subprocess.run(
                    [sys.executable, "-m", "cfcalc", "check", str(path)],
                    env={**os.environ, "PYTHONHASHSEED": hash_seed},
                    capture_output=True, text=True, timeout=60,
                )
                assert proc.returncode == 2
                seen.add(proc.stderr)
            assert seen == {line + "\n"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cfcalc", "models", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "node_curve" in proc.stdout


def test_a_closed_stdout_ends_quietly_with_the_sigpipe_status():
    # the table is larger than a pipe buffer, so a write fails once the
    # reader has gone; 141 is 128 + SIGPIPE, as a shell reports it
    proc = subprocess.Popen(
        [sys.executable, "-m", "cfcalc", "dual", "node_curve(k=6)", "--all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"b0.b0\t0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cold_start_imports_no_code_generation():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates
    # methods at every start; the CLI needs none of them
    probe = (
        "import sys; before = set(sys.modules); import cfcalc.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout.strip() == ""
    package = Path(cfcalc.cli.__file__).parent
    assert [p.name for p in package.glob("*.py") if "dataclass" in p.read_text()] == []


def verify_bytes(directory: Path, data: bytes) -> None:
    """`cfcalc verify` on a file holding the bytes: exit 0, 1 or 2, and
    exit 2 with exactly one line on stderr."""
    path = directory / "scene.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


EMISSIONS = [emit_scene(build_model(info.name)).encode() for info in list_models()]


@st.composite
def damaged_emissions(draw):
    """A built-in model's emitted bytes with a few bytes overwritten or inserted."""
    data = bytearray(draw(st.sampled_from(EMISSIONS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        byte = draw(st.integers(min_value=0, max_value=255))
        if draw(st.booleans()):
            data[at] = byte
        else:
            data.insert(at, byte)
    return bytes(data)


class TestByteFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, fuzz_dir, data):
        verify_bytes(fuzz_dir, data)

    @settings(max_examples=150, deadline=None)
    @given(damaged_emissions())
    def test_damaged_emissions(self, fuzz_dir, data):
        verify_bytes(fuzz_dir, data)


# --- every subcommand and option, fuzzed in process ---

PLANE_MODELS = ("node_curve", "smooth_line_in_C2")
PAIR_C_R_TEXT = emit_scene(build_model("pair_C_R"))
AT_COMMANDS = ("index", "hyperdim", "parity", "dual")
SCENE_COMMANDS = AT_COMMANDS + ("check", "integrate", "verify")
VERTICES = ("c", "b0", "b1", "b3", "c.c", "b0.c", "c.b0", "b0.b0")
FUNCTIONS = (
    "solution_index", "hyperfunction_index",
    "indicator:ambient", "indicator:real_line", "indicator:node", "indicator:origin",
)


@st.composite
def model_params(draw, info):
    """key=value pieces for a model, each value an unbounded integer or, half
    the time, a small valid one; k stays at 3 or 4 on the two-variable
    models so that each example stays fast."""
    pieces = []
    for p in info.params:
        if p.name == "k" and info.name in PLANE_MODELS:
            pieces.append(f"k={draw(st.integers(min_value=3, max_value=4))}")
        elif draw(st.booleans()):
            small = st.integers(min_value=p.minimum, max_value=p.minimum + 6)
            pieces.append(f"{p.name}={draw(st.one_of(small, st.integers()))}")
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        pieces.append(f"bogus={draw(st.integers())}")
    return pieces


@st.composite
def scene_args(draw, fuzz_dir):
    """A model spec, or a pair_C_R scene file whose name is drawn text that
    often holds a lone surrogate."""
    if draw(st.integers(min_value=0, max_value=2)):
        info = draw(st.sampled_from(list_models()))
        return f"{info.name}({', '.join(draw(model_params(info)))})"
    doc = json.loads(PAIR_C_R_TEXT)
    chars = st.one_of(st.characters(exclude_categories=()), st.sampled_from("\ud800\udfff"))
    doc["name"] = draw(st.text(chars, max_size=6))
    path = fuzz_dir / "named.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@st.composite
def scene_argvs(draw, fuzz_dir):
    command = draw(st.sampled_from(SCENE_COMMANDS))
    argv = [command, draw(scene_args(fuzz_dir))]
    if draw(st.booleans()):
        argv.append("--json")
    if command in AT_COMMANDS:
        if draw(st.booleans()):
            at = draw(st.one_of(
                st.text(max_size=10),
                st.lists(st.sampled_from(VERTICES), min_size=1, max_size=3).map(",".join),
            ))
            argv += draw(st.sampled_from([["--at", at], [f"--at={at}"]]))
        if draw(st.booleans()):
            argv.append("--all")
    if command in ("dual", "integrate") and draw(st.booleans()):
        function = draw(st.one_of(st.sampled_from(FUNCTIONS), st.text(max_size=10)))
        argv.append(f"--function={function}")
    if command == "verify" and draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers())}")
    return argv


@st.composite
def models_argvs(draw):
    if draw(st.booleans()):
        return ["models", "list"] + draw(st.sampled_from([[], ["--json"]]))
    info = draw(st.sampled_from(list_models()))
    name = draw(st.one_of(st.just(info.name), st.text(min_size=1, max_size=8)))
    return ["models", "emit", name] + draw(model_params(info))


def assert_exit_contract(argv) -> None:
    """Exit 0, 1 or 2, and 1 only from verify; exit 2 with empty stdout and
    one stderr line; stdout that a real UTF-8 stream can write."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exited:  # usage errors, from argparse
            code = exited.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert code != 1 or argv[0] == "verify", argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    out.getvalue().encode("utf-8")  # StringIO accepts what a real stdout refuses


class TestOptionFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_scene_commands(self, fuzz_dir, data):
        assert_exit_contract(data.draw(scene_argvs(fuzz_dir)))

    @settings(max_examples=25, deadline=None)
    @given(models_argvs())
    def test_models_commands(self, argv):
        assert_exit_contract(argv)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_runs_without_the_collector_and_restores_it(self, capsys, monkeypatch, enabled):
        seen = []
        load = cfcalc.cli.load_scene

        def spy(spec):
            seen.append(gc.isenabled())
            return load(spec)

        monkeypatch.setattr(cfcalc.cli, "load_scene", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            after = [run(capsys, "check", "kashiwara_point")[0], gc.isenabled()]
            after += [run(capsys, "check", "no_such_model")[0], gc.isenabled()]
            with pytest.raises(SystemExit):  # a usage error leaves main through argparse
                main(["check"])
            after.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]
        assert after == [0, enabled, 2, enabled, enabled]

    def test_a_verify_leaves_no_cycle_for_the_collector(self):
        # the CLI runs without the collector because nothing it builds
        # needs one to be freed
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            build_model("node_curve", k=6).verify()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = [o for o in gc.garbage if type(o).__module__.startswith("cfcalc")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was:
                gc.enable()
        assert found == []

    def test_built_faces_are_untracked_by_the_collector(self):
        # every face is a plain tuple of strings, which a full collection
        # untracks, so later passes walk none of them
        scene = build_model("node_curve", k=6)
        gc.collect()
        assert not any(map(gc.is_tracked, scene.ambient.simplices))
