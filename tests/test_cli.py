import json
import subprocess
import sys

import pytest

from cfcalc import build_model, emit_scene, parse_scene
from cfcalc.cli import load_scene, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_parameter_spec(self, capsys):
        code, _, err = run(capsys, "check", "pair_C_R(k=x)")
        assert code == 2
        assert "integer" in err


class TestValues:
    def test_hyperdim_at_origin(self, capsys):
        code, out, _ = run(capsys, "hyperdim", "kashiwara_point", "--at", "c")
        assert code == 0
        assert out == "5\n"

    def test_integrate_solution_index(self, capsys):
        code, out, _ = run(capsys, "integrate", "kashiwara_point")
        assert code == 0
        assert out == "1\n"

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

    def test_dual_of_interval_indicator(self, capsys):
        code, out, _ = run(capsys, "dual", "pair_C_R", "--function", "indicator:real_line")
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows == {"b0 c": "-1", "b3 c": "-1", "c": "-1"}

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

    def test_emit_round_trips(self, capsys):
        code, out, _ = run(capsys, "models", "emit", "node_curve", "k=4")
        assert code == 0
        assert parse_scene(out) == build_model("node_curve", k=4)

    def test_emit_needs_name(self, capsys):
        code, _, err = run(capsys, "models", "emit")
        assert code == 2
        assert "needs a model name" in err


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cfcalc", "models", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "node_curve" in proc.stdout
