"""The documented scripts run to completion, and the names the benchmark
resolves on the package exist."""

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cfcalc.cli  # the workloads reach main through cf.cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/verify_models.py", "--quiet"],
        ["scripts/stress_identities.py", "--rounds", "20", "--seed", "1"],
        ["scripts/stress_identities.py", "--rounds", "0"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scripts/verify_models.py", "--only", "nosuch"], "invalid choice: 'nosuch'"),
        (["scripts/stress_identities.py", "--rounds", "-3"], "must be at least 0, not -3"),
    ],
)
def test_script_refuses_a_bad_argument_with_a_usage_error(argv, message):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_ladder_writes_its_record_at_k_3(tmp_path):
    # two repeats, the fewest that give each field a finite spread
    proc = subprocess.run(
        [sys.executable, "scripts/ladder.py", "--label", "smoke", "--ks", "3",
         "--repeats", "2", "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_ladder_smoke.json").read_text(encoding="utf-8"))
    assert record["label"] == "smoke" and record["python"] and record["commit"]
    assert record["unit"] == "ms of CPU time at the gauge's nominal speed, median"
    assert record["gc_in_process"] is True
    for model in ("node_curve", "smooth_line_in_C2"):
        (rung,) = record[model]
        assert rung["k"] == 3 and rung["simplices"] == 1921, model
        for key in (
            "build_ms", "first_verify_ms", "warm_verify_ms",
            "cold_verify_ms", "cold_hyperdim_ms", "cold_check_ms", "star_ms",
            "parse_ms", "emit_ms", "speed_before", "speed_after",
        ):
            assert rung[key] > 0, (model, key)
        assert sorted(rung["dual_ms"]) == ["indicator", "solution_index"], model
        assert all(ms > 0 for ms in rung["dual_ms"].values()), model
        for key in (
            "build_ms", "first_verify_ms", "warm_verify_ms",
            "cold_verify_ms", "cold_hyperdim_ms", "cold_check_ms", "star_ms",
            "parse_ms", "emit_ms",
        ):
            assert 0 <= rung[f"{key}_spread"] < math.inf, (model, key)
        assert sorted(rung["dual_ms_spread"]) == ["indicator", "solution_index"], model
        assert all(0 <= s < math.inf for s in rung["dual_ms_spread"].values()), model
    for field, ns in (("cold_check_simplex_ms", ["10", "12", "14"]),
                      ("cold_verify_simplex_ms", ["10", "12"]),
                      ("cold_verify_facet_ms", ["10", "12"]),
                      ("cold_dual_facet_ms", ["10", "12"])):
        assert sorted(record[field], key=int) == ns
        assert all(ms > 0 for ms in record[field].values()), field
        assert sorted(record[f"{field}_spread"], key=int) == ns
        assert all(0 <= s < math.inf for s in record[f"{field}_spread"].values()), field
    assert sorted(record["star_facet_ms"], key=int) == ["10", "12"]
    assert all(ms > 0 for ms in record["star_facet_ms"].values())
    assert sorted(record["star_facet_ms_spread"], key=int) == ["10", "12"]
    assert all(0 <= s < math.inf for s in record["star_facet_ms_spread"].values())
    for field in ("cold_verify_disjoint_ms", "cold_verify_conj_ms"):
        assert record[field] > 0, field
        assert 0 <= record[f"{field}_spread"] < math.inf, field


def _literal(path: Path, name: str):
    """The literal value assigned to a module-level name, read without importing."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_benchmark_tracer_names_resolve():
    """Every name the benchmark's tracer wraps still exists, so a deletion
    cannot silently break `perfbench/run.py --trace 1`."""
    spans = ROOT / "perfbench" / "spans.py"
    for module, names in _literal(spans, "FUNCTIONS").items():
        home = getattr(cfcalc, module)
        missing = [name for name in names if not callable(getattr(home, name, None))]
        assert missing == [], f"cfcalc.{module} lacks {missing}"
    for module, cls, attr, _ in _literal(spans, "METHODS"):
        assert attr in vars(getattr(getattr(cfcalc, module), cls)), f"{cls}.{attr}"


def test_benchmark_workload_names_resolve():
    """Every `cf.<name>` the workloads use is on the package."""
    source = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bcf\.(\w+)", source)))
    assert names and [name for name in names if not hasattr(cfcalc, name)] == []
