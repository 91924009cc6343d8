"""Golden CLI outputs: stdout and exit status, byte for byte.

Every built-in model at k = 3 and k = 4 goes through `verify`,
`verify --json`, `hyperdim --all --json`, `parity`, `parity --all --json`
and `models emit`; at k = 3 also through `check`, `check --json`,
`index --json`, `dual`, `integrate --json`, `hyperdim --all` and
`dual --all`; and `models list` and `models list --json` run once.  The
scene tests/golden/scene_unicode.json, whose vertex names, scene name
and comment are not ASCII (one vertex name holds a character JSON
escapes as a surrogate pair), goes through `check --json`,
`index --all --json`, `hyperdim --all --json`, `dual --all --json`,
`verify --json` and `hyperdim --all`.  Crafted scenes reach every
report row that the models leave passing: each tests/golden/scene_X.json
of CRAFTED goes through `verify` and `verify --json` at seeds 0 and 7,
and between them they hold every not-applicable note and a failed row in
every check family a scene file can fail.  The .txt files in tests/golden/
hold the expected stdout of each case and exit_codes.json the expected
status.  To rewrite them from the current code (only when a change of
output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cfcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = ("antipodal_cover", "kashiwara_point", "node_curve", "pair_C_R", "smooth_line_in_C2")
KS = (3, 4)
# commands run at every k in KS, and those run at the first k only
EVERY_K = ("verify", "verify_json", "hyperdim_all_json", "parity", "parity_all_json", "emit")
FIRST_K = (
    "check", "check_json", "index_json", "dual", "integrate_json", "hyperdim_all", "dual_all",
)
UNICODE_SCENE = GOLDEN / "scene_unicode.json"
UNICODE = (
    "check_json", "index_all_json", "hyperdim_all_json", "dual_all_json", "verify_json",
    "hyperdim_all",
)
CRAFTED = (
    "antipodal_square", "kashiwara_point_covering", "node_curve_dimension",
    "pair_C_R_no_probes", "pair_C_R_rim_vertex", "pair_C_R_wedge", "pair_C_R_wrong_value",
)


def _argv(command: str, model: str, k: int) -> list[str]:
    if command == "emit":
        return ["models", "emit", model, f"k={k}"]
    return _scene_argv(command, f"{model}(k={k})")


def _scene_argv(command: str, spec: str) -> list[str]:
    return {
        "verify": ["verify", spec],
        "verify_json": ["verify", spec, "--json"],
        "hyperdim_all_json": ["hyperdim", spec, "--all", "--json"],
        "parity": ["parity", spec],
        "parity_all_json": ["parity", spec, "--all", "--json"],
        "check": ["check", spec],
        "check_json": ["check", spec, "--json"],
        "index_json": ["index", spec, "--json"],
        "dual": ["dual", spec],
        "integrate_json": ["integrate", spec, "--json"],
        "hyperdim_all": ["hyperdim", spec, "--all"],
        "dual_all": ["dual", spec, "--all"],
        "index_all_json": ["index", spec, "--all", "--json"],
        "dual_all_json": ["dual", spec, "--all", "--json"],
    }[command]


CASES = [
    (f"{model}_k{k}.{command}", _argv(command, model, k))
    for model in MODELS
    for k in KS
    for command in EVERY_K + (FIRST_K if k == KS[0] else ())
] + [
    (f"unicode.{command}", _scene_argv(command, str(UNICODE_SCENE))) for command in UNICODE
] + [
    (
        f"{stem}.{command}_seed{seed}",
        _scene_argv(command, str(GOLDEN / f"scene_{stem}.json")) + ["--seed", str(seed)],
    )
    for stem in CRAFTED
    for command in ("verify", "verify_json")
    for seed in (0, 7)
] + [
    ("models_list", ["models", "list"]),
    ("models_list_json", ["models", "list", "--json"]),
]


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    code, out = _run(argv)
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


JSON_CASES = [(name, argv) for name, argv in CASES if "--json" in argv]


@pytest.mark.parametrize("name,argv", JSON_CASES, ids=[name for name, _ in JSON_CASES])
def test_json_output_is_the_bytes_of_json_dumps(name, argv):
    """stdlib json stays the reference for the bytes of every --json document"""
    _, out = _run(argv)
    assert out == (json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n").encode()


def test_every_golden_file_is_a_case():
    names = {name for name, _ in CASES}
    assert set(_exit_codes()) == names
    assert {p.name[: -len(".txt")] for p in GOLDEN.glob("*.txt")} == names


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES:
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.txt").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.exit(0)
