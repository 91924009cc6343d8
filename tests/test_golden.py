"""Golden CLI outputs: stdout and exit status, byte for byte.

Every built-in model at k = 3 and k = 4 goes through `verify`,
`verify --json`, `hyperdim --all --json`, `parity`, `parity --all --json`
and `models emit`; at k = 3 also through `check`, `check --json`,
`index --json`, `dual` and `integrate --json`; and `models list` and
`models list --json` run once.  The files in
tests/golden/ hold the expected stdout of each case and exit_codes.json
the expected status.  To rewrite them from the current code (only when a
change of output is intended):

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
FIRST_K = ("check", "check_json", "index_json", "dual", "integrate_json")


def _argv(command: str, model: str, k: int) -> list[str]:
    spec = f"{model}(k={k})"
    return {
        "verify": ["verify", spec],
        "verify_json": ["verify", spec, "--json"],
        "hyperdim_all_json": ["hyperdim", spec, "--all", "--json"],
        "parity": ["parity", spec],
        "parity_all_json": ["parity", spec, "--all", "--json"],
        "emit": ["models", "emit", model, f"k={k}"],
        "check": ["check", spec],
        "check_json": ["check", spec, "--json"],
        "index_json": ["index", spec, "--json"],
        "dual": ["dual", spec],
        "integrate_json": ["integrate", spec, "--json"],
    }[command]


CASES = [
    (f"{model}_k{k}.{command}", _argv(command, model, k))
    for model in MODELS
    for k in KS
    for command in EVERY_K + (FIRST_K if k == KS[0] else ())
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
