"""The two documented scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/verify_models.py", "--quiet"],
        ["scripts/stress_identities.py", "--rounds", "20", "--seed", "1"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
