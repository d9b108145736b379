"""Every demo runs to completion as a script and prints its recorded output.

tests/golden/demos/<demo>.txt holds each demo's stdout, compared byte for
byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
