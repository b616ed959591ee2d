"""Each demo script prints exactly the bytes recorded in ``recorded/demos``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "recorded" / "demos"


def test_every_demo_has_a_recording():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_recording(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()
