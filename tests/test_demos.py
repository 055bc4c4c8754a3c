"""Every demo script runs to completion against the library in ``src/``,
with every warning an error, as the library's tests run.

Each demo runs from a copy of ``demos/`` so the SVGs it writes never touch
the committed ``demos/output``; the SVGs demo 02 writes there must equal the
committed ones byte for byte.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))
DEMO_02_SVGS = ("oils_correlation_circle.svg", "oils_principal_plane.svg")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    work = tmp_path / "demos"
    shutil.copytree(REPO / "demos", work)
    for svg in (work / "output").glob("*.svg"):
        svg.unlink()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(work / demo.name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("02_"):
        for name in DEMO_02_SVGS:
            written = (work / "output" / name).read_bytes()
            assert written == (REPO / "demos" / "output" / name).read_bytes(), name
