"""Smoke test: every script in demos/ runs to completion against the
package, each in its own process with a scratch working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import impulse_qvi

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the working directory moves, so the package's own location goes
    # first on the path instead of a relative entry
    src = str(Path(impulse_qvi.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
