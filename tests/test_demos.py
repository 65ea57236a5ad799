"""Each script in demos/ runs to the end in a fresh interpreter on the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    # TMPDIR keeps the files a demo writes inside the test's directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stdout + res.stderr
