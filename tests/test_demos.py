"""Each narrative script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import turbox

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # the demo imports the turbox under test, and writes into tmp_path
    src = str(Path(turbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip()
