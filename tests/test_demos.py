"""Every demo script runs to completion, warning-free, writes no files, and
prints the same output every time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    stdouts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(demo)],
            cwd=tmp_path, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""
        assert list(tmp_path.iterdir()) == []
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
