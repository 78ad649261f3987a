"""`import sbanm` and the simulate -> fit -> eval CLI path load no
scipy.optimize or scipy.special: each `sbanm` process would otherwise pay
their import time and memory for nothing a fit uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbanm

SCRIPT = r"""
import contextlib, io, json, os, sys, tempfile
import scipy.linalg, scipy.sparse.linalg


def unused_scipy():
    return sorted(
        m for m in sys.modules
        if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "special"])
    )


report = {"baseline": unused_scipy()}
import sbanm
from sbanm.cli import main

report["import"] = unused_scipy()
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    sim, fit = os.path.join(d, "sim"), os.path.join(d, "fit")
    codes = [
        main(["simulate", "--layers", "2", "--nodes", "60", "--blocks", "3",
              "--seed", "3", "--out", sim]),
        main(["fit", "--input", os.path.join(sim, "net.tsv"), "--blocks", "3",
              "--seed", "3", "--out", fit]),
        main(["eval", "--truth", os.path.join(sim, "truth.csv"),
              "--pred", os.path.join(fit, "memberships.csv")]),
    ]
report["cli"] = unused_scipy()
report["codes"] = codes
print(json.dumps(report))
"""


def test_fit_path_loads_no_scipy_optimize_or_special():
    src = str(Path(sbanm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["baseline"]:
        pytest.skip(
            "importing scipy.linalg and scipy.sparse.linalg already loads "
            f"{', '.join(report['baseline'][:3])} with this scipy"
        )
    assert report["import"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["cli"] == []
