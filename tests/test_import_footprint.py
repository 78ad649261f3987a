"""`import sbanm` and the CLI path (simulate -> fit -> select -> eval) load
no scipy module: each `sbanm` process would otherwise pay its import time
and memory for nothing a fit uses.  The first test pins scipy.optimize and
scipy.special out even where scipy.linalg is already loaded."""

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


NO_SCIPY_SCRIPT = r"""
import contextlib, io, json, os, sys, tempfile


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import sbanm
from sbanm.cli import main

report = {"import": scipy_modules()}
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    sim, fit = os.path.join(d, "sim"), os.path.join(d, "fit")
    net = os.path.join(sim, "net.tsv")
    codes = [
        main(["simulate", "--layers", "2", "--nodes", "60", "--blocks", "3",
              "--seed", "3", "--out", sim]),
        main(["fit", "--input", net, "--blocks", "3", "--seed", "3", "--out", fit]),
        main(["select", "--input", net, "--qmin", "2", "--qmax", "3", "--seed", "3"]),
        main(["eval", "--truth", os.path.join(sim, "truth.csv"),
              "--pred", os.path.join(fit, "memberships.csv")]),
    ]
report["cli"] = scipy_modules()
report["codes"] = codes
print(json.dumps(report))
"""


def test_import_and_cli_path_load_no_scipy():
    # The packed products, the Cholesky inverse and the Lanczos solver are
    # numpy: a fresh interpreter runs import, simulate, fit, select and
    # eval without loading any scipy module.
    src = str(Path(sbanm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    assert report["codes"] == [0, 0, 0, 0]
    assert report["cli"] == []
