"""`import sbanm` and the CLI path (simulate -> fit -> select -> eval) load
no scipy module: each `sbanm` process would otherwise pay its import time
and memory for nothing a fit uses.  The first test pins scipy.optimize and
scipy.special out even where scipy.linalg is already loaded.  The last runs
the library and every subcommand where no scipy import can succeed, as in
an install without scipy (numpy is the one runtime dependency)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbanm


def run_report(script):
    """Run `script` in a fresh interpreter that imports sbanm from src/ and
    return the JSON object on its last line of output."""
    src = str(Path(sbanm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
    report = run_report(SCRIPT)
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
    report = run_report(NO_SCIPY_SCRIPT)
    assert report["import"] == []
    assert report["codes"] == [0, 0, 0, 0]
    assert report["cli"] == []


BLOCKED_SCIPY_SCRIPT = r"""
import contextlib, io, json, math, os, sys, tempfile

sys.modules["scipy"] = None  # every scipy import now raises ImportError

import numpy as np
import sbanm
from sbanm.cli import main
from sbanm.rng import substream

params, _ = sbanm.experiment2_spec()
net, truth = sbanm.gen_network(params, [12, 16, 16, 10], substream(3, "network"))
fit = sbanm.fit(net, sbanm.FitConfig(Q=4, seed=3))
matching = sbanm.optimal_matching(truth, fit.hard_membership)
rep = sbanm.param_report(params, fit.params, matching)
report = {
    "icl": math.isfinite(sbanm.icl(net, fit)),
    "ari": sbanm.ari(truth, fit.hard_membership),
    "nmi": sbanm.nmi(truth, fit.hard_membership),
    "exact": sbanm.exact_recovery(truth, fit.hard_membership),
    "matching": sorted(matching.items()),
    "mu_err": bool(np.isfinite(rep.mu_err).all()),
}
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    sim, out, resp = (os.path.join(d, x) for x in ("sim", "fit", "resp.csv"))
    with open(resp, "w") as f:
        f.write("subject,a:q1,a:q2,b:q1,b:q2\n"
                "s1,1,1,0,NA\ns2,1,0,0,1\ns3,0,0,1,1\ns4,1,NA,1,0\n")
    net_path = os.path.join(sim, "net.tsv")
    report["codes"] = [
        main(["simulate", "--layers", "2", "--nodes", "60", "--blocks", "3",
              "--seed", "3", "--out", sim]),
        main(["fit", "--input", net_path, "--blocks", "3", "--seed", "3", "--out", out]),
        main(["select", "--input", net_path, "--qmin", "2", "--qmax", "3", "--seed", "3"]),
        main(["eval", "--truth", os.path.join(sim, "truth.csv"),
              "--pred", os.path.join(out, "memberships.csv")]),
        main(["build-net", "--responses", resp, "--transform", "fisher-agreement",
              "--out", os.path.join(d, "built")]),
    ]
print(json.dumps(report))
"""


def test_library_and_cli_run_where_scipy_cannot_be_imported():
    report = run_report(BLOCKED_SCIPY_SCRIPT)
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["icl"] and report["mu_err"]
    assert report["exact"] and report["ari"] == 1.0
    assert report["nmi"] == pytest.approx(1.0, abs=1e-12)
    # One entry per truth block, onto distinct fitted blocks.
    assert [t for t, _ in report["matching"]] == [0, 1, 2, 3]
    assert sorted(f for _, f in report["matching"]) == [0, 1, 2, 3]
