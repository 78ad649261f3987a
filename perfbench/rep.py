"""One repetition of one benchmark workload, in a fresh process.

run.py starts this script once per repetition, with the checkout's src/
on PYTHONPATH and the BLAS thread count pinned in the environment, so
numpy starts with that pin and ru_maxrss covers this repetition only.
The last line of standard output is one JSON object describing the
repetition: CPU time of set-up, CPU and wall time of the timed call, peak
RSS, ARI against the planted partition, the correctness verdict, an output
fingerprint and, with --trace, the span summary.

    python3 perfbench/rep.py --workload exp2-n1200 --seed 1 [--trace] [--smoke]
"""

import time

# Set-up and the timed call are measured in CPU time of this process.  It
# leaves out the time the hypervisor of a shared host gives to other guests
# (steal), which can add a half to a wall time; with BLAS pinned to one
# thread the workload's CPU time is its compute time.
C0 = time.process_time()

import warnings  # noqa: E402

# Count every Python warning of the repetition and still show each one.
WARNINGS = [0]
_show_warning = warnings.showwarning


def _counting_showwarning(*args, **kwargs):
    WARNINGS[0] += 1
    _show_warning(*args, **kwargs)


warnings.simplefilter("always")
warnings.showwarning = _counting_showwarning

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sbanm import cli, evaluate, simulate, vem  # noqa: E402
from sbanm.rng import substream  # noqa: E402
from sbanm.svi import SviConfig  # noqa: E402

from spans import Tracer  # noqa: E402

WORK_ROOT = Path(__file__).resolve().parent / ".work"

# name -> (kind, size, smoke size).  Sizes are node counts for the library
# fits and experiment-2 candidate counts for the CLI round trip.
WORKLOADS = {
    "exp2-n1200": ("fit", 1200, 120),
    "svi-n700": ("svi", 700, 320),
    "cli-exp2x4": ("cli", 4, 2),
}


def exp2_network(n: int, rng: np.random.Generator):
    """Experiment-2 parameters with block sizes scaled to n nodes."""
    params, sizes = simulate.experiment2_spec()
    scaled = np.floor(sizes * n / sizes.sum()).astype(int)
    scaled[0] += n - scaled.sum()  # the noise block takes the rounding remainder
    return simulate.gen_network(params, scaled, rng)


def corrupt(labels: np.ndarray, mode: str | None) -> np.ndarray:
    """Relabel the truth ('permute': same partition) and, for
    'permute-merge', merge two blocks so no fit can match it."""
    if mode is None:
        return labels
    out = (labels + 1) % (labels.max() + 1)
    if mode == "permute-merge":
        out[out == 1] = 0
    return out


def same_partition(a, b) -> bool:
    """True iff a label bijection maps a onto b."""
    a, b = list(map(int, a)), list(map(int, b))
    return len(a) == len(b) and len(set(zip(a, b))) == len(set(a)) == len(set(b))


def adjusted_rand(a, b) -> float:
    """Adjusted Rand index, computed here rather than by the program."""
    _, ia = np.unique(np.asarray(a), return_inverse=True)
    _, ib = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(x):
        return float((x * (x - 1) // 2).sum())

    index = comb2(table)
    sum_a, sum_b = comb2(table.sum(axis=1)), comb2(table.sum(axis=0))
    expected = sum_a * sum_b / comb2(np.array([ia.size]))
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else (index - expected) / (top - expected)


class FitWorkload:
    """Library fit + ICL on a planted experiment-2 network."""

    def __init__(self, rng, n, use_svi, corrupt_mode):
        self.net, labels = exp2_network(n, rng)
        self.fit_seed = int(rng.integers(2**63))
        self.use_svi = use_svi
        self.truth = corrupt(labels, corrupt_mode)

    def run(self, span):
        cfg = vem.FitConfig(Q=4, seed=self.fit_seed)
        # a=300 rather than the default 150: with 150 or 200 the first SVI
        # steps collapse a block and miss the planted partition on a few
        # percent of seeds.
        svi = SviConfig(a=300, seed=self.fit_seed) if self.use_svi else None
        result = vem.fit(self.net, cfg, svi=svi)
        result.icl = evaluate.icl(self.net, result)
        self.result = result

    def check(self):
        r = self.result
        reasons = []
        if not same_partition(self.truth, r.hard_membership):
            reasons.append("fitted partition differs from the planted truth")
        if not r.converged:
            reasons.append("fit did not converge")
        if not (math.isfinite(r.elbo) and math.isfinite(r.icl)):
            reasons.append("non-finite ELBO or ICL")
        digest = hashlib.sha256(np.asarray(r.hard_membership).tobytes())
        digest.update(np.asarray(r.elbo_trace).tobytes())
        digest.update(repr((r.elbo, r.icl)).encode())
        return reasons, adjusted_rand(self.truth, r.hard_membership), digest.hexdigest()

    def cleanup(self):
        pass


def _block_column(path: Path) -> list[int]:
    with open(path, newline="") as fh:
        return [int(row[1]) for row in list(csv.reader(fh))[1:]]


class CliWorkload:
    """In-process CLI round trip: simulate C experiment-2 candidates to
    files, then fit and eval each one."""

    def __init__(self, rng, candidates, corrupt_mode):
        self.argv_seed = str(int(rng.integers(2**63)))
        self.candidates = candidates
        self.corrupt_mode = corrupt_mode
        self.work = WORK_ROOT / f"rep-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.codes: list[int] = []
        self.fit_err = io.StringIO()
        self.eval_out = io.StringIO()

    def _cand(self, i):
        return self.work / "sim" / f"cand{i:03d}"

    def _corrupt_truth(self, path: Path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        labels = corrupt(np.array([int(r[1]) for r in rows[1:]]), self.corrupt_mode)
        for row, z in zip(rows[1:], labels):
            row[1] = str(z)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def run(self, span):
        with span("cli.simulate"):
            self.codes.append(cli.main([
                "simulate", "--layers", "3", "--nodes", "300", "--experiment2",
                "--candidates", str(self.candidates), "--seed", self.argv_seed,
                "--out", str(self.work / "sim"),
            ]))
        if self.corrupt_mode is not None:
            for i in range(self.candidates):
                self._corrupt_truth(self._cand(i) / "truth.csv")
        for i in range(self.candidates):
            fit_dir = self.work / f"fit{i:03d}"
            with span("cli.fit"), contextlib.redirect_stderr(self.fit_err):
                self.codes.append(cli.main([
                    "fit", "--input", str(self._cand(i) / "net.tsv"), "--blocks", "4",
                    "--seed", self.argv_seed, "--out", str(fit_dir),
                ]))
            with span("cli.eval"), contextlib.redirect_stdout(self.eval_out):
                self.codes.append(cli.main([
                    "eval", "--truth", str(self._cand(i) / "truth.csv"),
                    "--pred", str(fit_dir / "memberships.csv"),
                ]))

    def check(self):
        sys.stderr.write(self.fit_err.getvalue())
        reasons = []
        if any(code != 0 for code in self.codes):
            reasons.append(f"CLI exit codes {self.codes}")
        if "did not converge" in self.fit_err.getvalue():
            reasons.append("a CLI fit did not converge")
        lines = self.eval_out.getvalue().splitlines()
        if lines.count("exact_recovery\ttrue") != self.candidates:
            reasons.append("eval did not report exact_recovery true for every candidate")
        aris = []
        for i in range(self.candidates):
            truth = _block_column(self._cand(i) / "truth.csv")
            fitted = _block_column(self.work / f"fit{i:03d}" / "memberships.csv")
            if not same_partition(truth, fitted):
                reasons.append(f"candidate {i}: fitted partition differs from the truth file")
            with open(self.work / f"fit{i:03d}" / "params.json") as fh:
                doc = json.load(fh)
            if not all(isinstance(doc[k], float) and math.isfinite(doc[k]) for k in ("elbo", "icl")):
                reasons.append(f"candidate {i}: non-finite ELBO or ICL")
            aris.append(adjusted_rand(truth, fitted))
        digest = hashlib.sha256(self.eval_out.getvalue().encode())
        for path in sorted(p for p in self.work.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(self.work)).encode())
            digest.update(path.read_bytes())
        return reasons, min(aris), digest.hexdigest()

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def build(name, smoke, seed, corrupt_mode):
    kind, size, smoke_size = WORKLOADS[name]
    size = smoke_size if smoke else size
    rng = substream(seed, "perfbench", name)
    if kind == "cli":
        return CliWorkload(rng, size, corrupt_mode)
    return FitWorkload(rng, size, kind == "svi", corrupt_mode)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--corrupt-truth", choices=["permute", "permute-merge"])
    args = p.parse_args(argv)

    out = {"ok": False, "reasons": [], "env": environment()}
    workload = None
    try:
        workload = build(args.workload, args.smoke, args.seed, args.corrupt_truth)
        out["setup_s"] = time.process_time() - C0
        tracer = Tracer() if args.trace else None
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        if tracer:
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            workload.run(span)
        finally:
            out["cpu_s"] = time.process_time() - cpu_start
            out["wall_s"] = time.perf_counter() - start
            if tracer:
                tracer.restore()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reasons, out["ari"], out["fingerprint"] = workload.check()
        out["reasons"] = reasons
        out["ok"] = not reasons
        if tracer:
            out["trace"] = {
                "spans": tracer.summary(),
                "counts": dict(tracer.counts),
                "missing": tracer.missing,
            }
    except Exception as exc:  # a raising workload is a failed repetition, not a crash
        traceback.print_exc()
        out["reasons"].append(f"raised {type(exc).__name__}: {exc}")
    finally:
        if workload is not None:
            workload.cleanup()
    out["warnings"] = WARNINGS[0]
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
