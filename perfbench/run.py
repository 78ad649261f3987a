"""sbanm benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from the
checkout's src/ (nothing needs installing).  Workloads, metric names, units
and bounds are declared in BENCHMARK.json at the checkout root.

Load is a closed loop with one client: repetitions run one after another,
each in a fresh child process (perfbench/rep.py) with the BLAS thread count
pinned to THREADS before numpy loads, so peak RSS is per repetition.

--trace 0 repeats the workload until --seconds is used up (at least
MIN_REPS times) and reports the median of each end-to-end metric.  Times
are CPU times of the repetition's process (one BLAS thread, so CPU time is
compute time), not wall times: see rep.py.  The wall time of the timed call
is printed beside them for information.
--trace 1 runs one untraced and two traced repetitions and reports the
per-layer metrics: span self times averaged over the traced pair, and
computed counts, which must repeat exactly between them.

Every repetition checks its outputs (exact recovery of the planted
partition, convergence, finite ELBO and ICL, CLI exit codes, eval's
verdict); a repetition that fails them or crashes counts in `failed`, so
failed_frac = failed / attempted.  All repetitions of one seed must also
produce byte-identical outputs.  The last stdout line is the JSON result;
the lines before it record the machine and the spread of each metric.
Numbers taken on different machines are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
MIN_REPS = 3
# Start no repetition that would likely end after this; each run must exit within 180 s.
HARD_LIMIT_S = 140.0

# Per-layer span metrics: (span name, fields).  "self_s" is self time,
# "calls" a call count, "s" inclusive time, anything else a computed count.
LAYER_SPANS = [
    ("model.log_density_batch", ["self_s", "calls", "rows", "bytes_computed"]),
    ("model.pairs_to_square", ["self_s", "calls", "bytes_computed"]),
    ("init.spectral_init", ["self_s", "calls"]),
    ("vem.fit", ["self_s", "calls"]),
    ("vem.estimate_tau", ["self_s", "calls"]),
    ("vem.estimate_P", ["self_s", "calls"]),
    ("vem.m_step_block", ["self_s", "calls"]),
    ("vem.m_step_noise", ["self_s", "calls"]),
    ("vem.elbo", ["self_s", "calls"]),
    ("svi.svi_e_step", ["self_s", "calls", "subsample_pairs"]),
    ("evaluate.icl", ["self_s", "calls"]),
    ("io.read_network", ["self_s", "calls"]),
    ("io.write_network", ["self_s", "calls"]),
    ("io.write_memberships", ["self_s", "calls"]),
    ("simulate.gen_network", ["self_s", "calls"]),
    ("cli.simulate", ["s"]),
    ("cli.fit", ["s"]),
    ("cli.eval", ["s"]),
]


def layer_values(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, split into (times, counts)."""
    spans, counts = trace["spans"], trace["counts"]
    times, exact = {}, {}
    for name, fields in LAYER_SPANS:
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in fields:
            if field == "self_s":
                times[f"{name}.self_s"] = row["self_s"]
            elif field == "s":
                times[f"{name}.s"] = row["total_s"]
            elif field == "calls":
                exact[f"{name}.calls"] = row["calls"]
            else:
                exact[f"{name}.{field}"] = counts.get(f"{name}.{field}", 0)
    for name in ("io.read_network", "io.write_network"):
        seconds = spans.get(name, {}).get("self_s", 0.0)
        mb = counts.get(f"{name}.bytes", 0) / 1e6
        times[f"{name}.mb_per_s"] = mb / seconds if seconds > 0 else 0.0
    exact["vem.outer_iters"] = counts.get("vem.fit.outer_iters", 0)
    exact["vem.elbo_drops"] = counts.get("vem.fit.elbo_drops", 0)
    fit_s = spans.get("vem.fit", {}).get("total_s", 0.0)
    times["vem.s_per_outer_iter"] = (
        fit_s / exact["vem.outer_iters"] if exact["vem.outer_iters"] else 0.0
    )
    return times, exact


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_rep(args, trace: bool, deadline: float) -> dict | None:
    """One repetition in a fresh child; None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_truth:
        cmd += ["--corrupt-truth", args.corrupt_truth]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("repetition timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition exited with code {proc.returncode}", file=sys.stderr)
        return None
    rep = json.loads(lines[-1])
    rep["elapsed_s"] = time.monotonic() - started
    if not rep["ok"]:
        print(f"repetition failed: {rep['reasons']}", file=sys.stderr)
    return rep


def machine(env: dict) -> dict:
    """Machine and environment facts recorded with every result."""
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        info["cpu"] = "unknown"
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        info["l3"] = "unknown"
    info.update(env)
    info["blas_threads_pinned"] = THREADS
    info["git_commit"] = git_commit()
    info["note"] = "numbers from different machines are not comparable"
    return info


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spread_line(name: str, unit: str, values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="sbanm benchmark")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness tests")
    p.add_argument("--corrupt-truth", choices=["permute", "permute-merge"],
                   help="check the correctness gate against a relabeled or merged truth")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sbanm" / "__init__.py").is_file():
        print(f"error: no sbanm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + 170.0
    reps = []
    try:
        if args.trace:
            reps = [run_rep(args, trace, deadline) for trace in (False, True, True)]
        else:
            while True:
                reps.append(run_rep(args, False, deadline))
                elapsed = time.monotonic() - start
                per_rep = elapsed / len(reps)
                if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
                    break
                if elapsed + per_rep > HARD_LIMIT_S:
                    break
    finally:
        # Scratch files of a repetition that was killed before it could clean up.
        shutil.rmtree(HERE / ".work", ignore_errors=True)

    done = [r for r in reps if r is not None]
    failed = sum(1 for r in reps if r is None or not r["ok"])
    problems = []
    if len({r.get("fingerprint") for r in done}) > 1:
        problems.append("repetitions of one seed produced different outputs")

    if args.trace:
        declared = spec["per_layer"]
        untraced = reps[0]
        traced = [r for r in reps[1:] if r is not None and "trace" in r]
        values = {}
        if len(traced) == 2:
            (t1, c1), (t2, c2) = (layer_values(r["trace"]) for r in traced)
            if c1 != c2:
                diff = sorted(k for k in c1 if c1[k] != c2.get(k))
                problems.append(f"computed counts differ between traced repetitions: {diff}")
            if traced[0]["warnings"] != traced[1]["warnings"]:
                problems.append("warning counts differ between traced repetitions")
            for r in traced:
                if r["trace"]["missing"]:
                    print(f"trace targets not found: {r['trace']['missing']}", file=sys.stderr)
            values.update(c1)
            values.update({k: (t1[k] + t2[k]) / 2 for k in t1})
            values["run.warnings"] = traced[0]["warnings"]
            if untraced is not None and "wall_s" in untraced:
                traced_wall = (traced[0]["wall_s"] + traced[1]["wall_s"]) / 2
                values["trace.overhead_s"] = traced_wall - untraced["wall_s"]
        samples = {k: [v] for k, v in values.items()}
    else:
        declared = spec["end_to_end"]
        samples = {m["name"]: [r[m["name"]] for r in done if m["name"] in r] for m in declared}
        walls = [r["wall_s"] for r in done if "wall_s" in r]
        if walls:
            print("information only, " + spread_line("wall_s", "s", walls))

    metrics = {}
    for m in declared:
        vals = samples.get(m["name"], [])
        if not vals:
            problems.append(f"metric {m['name']} was not measured")
            continue
        print(spread_line(m["name"], m["unit"], vals))
        metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
    extra = set(samples) - {m["name"] for m in declared}
    if extra:
        problems.append(f"metrics computed but not declared: {sorted(extra)}")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(machine(done[0]["env"] if done else {})))
    print(f"seed {args.seed}, workload {args.workload}, trace {args.trace}, "
          f"failed_frac {failed}/{len(reps)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
