"""Tests of the benchmark harness itself, on tiny inputs (--smoke).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace="0", *extra):
    proc = bench("--smoke", "--workload", workload, "--trace", trace, *extra)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":
        values = {name: m["value"] for name, m in result["metrics"].items()}
        io_calls = sum(values[f"io.{f}.calls"] for f in
                       ("read_network", "write_network", "write_memberships"))
        assert values["vem.outer_iters"] >= 1
        if workload.startswith("cli"):
            assert io_calls > 0 and values["cli.fit.s"] > 0
        else:
            assert io_calls == 0
        if not workload.startswith("svi"):
            assert values["svi.svi_e_step.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_permuted_and_merged_truth_counts_as_failed(workload):
    merged = smoke(workload, "0", "--corrupt-truth", "permute-merge")
    assert not merged["correct"]
    assert merged["failed"] == merged["attempted"] >= 1


def test_relabeled_truth_still_passes():
    assert smoke(WORKLOADS[0], "0", "--corrupt-truth", "permute")["correct"]


def test_fails_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
