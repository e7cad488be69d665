"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench``.  It is not part
of the package's test suite (``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from run import END_TO_END_UNITS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_declared_metrics_match_the_code():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == {k: u for k, u in END_TO_END_UNITS.items() if k != "error_rate"}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    report, result = _parse(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        # The report line carries all six end-to-end metrics, error_rate too.
        assert {k: v["unit"] for k, v in report["metrics"].items()} == END_TO_END_UNITS
        assert report["metrics"]["error_rate"]["value"] == 0
        assert report["raw_metrics"].keys() == END_TO_END_UNITS.keys()
        assert report["host_samples"] >= 1 and report["host_scale"] > 0
    else:
        assert report["self_within_wall"] and report["digests_agree"]
    for key in ("python", "platform", "nproc", "digest"):
        assert report[key]


def test_same_seed_gives_same_digest_and_counts():
    first, first_result = _parse(_run("model-cold", 1))
    second, second_result = _parse(_run("model-cold", 1))
    assert first["digest"] == second["digest"]
    counts = {k for k in first_result["metrics"] if k.endswith((".calls", ".misses"))}
    assert {k: first_result["metrics"][k] for k in counts} == {k: second_result["metrics"][k] for k in counts}


def test_refuses_to_run_without_the_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
