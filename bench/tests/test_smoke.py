"""Harness smoke test: tiny runs of every workload, untraced and traced.

    python3 -m pytest bench/tests -q

Not part of the repository's tier-1 suite (pyproject's testpaths names
only ``tests``). Each run must exit 0, pass its output checks and emit
exactly the metrics BENCHMARK.json lists, plus the report-only figures
in its full record.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }

    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text()
    )
    assert record["report"]["fail_share"] == 0.0
    if workload.startswith("sweep"):
        assert record["report"]["fits_per_s"] > 0
        assert 0.0 < record["report"]["auc_mean"] <= 1.0
        assert len(record["report"]["results_sha256"]) == 64
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(record["environment"])
    assert {"rows", "columns", "bytes", "seed"} <= set(record["inputs"])

    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert self_sum == pytest.approx(m["trace.self_sum_s"])
        slack = max(abs(m["trace.overhead_s"]), 0.01 * m["trace.wall_s"])
        assert abs(self_sum - m["trace.wall_s"]) <= slack


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
