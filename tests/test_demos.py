"""Smoke tests: every demo runs as a user would start it and leaves no files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, tmp_path) -> str:
    # the demos write under the temporary directory, which must be empty again afterwards
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    # pyproject's filterwarnings does not reach a subprocess, so the demos get the same flags
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    proc = subprocess.run(
        [sys.executable, *warnings, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    return proc.stdout


# a line each demo prints when it gets to its end
DEMOS = {
    "01_preprocess_flows.py": "all finite: True",
    "02_feature_extractors.py": "bottleneck codes: shape",
    "03_networks_from_scratch.py": "parameters bit-identical after reload: True",
    "04_classifier_showdown.py": "per-attack detection rates",
    "05_full_benchmark.py": "result record(s)",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(tmp_path, name):
    assert DEMOS[name] in run_demo(name, tmp_path)
