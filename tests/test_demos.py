"""Smoke tests: the quick demos run as a user would start them and leave no files behind."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, tmp_path) -> str:
    # the demos write under the temporary directory, which must be empty again afterwards
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    return proc.stdout


def test_preprocess_demo_runs(tmp_path):
    assert "all finite: True" in run_demo("01_preprocess_flows.py", tmp_path)


def test_networks_demo_runs(tmp_path):
    out = run_demo("03_networks_from_scratch.py", tmp_path)
    assert "parameters bit-identical after reload: True" in out


def test_classifier_demo_runs(tmp_path):
    assert "per-attack detection rates" in run_demo("04_classifier_showdown.py", tmp_path)
