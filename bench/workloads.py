"""The three benchmark workloads: synthetic inputs, the timed call and its checks.

Each workload is a synth spec (inputs are generated from the run's seed,
outside the timed region) plus either a sweep config or a plain ingest.
The program receives only the CSV path and the config.

Why these three:

* ``sweep-deep`` -- dff/cnn/rnn on full, PCA and AE features of a small
  file. Network training and the autoencoder fit take nearly all of the
  time, so every nn or AE optimisation shows here and nowhere else.
* ``sweep-shallow`` -- dt/lr/nb on full, PCA and LDA features of a larger
  file with many (fe, dims) groups. The tree, logistic regression, ROC
  writing and the repeated per-group scaler and SVD fits dominate; nn
  does nothing.
* ``ingest-wide`` -- ``load_feature_matrix`` on a 25k-row, 48-column
  capture, where the per-cell cleaning loop dominates. Both sweeps spend
  under a tenth of their time in ingest.

Each timed call is sized to take a few seconds, so that a run holds
about ten repetitions and its median rejects the bursts of a shared
host. The per-row and per-fit work that optimisations target is the
same kind as at larger sizes.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# The train block of configs/synthetic-benchmark.json, copied so that an
# edit to that example config does not silently change the benchmark.
DEEP_TRAIN = {"epochs": 8, "batch_size": 128, "learning_rate": 0.005}

METRIC_COLUMNS = ("acc", "f1", "dr", "far", "precision", "auc", "auc_pooled")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict                      # SynthSpec keyword arguments
    sweep: dict | None = None       # ExperimentConfig keyword arguments; None = ingest only
    tiny: dict = field(default_factory=dict)  # overrides for the harness smoke test

    def synth_spec(self, size: str) -> dict:
        spec = dict(self.spec)
        if size == "tiny":
            spec["rows"] = self.tiny["rows"]
        return spec

    def sweep_config(self, size: str) -> dict:
        cfg = dict(self.sweep)
        if size == "tiny" and "train" in cfg:
            cfg["train"] = dict(cfg["train"], **self.tiny.get("train", {}))
        return cfg

    def n_cells(self) -> int:
        groups = 0
        for fe in self.sweep["fe_methods"]:
            groups += 1 if fe in ("full", "lda") else len(set(self.sweep["dimensions"]))
        return groups * len(self.sweep["models"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-deep",
            why="nn training and the AE fit take over 90% of the time: every nn or AE change shows here",
            spec={"rows": 1000, "duplicate_rate": 0.02, "dirty_rate": 0.01},
            sweep={
                "fe_methods": ("full", "pca", "ae"),
                "dimensions": (5,),
                "models": ("dff", "cnn", "rnn"),
                "folds": 5,
                "train": DEEP_TRAIN,
            },
            tiny={"rows": 300, "train": {"epochs": 1}},
        ),
        Workload(
            name="sweep-shallow",
            why="tree, LR, ROC writing and repeated scaler/SVD fits dominate; nn does nothing",
            spec={"rows": 4000, "duplicate_rate": 0.02, "dirty_rate": 0.01},
            sweep={
                "fe_methods": ("full", "pca", "lda"),
                "dimensions": (1, 2, 3, 4, 5, 6, 8, 10),
                "models": ("dt", "lr", "nb"),
                "folds": 5,
            },
            tiny={"rows": 400},
        ),
        Workload(
            name="ingest-wide",
            why="25k rows x 48 columns: the per-cell cleaning loop of ingest dominates",
            spec={"rows": 25000, "n_informative": 8, "n_noise": 28,
                  "duplicate_rate": 0.02, "dirty_rate": 0.01},
            tiny={"rows": 2000},
        ),
    )
}


def check_sweep(workload: Workload, results_csv: bytes) -> dict:
    """Check one sweep's results.csv; returns cell counts, AUC and digest.

    The file must hold cells x (folds + 1) rows, every status must be
    ``ok`` and every metric must lie in [0, 1]. When a check fails, every
    cell of the repetition counts as failed.
    """
    rows = list(csv.DictReader(io.StringIO(results_csv.decode("utf-8"))))
    cells = workload.n_cells()
    problems = []
    expected_rows = cells * (workload.sweep["folds"] + 1)
    if len(rows) != expected_rows:
        problems.append(f"results.csv has {len(rows)} rows, expected {expected_rows}")
    means = [r for r in rows if r["fold"] == "mean"]
    if any(r["status"] != "ok" for r in rows):
        problems.append("a result row has a status other than ok")
    for r in rows:
        for col in METRIC_COLUMNS:
            if r[col] == "":
                continue
            value = float(r[col])
            if not 0.0 <= value <= 1.0:
                problems.append(f"{col}={value} outside [0, 1] in {r['fe']}:{r['dims']}:{r['model']}")
                break
    pooled = [float(r["auc_pooled"]) for r in means if r["status"] == "ok" and r["auc_pooled"]]
    return {
        "attempted": cells,
        "failed": cells if problems else 0,
        "problems": problems,
        "digest": hashlib.sha256(results_csv).hexdigest(),
        "auc_mean": float(np.mean(pooled)) if pooled else None,
        "fits": sum(r["fold"] != "mean" and r["status"] == "ok" for r in rows),
    }


def check_ingest(fm, synth: dict) -> dict:
    """Check a FeatureMatrix against the generator's exact bookkeeping."""
    problems = []
    if fm.n_samples != synth["unique_rows"]:
        problems.append(f"{fm.n_samples} rows after ingest, generator wrote {synth['unique_rows']} distinct")
    n1 = int((fm.labels == 1).sum())
    if (fm.n_samples - n1, n1) != (synth["class0_rows"], synth["class1_rows"]):
        problems.append(f"class counts {(fm.n_samples - n1, n1)} differ from the generator's")
    attacks = Counter(str(t) for t in fm.attack_types[fm.labels == 1])
    if dict(attacks) != synth["per_attack_counts"]:
        problems.append(f"per-attack counts {dict(attacks)} differ from the generator's")
    if not np.isfinite(fm.values).all():
        problems.append("feature matrix holds non-finite values")
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems}
