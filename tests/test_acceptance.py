"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Criterion 11 needs a real UNSW-NB15 CSV and is skipped unless
FLOWBENCH_UNSW_CSV points at one.
"""

import os
import time

import numpy as np
import pytest

from flowbench.classifiers import ClassifierSpec, best_split, dt_fit, dt_score, fit_predict, gnb_fit, gnb_score
from flowbench.evaluate import ConfusionCounts, metrics, roc_auc
from flowbench.extract import lda_fit, lda_transform, pca_fit, pca_transform, variance_report
from flowbench.ingest import FeatureMatrix
from flowbench.nn import LayerSpec, TrainConfig, build_network
from flowbench.preprocess import class_weights, stratified_kfold, stratified_split
from flowbench.runner import ExperimentConfig, run
from flowbench.synth import SynthSpec, synth_generate

from helpers import blobs
from test_classifiers import bayes_oracle, exhaustive_best_split
from test_evaluate import rank_statistic_auc
from test_extract import covariance_eig_oracle, match_up_to_sign
from test_nn_gradcheck import finite_difference, max_relative_error, network_gradients


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


GRAD_NETS = {
    "dense": ([LayerSpec("dense", units=6, activation="relu"),
               LayerSpec("dense", units=1, activation="sigmoid")], 5),
    "conv1d": ([LayerSpec("conv1d", units=3, kernel_size=3, activation="relu"),
                LayerSpec("conv1d", units=2, kernel_size=2, activation="sigmoid"),
                LayerSpec("flatten"),
                LayerSpec("dense", units=1, activation="sigmoid")], 9),
    "avgpool": ([LayerSpec("conv1d", units=3, kernel_size=2, activation="relu"),
                 LayerSpec("avgpool1d", pool_size=2),
                 LayerSpec("flatten"),
                 LayerSpec("dense", units=1, activation="sigmoid")], 9),
    "lstm": ([LayerSpec("lstm", units=4),
              LayerSpec("dense", units=1, activation="sigmoid")], 6),
}


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    rng_master = np.random.default_rng(0)
    for kind, (specs, input_dim) in GRAD_NETS.items():
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = build_network(specs, input_dim,
                                rng=np.random.default_rng(10_000 + seed), dtype=np.float64)
            x = rng.random((5, input_dim))
            targets = rng.integers(0, 2, 5).astype(float)[:, None]
            weights = rng.uniform(0.5, 2.0, 5)
            analytic = network_gradients(net, x, targets, weights)
            numeric = finite_difference(net, x, targets, weights)
            worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    report(1, "analytic gradients match central finite differences",
           worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s for 4 kinds x 20 seeds")


def test_criterion_2_pca_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    worst_trace = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, d)
        k = min(n - 1, d)
        model = pca_fit(x, k)
        evals, evecs = covariance_eig_oracle(x)
        worst_gap = max(worst_gap,
                        float(np.abs(model.explained_variance - evals[:k]).max()))
        match_up_to_sign(model.components, evecs[:k])
        assert (np.diff(model.explained_variance) <= 1e-12).all()
        worst_trace = max(
            worst_trace,
            abs(model.total_variance - float(x.var(axis=0, ddof=1).sum())),
        )
    report(2, "PCA equals covariance eigendecomposition (100 matrices <= 8x6)",
           worst_gap < 1e-8 and worst_trace < 1e-6,
           f"max eigenvalue gap {worst_gap:.2e}, max trace gap {worst_trace:.2e}")


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, n) / 5.0  # heavy ties
        else:
            scores = rng.random(n)
        _, auc = roc_auc(scores, labels)
        worst = max(worst, abs(auc - rank_statistic_auc(scores, labels)))
    _, hand = roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    report(3, "trapezoidal AUC equals pairwise rank statistic (1000 instances)",
           worst < 1e-12 and hand == 0.75,
           f"max |gap| {worst:.2e}, hand-enumerable case {hand}")


def test_criterion_4_metric_formulas():
    m = metrics(ConfusionCounts(tp=50, tn=40, fp=5, fn=5))
    expected = {"acc": 0.90, "dr": 0.9091, "far": 0.1111,
                "precision": 0.9091, "f1": 0.9091}
    gaps = {k: abs(getattr(m, k) - v) for k, v in expected.items()}
    report(4, "metrics((50,40,5,5)) match the published formulas within 5e-5",
           all(g < 5e-5 for g in gaps.values()),
           ", ".join(f"{k} off {g:.1e}" for k, g in gaps.items()))


def test_criterion_5_class_weight_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n0 = int(rng.integers(1, 2000))
        n1 = int(rng.integers(1, 2000))
        labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        w = class_weights(labels)
        n = n0 + n1
        worst = max(worst, abs(w.w0 * n0 + w.w1 * n1 - n) / np.spacing(float(n)))
    unsw = class_weights(
        np.concatenate([np.zeros(2218761 // 997, dtype=int),
                        np.ones(321283 // 997, dtype=int)])
    )
    # exact ratio check at the published counts, without 2.5M rows in memory
    w1_exact = 2_540_044 / (2 * 321_283)
    report(5, "w0*n0 + w1*n1 = n on 1000 random splits; published w1 value",
           worst <= 4.0 and abs(w1_exact - 3.9529) < 1e-3,
           f"worst gap {worst:.1f} ulp; w1 {w1_exact:.4f} (subsampled fit {unsw.w1:.4f})")


def test_criterion_6_stratified_folding():
    rng = np.random.default_rng(4)
    ok = True
    for trial in range(500):
        n1 = int(rng.integers(5, 80))
        n0 = int(rng.integers(n1, 400))
        values = rng.random((n0 + n1, 1))
        labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        fm = FeatureMatrix(values=values, feature_names=["f0"], labels=labels)
        plan = stratified_kfold(fm, 5, seed=trial)
        p_global = n1 / (n0 + n1)
        for f in range(5):
            sel = plan.assignments == f
            gap = abs((labels[sel] == 1).mean() - p_global)
            if gap > 1.0 / sel.sum() + 1e-12:
                ok = False
    report(6, "5-fold plans keep class-1 share within one sample of global "
              "(500 random imbalanced datasets)", ok)


def test_criterion_7_cart_exactness():
    rng = np.random.default_rng(5)
    agree = True
    for trial in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        if trial % 2:
            x = rng.integers(0, 4, size=(n, d)).astype(float)  # tie-heavy
        else:
            x = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, 2, n)
        got = best_split(x, y)
        want = exhaustive_best_split(x, y)
        if (got is None) != (want is None):
            agree = False
        elif got is not None and (got[0] != want[0] or got[1] != want[1]):
            agree = False
    # consistent data trains to purity
    fm = blobs(n0=60, n1=60, d=3, seed=6)
    tree = dt_fit(fm)
    train_acc = float(((dt_score(tree, fm) >= 0.5).astype(int) == fm.labels).mean())
    # the hand-enumerable 1-D case
    hand = dt_fit(FeatureMatrix(values=np.array([[0.0], [1.0], [2.0], [3.0]]),
                                feature_names=["f0"],
                                labels=np.array([0, 0, 1, 1])))
    report(7, "root split equals exhaustive Gini argmin; consistent data is "
              "memorized",
           agree and train_acc == 1.0 and hand.threshold[0] == 1.5,
           f"500 enumerations, train acc {train_acc:.3f}, hand threshold {hand.threshold[0]}")


def test_criterion_8_gnb_closed_form():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 25))
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(n, d)) * rng.uniform(0.2, 4.0, d)
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        fm = FeatureMatrix(values=x, feature_names=[f"f{i}" for i in range(d)], labels=y)
        model = gnb_fit(fm)
        got = gnb_score(model, fm)
        worst = max(worst, float(np.abs(got - bayes_oracle(model, x)).max()))
    report(8, "GNB posteriors match the closed-form Bayes oracle (100 instances)",
           worst < 1e-10, f"max |gap| {worst:.2e}")


def test_criterion_9_lda_single_dimension():
    fm = blobs(n0=600, n1=400, d=8, separation=4.0, informative=[2], seed=8)
    model = lda_fit(fm)
    alignment = abs(model.projection[0, 2])
    scores = lda_transform(fm, model).values[:, 0]
    _, auc = roc_auc(scores, fm.labels)
    report(9, "LDA aligns with the single informative feature and ranks well",
           alignment > 0.99 and auc > 0.95,
           f"|w . e_informative| {alignment:.4f}, AUC {auc:.4f}")


def _variance_concentration_data(seed=9):
    rng = np.random.default_rng(seed)
    n = 2400
    labels = (rng.random(n) < 0.4).astype(int)
    informative = rng.normal(scale=1.0, size=(n, 3)) * 4.0
    informative[labels == 1, :] += 6.0
    noise = rng.normal(scale=0.3, size=(n, 27))
    x = np.hstack([informative, noise])
    return FeatureMatrix(values=x, feature_names=[f"f{i}" for i in range(30)],
                         labels=labels)


def test_criterion_10_variance_concentration():
    # PCA runs on the raw construction: min-max scaling would equalize the
    # per-feature variances and erase the planted 3-vs-27 structure
    fm = _variance_concentration_data()
    train, test = stratified_split(fm, 0.3, seed=0)

    full_model = pca_fit(train, 29)
    rep = variance_report(pca_transform(train, full_model), "pca",
                          total_variance=full_model.total_variance)
    concentration = float(rep.cumulative_fraction[9])

    aucs = {}
    for dims in (10, 20):
        model = pca_fit(train, dims)
        tr = pca_transform(train, model)
        te = pca_transform(test, model)
        for kind in ("dff", "dt"):
            cfg = TrainConfig(epochs=12, batch_size=128, learning_rate=0.005, seed=1)
            probs = fit_predict(ClassifierSpec(kind=kind), tr, te, cfg)
            _, auc = roc_auc(probs, te.labels)
            aucs[(kind, dims)] = auc
    dff_gain = aucs[("dff", 20)] - aucs[("dff", 10)]
    dt_gain = aucs[("dt", 20)] - aucs[("dt", 10)]
    report(10, "first 10 PCA dims carry >90% variance; dims 20 adds <0.02 AUC",
           concentration > 0.9 and dff_gain < 0.02 and dt_gain < 0.02,
           f"cumulative@10 {concentration:.3f}, dff gain {dff_gain:+.4f}, "
           f"dt gain {dt_gain:+.4f}")


@pytest.mark.skipif(
    "FLOWBENCH_UNSW_CSV" not in os.environ,
    reason="optional: set FLOWBENCH_UNSW_CSV to a downloaded UNSW-NB15 CSV",
)
def test_criterion_11_unsw_directional(tmp_path):
    config = ExperimentConfig(
        dataset_path=os.environ["FLOWBENCH_UNSW_CSV"],
        schema_name="unsw-nb15",
        fe_methods=("full",),
        dimensions=(20,),
        models=("dt", "dff"),
        folds=5,
        seed=0,
        subsample=100_000,
        train={"epochs": 5, "batch_size": 512},
        output_dir=str(tmp_path / "unsw"),
    )
    records = run(config)
    by_model = {r["model"]: r for r in records if r["fold"] == "mean"}
    dt_auc = by_model["dt"]["auc"]
    dff_auc = by_model["dff"]["auc"]
    report(11, "UNSW-NB15 directional reproduction (full features, 100k rows)",
           dt_auc >= 0.90 and dff_auc >= 0.95,
           f"dt AUC {dt_auc:.4f} (target >=0.90), dff AUC {dff_auc:.4f} (target >=0.95)")


def test_criterion_12_end_to_end_determinism(tmp_path):
    data_path = tmp_path / "flows.csv"
    synth_generate(SynthSpec(rows=300, imbalance=0.7, n_informative=3, n_noise=3,
                             separation=3.0, duplicate_rate=0.02, dirty_rate=0.01),
                   seed=4, path=data_path)
    outputs = []
    for name in ("one", "two"):
        config = ExperimentConfig(
            dataset_path=str(data_path),
            schema_name="synthetic",
            fe_methods=("full", "pca", "lda", "ae"),
            dimensions=(2,),
            models=("dff", "dt", "nb"),
            folds=3,
            seed=11,
            train={"epochs": 2, "batch_size": 64},
            output_dir=str(tmp_path / name),
        )
        run(config)
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    report(12, "same config + seed reproduces results.csv byte-for-byte",
           outputs[0] == outputs[1],
           f"{len(outputs[0])} bytes compared")
