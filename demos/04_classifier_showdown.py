"""All six classifiers on one synthetic NIDS dataset, one table.

Uses the same preprocessing a real run would: clean, stratified split,
train-only scaler fit, then fit/score each model and print the usual
metric columns.
"""

import tempfile
from pathlib import Path

from flowbench import (
    ClassifierSpec, TrainConfig, apply_scaler, evaluate, fit_predict, fit_scaler,
    load_feature_matrix, per_attack_dr, stratified_split,
)
from flowbench.synth import SynthSpec, schema_for, synth_generate

spec = SynthSpec(rows=2500, imbalance=0.8, n_informative=5, n_noise=5,
                 duplicate_rate=0.03, dirty_rate=0.01, separation=2.2)
with tempfile.TemporaryDirectory(prefix="flowbench_demo_") as work:
    csv_path = Path(work) / "flows.csv"
    synth_generate(spec, seed=7, path=csv_path)
    fm, _ = load_feature_matrix(csv_path, schema_for(spec))

train, test = stratified_split(fm, test_fraction=0.3, seed=0)
scaler = fit_scaler(train)
train_s = apply_scaler(train, scaler)
test_s = apply_scaler(test, scaler)
print(f"train {train_s.n_samples} x {train_s.n_features}, test {test_s.n_samples}")

cfg = TrainConfig(epochs=10, batch_size=128, learning_rate=0.005, seed=1)
print(f"\n{'model':<6} {'ACC':>8} {'F1':>6} {'DR':>8} {'FAR':>8} {'AUC':>8}")
print("-" * 48)
for kind in ("dff", "cnn", "rnn", "dt", "lr", "nb"):
    probs = fit_predict(ClassifierSpec(kind=kind), train_s, test_s, cfg)
    r = evaluate(probs, test_s.labels)
    print(f"{kind:<6} {r.acc:>7.2%} {r.f1:>6.2f} {r.dr:>7.2%} {r.far:>7.2%} {r.auc:>8.4f}")

probs = fit_predict(ClassifierSpec(kind="dt"), train_s, test_s, cfg)
table = per_attack_dr(probs, test_s.labels, test_s.attack_types)
print("\nper-attack detection rates (decision tree):")
for name, (actual, detected, dr) in table.items():
    print(f"  {name:<8} {detected:>4}/{actual:<4} -> {dr:.2%}")
