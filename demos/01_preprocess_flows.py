"""Walk a raw flow CSV through every cleaning stage, narrated.

Generates a small synthetic capture (duplicates, dirty cells, Boolean
tokens, categorical strings, identifier columns included), then shows
what each pipeline stage removes or rewrites.
"""

import tempfile
from pathlib import Path

import numpy as np

from flowbench import (
    apply_scaler, class_weights, clean_values, deduplicate, drop_identifiers,
    encode_categoricals, fit_scaler, load_csv, stratified_kfold, stratified_split,
)
from flowbench.synth import SynthSpec, schema_for, synth_generate

spec = SynthSpec(rows=600, imbalance=0.75, n_informative=4, n_noise=4,
                 duplicate_rate=0.08, dirty_rate=0.03, separation=2.5)
schema = schema_for(spec)
with tempfile.TemporaryDirectory(prefix="flowbench_demo_") as work:
    csv_path = Path(work) / "capture.csv"
    bookkeeping = synth_generate(spec, seed=42, path=csv_path)
    print(f"generated {bookkeeping.rows_written} rows "
          f"({bookkeeping.duplicate_rows} duplicates, {bookkeeping.dirty_cells} dirty cells)")
    table = load_csv(csv_path, schema)

print(f"\nloaded: {table.n_rows} rows x {len(table.columns)} columns")
print(f"  columns: {table.columns[:8]} ...")

table = drop_identifiers(table, schema)
print(f"\nafter identifier drop: {len(table.columns)} columns "
      f"(IPs/ports/timestamps carry attacker identity, not behaviour)")

table = deduplicate(table)
print(f"after deduplication: {table.n_rows} rows "
      f"(removed exactly {bookkeeping.duplicate_rows} copies)")

table, emap = encode_categoricals(table, schema)
print("\ncategorical encodings (lexicographic, deterministic):")
for col, cmap in emap.maps.items():
    print(f"  {col}: {cmap}")

fm = clean_values(table, schema)
print(f"\ncleaned matrix: {fm.n_samples} x {fm.n_features}, all finite: "
      f"{np.isfinite(fm.values).all()}")
print(f"  class balance: {np.bincount(fm.labels).tolist()} (benign/attack)")

train, test = stratified_split(fm, test_fraction=0.3, seed=0)
scaler = fit_scaler(train)
train_s = apply_scaler(train, scaler)
test_s = apply_scaler(test, scaler)
print(f"\nstratified split: train {train.n_samples}, test {test.n_samples}")
print(f"  scaled train range: [{train_s.values.min():.3f}, {train_s.values.max():.3f}]")
print(f"  scaled test range:  [{test_s.values.min():.3f}, {test_s.values.max():.3f}] (clipped)")

plan = stratified_kfold(fm, k=5, seed=0)
shares = [float((fm.labels[plan.assignments == f] == 1).mean()) for f in range(5)]
print(f"\n5-fold class-1 shares: {[round(s, 4) for s in shares]} "
      f"(global {float((fm.labels == 1).mean()):.4f})")

weights = class_weights(fm.labels)
print(f"\ninverse-frequency class weights: w0={weights.w0:.4f}, w1={weights.w1:.4f}")
n0, n1 = np.bincount(fm.labels)
print(f"  identity check: w0*n0 + w1*n1 = {weights.w0 * n0 + weights.w1 * n1:.6f} "
      f"(n = {fm.n_samples})")
