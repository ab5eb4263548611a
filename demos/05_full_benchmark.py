"""End-to-end sweep: every FE method x dimension x model, cross-validated.

The same thing `flowbench run --config ...` does, driven from Python.
Writes results.csv, sweep/variance/ROC CSVs and summary.txt into a
temporary directory, lists them and prints the summary; the directory is
removed when the demo ends.
"""

import tempfile
from pathlib import Path

from flowbench import ExperimentConfig, run
from flowbench.synth import SynthSpec, synth_generate

with tempfile.TemporaryDirectory(prefix="flowbench_demo_") as work:
    csv_path = Path(work) / "flows.csv"
    synth_generate(
        SynthSpec(rows=1200, imbalance=0.75, n_informative=4, n_noise=6,
                  duplicate_rate=0.05, dirty_rate=0.02, separation=2.5),
        seed=3, path=csv_path,
    )

    config = ExperimentConfig(
        dataset_path=str(csv_path),
        schema_name="synthetic",
        fe_methods=("full", "pca", "lda", "ae"),
        dimensions=(1, 2, 3, 5),
        models=("dff", "dt", "lr", "nb"),
        folds=3,
        seed=0,
        train={"epochs": 6, "batch_size": 128, "learning_rate": 0.005},
        output_dir=str(Path(work) / "out"),
    )

    records = run(config)
    means = [r for r in records if r["fold"] == "mean" and r["status"] == "ok"]
    print(f"\n{len(means)} (fe, dims, model) cells evaluated; outputs in {config.output_dir}")
    for name in sorted(p.name for p in Path(config.output_dir).iterdir()):
        print(f"  {name}")

    print()
    print((Path(config.output_dir) / "summary.txt").read_text())
