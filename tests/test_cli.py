import csv
import json

import pytest

from flowbench.cli import main
from flowbench.runner import CONFIG_VERSION


@pytest.fixture()
def synth_csv(tmp_path):
    out = tmp_path / "flows.csv"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "rows": 260, "imbalance": 0.7, "n_informative": 3, "n_noise": 3,
        "separation": 3.0, "duplicate_rate": 0.02,
    }))
    code = main(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "1"])
    assert code == 0
    return out


def test_synth_writes_sidecars(synth_csv):
    assert synth_csv.exists()
    schema = synth_csv.with_suffix(".schema.json")
    bookkeeping = synth_csv.with_suffix(".bookkeeping.json")
    assert schema.exists() and bookkeeping.exists()
    doc = json.loads(bookkeeping.read_text())
    assert doc["rows_written"] == 260


def test_run_and_report(synth_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = {
        "version": CONFIG_VERSION,
        "dataset_path": str(synth_csv),
        "schema_name": "synthetic",
        "fe_methods": ["full", "lda"],
        "dimensions": [2],
        "models": ["dt", "nb"],
        "folds": 3,
        "seed": 3,
        "train": {"epochs": 2},
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    captured = capsys.readouterr()
    assert "run complete" in captured.out

    written = (out_dir / "summary.txt").read_bytes()
    assert b"Per-attack detection rate" in written
    code = main(["report", "--in", str(out_dir)])
    assert code == 0
    assert (out_dir / "summary.txt").read_bytes() == written


def test_run_flag_overrides(synth_csv, tmp_path):
    out_a = tmp_path / "a"
    config = {
        "version": CONFIG_VERSION,
        "dataset_path": str(synth_csv),
        "schema_name": "synthetic",
        "fe_methods": ["full"],
        "models": ["nb"],
        "folds": 3,
        "seed": 3,
        "output_dir": str(tmp_path / "ignored"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--out", str(out_a),
                 "--seed", "9", "--subsample", "150"])
    assert code == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["subsample"] == 150
    assert manifest["config"]["output_dir"] == str(out_a)


def test_cross_dataset_report(synth_csv, tmp_path):
    # the same file under two schema names: each name is one dataset
    schema_file = str(synth_csv.with_suffix(".schema.json"))
    dirs = []
    for i, (name, schema) in enumerate((("synthetic", None), ("other", schema_file))):
        out_dir = tmp_path / name
        config = {
            "version": CONFIG_VERSION,
            "dataset_path": str(synth_csv),
            "schema_name": name,
            "schema_file": schema,
            "fe_methods": ["full", "lda"],
            "models": ["dt", "nb"],
            "folds": 3,
            "seed": i,
            "output_dir": str(out_dir),
        }
        cfg_path = tmp_path / f"cfg_{name}.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path)]) == 0
        dirs.append(str(out_dir))
    assert main(["report", "--in", *dirs]) == 0
    with open(tmp_path / "synthetic" / "cross_dataset.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["model", "fe", "dataset", "dims", "auc"]
    for dataset in ("synthetic", "other"):
        cells = {(r["model"], r["fe"]) for r in rows if r["dataset"] == dataset}
        assert len(cells) == 4 == sum(r["dataset"] == dataset for r in rows)
    assert len(rows) == 8


def test_missing_run_dir_fails(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--in", str(tmp_path / "nope")])
