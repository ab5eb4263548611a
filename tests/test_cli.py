import csv
import json
import shutil
from pathlib import Path

import pytest

from flowbench.cli import main
from flowbench.ingest import write_csv
from flowbench.runner import CONFIG_VERSION, best_per_model, read_manifest


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


def test_synth_creates_the_output_directory(tmp_path):
    out = tmp_path / "new" / "nested" / "flows.csv"
    assert main(["synth", "--out", str(out), "--seed", "2"]) == 0
    assert out.exists()
    assert out.with_suffix(".schema.json").exists()
    assert json.loads(out.with_suffix(".bookkeeping.json").read_text())["rows_written"] == 1000


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


def _run_config(synth_csv, tmp_path, out_dir) -> str:
    config = {
        "version": CONFIG_VERSION,
        "dataset_path": str(synth_csv),
        "fe_methods": ["full", "pca", "lda"],
        "dimensions": [2],
        "models": ["dt", "nb"],
        "folds": 3,
        "seed": 3,
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / f"cfg_{out_dir.name}.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path)


DERIVED = ("results.csv", "sweeps/synthetic_dt.csv", "sweeps/synthetic_nb.csv",
           "best_per_model.csv", "summary.txt")


def test_report_recreates_every_table(synth_csv, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", _run_config(synth_csv, tmp_path, out_dir)]) == 0
    assert sorted(p.name for p in (out_dir / "sweeps").iterdir()) == [
        "synthetic_dt.csv", "synthetic_nb.csv"]
    written = {name: (out_dir / name).read_bytes() for name in DERIVED}
    for name in ("results.csv", "best_per_model.csv", "summary.txt"):
        (out_dir / name).unlink()
    shutil.rmtree(out_dir / "sweeps")
    assert main(["report", "--in", str(out_dir)]) == 0
    assert {name: (out_dir / name).read_bytes() for name in DERIVED} == written


def test_report_renders_the_pca_variance_dims(synth_csv, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", _run_config(synth_csv, tmp_path, out_dir)]) == 0
    variance = out_dir / "variance" / "synthetic_pca.csv"
    # a hand-written report: 90% is reached at 2 dims, 95% at 3
    write_csv(variance, ["dimension_index", "variance", "cumulative_fraction"],
              [(0, 0.5, 0.5), (1, 0.4, 0.9), (2, 0.06, 0.96), (3, 0.04, 1.0)])
    results = (out_dir / "results.csv").read_bytes()
    assert main(["report", "--in", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text()
    assert ("\n\nPCA dims reaching a share of the total variance (all rows)\n"
            "  90%: 2 dims\n  95%: 3 dims\n\n") in summary
    assert (out_dir / "results.csv").read_bytes() == results
    variance.unlink()
    assert main(["report", "--in", str(out_dir)]) == 0
    assert "PCA dims" not in (out_dir / "summary.txt").read_text()


def test_report_on_interrupted_run(synth_csv, tmp_path, monkeypatch):
    import flowbench.runner as runner_mod

    full = tmp_path / "full"
    assert main(["run", "--config", _run_config(synth_csv, tmp_path, full)]) == 0
    real_group = runner_mod.run_group

    def interrupted_at_lda(fe, *args):
        if fe == "lda":
            raise RuntimeError("interrupted")
        return real_group(fe, *args)

    monkeypatch.setattr(runner_mod, "run_group", interrupted_at_lda)
    out_dir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["run", "--config", _run_config(synth_csv, tmp_path, out_dir)])
    assert not (out_dir / "results.csv").exists()  # the manifest is all a group writes
    assert main(["report", "--in", str(out_dir)]) == 0
    with open(full / "results.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    done = [row for row in rows if row[header.index("fe")] != "lda"]
    assert len(done) == 2 * 2 * (3 + 1)  # full and pca 2, two models, 3 folds and the mean
    with open(out_dir / "results.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [header, *done]
    summary = (out_dir / "summary.txt").read_text()
    assert f"{len(done)} result record(s)" in summary


def test_default_dimensions_on_a_14_feature_file_give_only_ok_cells(tmp_path, capsys):
    """pca and ae dims of 14 or more cannot reduce 14 features: dropped, not failed."""
    flows = tmp_path / "flows.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rows": 600}))
    assert main(["synth", "--spec", str(spec), "--out", str(flows), "--seed", "1"]) == 0
    out_dir = tmp_path / "out"
    config = {
        "version": CONFIG_VERSION,
        "dataset_path": str(flows),
        "fe_methods": ["pca", "ae"],
        "models": ["nb"],
        "folds": 3,
        "train": {"epochs": 2},
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "0 failed" in capsys.readouterr().out
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kept = (1, 2, 3, 4, 5, 10)
    assert sorted({(r["fe"], int(r["dims"])) for r in rows}) == sorted(
        (fe, d) for fe in ("ae", "pca") for d in kept)
    assert len(rows) == 2 * len(kept) * (3 + 1)
    assert all(r["status"] == "ok" for r in rows)
    _, _, dropped = read_manifest(out_dir)
    assert [(d["fe"], d["dims"]) for d in dropped] == [
        ("pca", 20), ("pca", 30), ("ae", 20), ("ae", 30)]
    summary = (out_dir / "summary.txt").read_text()
    for d in dropped:
        assert f"  {d['fe']}:{d['dims']} -> dims {d['dims']} is not below the PCA width 14 " in (
            summary)


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
    records = [rec for d in dirs for cell in read_manifest(d)[1].values()
               for rec in cell["records"]]
    assert [(r["model"], r["fe"], r["dataset"], r["dims"], r["auc"]) for r in rows] == [
        (b["model"], b["fe"], b["dataset"], str(b["dims"]), repr(b["auc"]))
        for b in best_per_model(records)
    ]


def exits_with_one_line(capsys, argv) -> str:
    """The message of ``main(argv)``'s one stderr line, checked to exit with status 2."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("flowbench: error: ") and err.endswith("\n") and err.count("\n") == 1
    return err[len("flowbench: error: "):-1]


@pytest.mark.parametrize("case", ["malformed-config", "missing-dataset", "bad-schema-file"])
def test_input_error_is_one_line_and_status_2(synth_csv, tmp_path, capsys, case):
    cfg_path = Path(_run_config(synth_csv, tmp_path, tmp_path / "out"))
    config = json.loads(cfg_path.read_text())
    if case == "malformed-config":
        cfg_path.write_text('{"version": 1,')
        named, what = cfg_path, "malformed JSON"
    elif case == "missing-dataset":
        named, what = tmp_path / "absent.csv", "No such file or directory"
        cfg_path.write_text(json.dumps({**config, "dataset_path": str(named)}))
    else:
        named, what = tmp_path / "schema.json", "schema must be a JSON object"
        named.write_text("[]")
        cfg_path.write_text(json.dumps({**config, "schema_file": str(named)}))
    line = exits_with_one_line(capsys, ["run", "--config", str(cfg_path)])
    assert str(named) in line and what in line


def test_missing_run_dir_fails(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--in", str(tmp_path / "nope")])


def test_report_checks_manifest_config_version(synth_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = {
        "version": CONFIG_VERSION,
        "dataset_path": str(synth_csv),
        "fe_methods": ["full"],
        "models": ["nb"],
        "folds": 3,
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    manifest = out_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["version"] = 99
    manifest.write_text(json.dumps(doc))
    assert exits_with_one_line(capsys, ["report", "--in", str(out_dir)]) == (
        f"{manifest}: config version must be {CONFIG_VERSION}, got 99")


@pytest.mark.parametrize("fit_global", [True, False])
def test_report_on_run_from_before_per_fold_only_fitting(synth_csv, tmp_path, fit_global,
                                                        capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", _run_config(synth_csv, tmp_path, out_dir)]) == 0
    written = {name: (out_dir / name).read_bytes() for name in DERIVED}
    manifest = out_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["fit_global"] = fit_global
    manifest.write_text(json.dumps(doc))
    for name in ("results.csv", "best_per_model.csv", "summary.txt"):
        (out_dir / name).unlink()
    shutil.rmtree(out_dir / "sweeps")
    if fit_global:  # its cells were fitted on the test rows too
        assert exits_with_one_line(capsys, ["report", "--in", str(out_dir)]).startswith(
            f"{manifest}: run with fit_global")
    else:
        assert main(["report", "--in", str(out_dir)]) == 0
        assert {name: (out_dir / name).read_bytes() for name in DERIVED} == written


@pytest.mark.parametrize("argv, message", [
    (["--fit-global"], "unrecognized arguments: --fit-global"),
    (["--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
    (["--jobs", "-2"], "argument --jobs: must be at least 1, got -2"),
    (["--jobs", "two"], "argument --jobs: invalid"),
], ids=["fit-global", "jobs-0", "jobs-negative", "jobs-not-a-number"])
def test_run_rejects_bad_flags(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", str(tmp_path / "cfg.json"), *argv])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
