import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace

import numpy as np
import pytest

from flowbench import runner as runner_mod
from flowbench.evaluate import METRICS, evaluate
from flowbench.extract import pca_fit, pca_width
from flowbench.ingest import write_csv
from flowbench.nn import TrainConfig
from flowbench.runner import (
    DEFAULT_DIMENSIONS, RESULT_COLUMNS, ExperimentConfig, ResultRecord, best_overall,
    best_per_model, derive_seed, load_dataset, pca_dims_reaching, read_manifest, run,
    write_outputs,
)
from flowbench.preprocess import stratified_kfold
from flowbench.schema import get_schema, schema_to_file
from flowbench.synth import SynthSpec, synth_generate
from helpers import full_roc, roc_vertices


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "flows.csv"
    spec = SynthSpec(rows=320, imbalance=0.7, n_informative=3, n_noise=3,
                     duplicate_rate=0.02, dirty_rate=0.01, separation=3.0)
    synth_generate(spec, seed=0, path=path)
    return path


def small_config(dataset, out_dir, **over) -> ExperimentConfig:
    base = dict(
        dataset_path=str(dataset),
        schema_name="synthetic",
        fe_methods=("full", "pca", "lda"),
        dimensions=(2, 3),
        models=("dt", "nb"),
        folds=3,
        seed=7,
        train={"epochs": 2, "batch_size": 64},
        output_dir=str(out_dir),
    )
    base.update(over)
    return ExperimentConfig(**base)


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_defaults(self, dataset):
        cfg = ExperimentConfig(dataset_path=str(dataset))
        assert cfg.dimensions == DEFAULT_DIMENSIONS
        assert cfg.folds == 5

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_path=str(dataset), fe_methods=("magic",))
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_path=str(dataset), models=("svm",))
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_path=str(dataset), folds=1)
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_path=str(dataset), dimensions=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_path=str(dataset), train={"momentum": 0.9})
        with pytest.raises(ValueError, match=r"unknown train override\(s\) \['seed'\]"):
            ExperimentConfig(dataset_path=str(dataset), train={"seed": 1})  # derived per fit

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), "nan"])
    def test_learning_rate_checked_at_construction(self, dataset, rate):
        if not isinstance(rate, str):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="learning_rate"):
            ExperimentConfig(dataset_path=str(dataset), train={"learning_rate": rate})

    def test_valid_learning_rate_accepted(self, dataset):
        assert TrainConfig(learning_rate=0.005).learning_rate == 0.005
        cfg = ExperimentConfig(dataset_path=str(dataset), train={"learning_rate": "0.005"})
        assert cfg.train_config(0).learning_rate == 0.005

    @pytest.mark.parametrize("name, over", [
        ("train.epochs", {"train": {"epochs": 2.7}}),
        ("train.batch_size", {"train": {"batch_size": True}}),
        ("dimensions", {"dimensions": [2.7]}),
        ("folds", {"folds": 2.5}),
        ("subsample", {"subsample": 2.5}),
        ("seed", {"seed": 1.5}),
        ("threshold", {"threshold": "0.5"}),
        ("threshold", {"threshold": float("nan")}),
        ("threshold", {"threshold": 1.5}),
        ("subsample", {"subsample": 0}),
        ("subsample", {"subsample": -5}),
        ("train.epochs", {"train": {"epochs": None}}),
        ("train.learning_rate", {"train": {"learning_rate": [1]}}),
        ("train.learning_rate", {"train": {"learning_rate": "abc"}}),
        ("folds", {"folds": "5"}),
        ("dimensions", {"dimensions": 5}),
        ("train", {"train": None}),
        ("fe_methods", {"fe_methods": "pca"}),
        ("models", {"models": "dt"}),
        ("models", {"models": ["nb", "nb"]}),
        ("fe_methods", {"fe_methods": ["pca", "full", "pca"]}),
        ("dataset_path", {"dataset_path": 3}),  # a file descriptor to open() and close
        ("dataset_path", {"dataset_path": None}),
        ("schema_name", {"schema_name": ["synthetic"]}),
        ("schema_file", {"schema_file": 3}),
        ("output_dir", {"output_dir": ["out"]}),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else v)
    def test_badly_typed_value_names_field(self, dataset, name, over):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentConfig(**{"dataset_path": str(dataset), **over})

    def test_numpy_integers_accepted(self, dataset):
        cfg = ExperimentConfig(dataset_path=str(dataset), folds=np.int64(3), seed=np.int32(4),
                               dimensions=[np.int64(2)], train={"epochs": np.int64(2)})
        assert (cfg.folds, cfg.seed, cfg.dimensions) == (3, 4, (2,))
        assert cfg.train_config(0).epochs == 2
        assert type(cfg.folds) is int and type(cfg.train["epochs"]) is int
        cfg.digest()  # the config serialises to JSON

    def test_file_round_trip(self, dataset, tmp_path):
        cfg = small_config(dataset, tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_file(path)
        assert loaded == cfg

    def test_version_required(self, dataset, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_path": str(dataset)}))
        with pytest.raises(ValueError, match="version"):
            ExperimentConfig.from_file(path)

    def test_non_object_file_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=re.escape(f"{path}: config must be a JSON object")):
            ExperimentConfig.from_file(path, seed=1)

    def test_unknown_key_names_the_file(self, dataset, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, "dataset_path": str(dataset), "bogus": 1,
                                    "fit_global": False}))  # per-fold fitting is the only mode
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unknown config key(s) ['bogus', 'fit_global']")):
            ExperimentConfig.from_file(path)

    def test_bad_field_value_names_the_file(self, dataset, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"version": 1, "dataset_path": {json.dumps(str(dataset))}, '
                        '"threshold": NaN}')
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: threshold must be within [0, 1], got nan")):
            ExperimentConfig.from_file(path)

    def test_missing_key_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing config key(s) ['dataset_path']")):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("key", ["models", "fe_methods"])
    def test_non_string_list_entry_names_the_file(self, dataset, key, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, "dataset_path": str(dataset), key: [["dt"]]}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {key} must be a list of strings, got [['dt']]")):
            ExperimentConfig.from_file(path)

    def test_result_columns_hold_the_metrics(self):
        fold, pooled = RESULT_COLUMNS.index("fold"), RESULT_COLUMNS.index("auc_pooled")
        assert RESULT_COLUMNS[fold + 1:pooled] == METRICS

    def test_derive_seed_stable(self):
        assert derive_seed(1, "pca", 5, "dff", 0) == derive_seed(1, "pca", 5, "dff", 0)
        assert derive_seed(1, "pca", 5) != derive_seed(2, "pca", 5)


class TestRun:
    def test_sweep_outputs(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        pooled = []  # the (probabilities, labels) of each cell's pooled ROC
        real_roc_auc = runner_mod.roc_auc

        def spy_roc_auc(probabilities, labels):
            pooled.append((np.array(probabilities), np.array(labels)))
            return real_roc_auc(probabilities, labels)

        monkeypatch.setattr(runner_mod, "roc_auc", spy_roc_auc)
        out = tmp_path / "out"
        config = small_config(dataset, out)
        records = run(config)
        # cells: full x1 + lda x1 + pca x2  ->  4 groups x 2 models
        means = [r for r in records if r["fold"] == "mean"]
        assert len(means) == 8
        assert all(r["status"] == "ok" for r in means)
        per_fold = [r for r in records if r["fold"] != "mean"]
        assert len(per_fold) == 8 * config.folds
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "variance" / "synthetic_pca.csv").exists()
        assert (out / "variance" / "synthetic_lda.csv").exists()
        assert (out / "best_per_model.csv").exists()
        roc_files = list((out / "roc").glob("*.csv"))
        assert len(roc_files) == 8
        sweep_files = list((out / "sweeps").glob("*.csv"))
        assert len(sweep_files) == 2  # one per model

        assert read_csv(out / "best_per_model.csv")[1:] == [
            [r["dataset"], r["model"], r["fe"], str(r["dims"]),
             *(repr(r[k]) for k in ("acc", "f1", "dr", "far", "auc"))]
            for r in best_per_model(records)
        ]
        for model in config.models:
            rows = sorted((r for r in means if r["model"] == model),
                          key=lambda r: (r["fe"], r["dims"]))
            sweep = read_csv(out / "sweeps" / f"synthetic_{model}.csv")
            assert sweep == [["fe", "dims", "auc"]] + [
                [r["fe"], str(r["dims"]), repr(r["auc"])] for r in rows
            ]
        n_features = next(r["dims"] for r in means if r["fe"] == "full")
        pca_rows = read_csv(out / "variance" / "synthetic_pca.csv")
        assert pca_rows[0] == ["dimension_index", "variance", "cumulative_fraction"]
        assert [row[0] for row in pca_rows[1:]] == [str(i) for i in range(n_features)]
        cumulative = np.array([float(row[2]) for row in pca_rows[1:]])
        assert (np.diff(cumulative) >= 0).all()
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-12)  # every component is kept
        assert read_csv(out / "variance" / "synthetic_lda.csv")[0] == ["dimension_index", "variance"]
        assert len(read_csv(out / "variance" / "synthetic_lda.csv")) == 1 + 1
        # one job: the cells finish in plan order, the order of results.csv
        assert len(pooled) == len(means)
        thinned = 0  # files with fewer points than their full curve
        for r, (probabilities, labels) in zip(means, pooled):
            rows = read_csv(out / "roc" / f"{r['fe']}_{r['dims']}_{r['model']}.csv")
            assert rows[0] == ["far", "dr"]
            far, dr = np.array(rows[1:], dtype=np.float64).T
            assert (far[0], dr[0], far[-1], dr[-1]) == (0.0, 0.0, 1.0, 1.0)
            assert (np.diff(far) >= 0).all() and (np.diff(dr) >= 0).all()
            fp, tp, full_far, full_dr = full_roc(probabilities, labels)
            assert repr(float(np.trapezoid(full_dr, full_far))) == repr(r["auc_pooled"])
            # the file holds exactly the full curve's vertices, in order
            vertices = roc_vertices(fp, tp)
            assert far.tobytes() == full_far[vertices].tobytes()
            assert dr.tobytes() == full_dr[vertices].tobytes()
            thinned += len(vertices) < fp.size
        assert thinned > 0

    def test_full_uses_all_features_lda_one(self, dataset, tmp_path):
        records = run(small_config(dataset, tmp_path / "out"))
        dims_by_fe = {}
        for r in records:
            dims_by_fe.setdefault(r["fe"], set()).add(r["dims"])
        fm = load_dataset(small_config(dataset, tmp_path / "unused"))
        assert dims_by_fe["full"] == {fm.n_features}
        assert dims_by_fe["lda"] == {1}
        assert dims_by_fe["pca"] == {2, 3}

    def test_separable_data_scores_well(self, dataset, tmp_path):
        records = run(small_config(dataset, tmp_path / "out", models=("dt",),
                                   fe_methods=("full",)))
        mean = [r for r in records if r["fold"] == "mean"][0]
        assert mean["auc"] > 0.95

    def test_byte_identical_rerun(self, dataset, tmp_path):
        cfg_a = small_config(dataset, tmp_path / "a")
        cfg_b = small_config(dataset, tmp_path / "b")
        run(cfg_a)
        run(cfg_b)
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_resume_matches_uninterrupted(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        run(small_config(dataset, tmp_path / "full"))
        config = small_config(dataset, tmp_path / "resumed")
        real_group, real_fit = runner_mod.run_group, runner_mod.fit_classifier

        def interrupted_at_lda(fe, *args):
            if fe == "lda":  # the last group: full and both pca groups are done
                raise RuntimeError("interrupted")
            return real_group(fe, *args)

        monkeypatch.setattr(runner_mod, "run_group", interrupted_at_lda)
        with pytest.raises(RuntimeError, match="interrupted"):
            run(config)
        manifest = json.loads((tmp_path / "resumed" / "manifest.json").read_text())
        done = {key.split(":")[0] for key in manifest["completed"]}
        assert done == {"full", "pca"} and len(manifest["completed"]) == 6

        fitted = []  # the input width of each classifier fit of the resumed run; lda has 1

        def counted_fit(spec, train, cfg):
            fitted.append(train.n_features)
            return real_fit(spec, train, cfg)

        monkeypatch.setattr(runner_mod, "run_group", real_group)
        monkeypatch.setattr(runner_mod, "fit_classifier", counted_fit)
        run(config)  # same config: the manifest's cells are kept, only lda runs
        assert fitted == [1] * len(config.models) * config.folds
        a = (tmp_path / "full" / "results.csv").read_bytes()
        b = (tmp_path / "resumed" / "results.csv").read_bytes()
        assert a == b

    def test_fresh_start_drops_the_other_configs_curves(self, dataset, tmp_path):
        out = tmp_path / "out"
        run(small_config(dataset, out, fe_methods=("full",)))
        dt_files = {"roc/full_10_dt.csv", "sweeps/synthetic_dt.csv"}
        (out / "notes.csv").write_text("kept\n", encoding="utf-8")

        def csv_files():
            return {p.relative_to(out).as_posix() for p in out.rglob("*.csv")}

        assert dt_files <= csv_files()
        run(small_config(dataset, out, fe_methods=("full",), models=("nb",)))
        assert not [p for p in csv_files() if p.endswith("_dt.csv")]
        assert {"roc/full_10_nb.csv", "sweeps/synthetic_nb.csv", "notes.csv",
                "variance/synthetic_pca.csv"} <= csv_files()
        assert {row[1] for row in read_csv(out / "results.csv")[1:]} == {"nb"}

    def test_mean_rows_have_pooled_auc(self, dataset, tmp_path):
        records = run(small_config(dataset, tmp_path / "out"))
        for r in records:
            if r["fold"] == "mean":
                assert r["auc_pooled"] is not None
            else:
                assert r["auc_pooled"] is None

    def test_impossible_dims_are_dropped_with_their_reason(self, dataset, tmp_path):
        out = tmp_path / "out"
        records = run(small_config(dataset, out, dimensions=(2, 50), models=("nb",),
                                   fe_methods=("pca", "ae")))
        assert {(r["fe"], r["dims"]) for r in records} == {("pca", 2), ("ae", 2)}
        assert all(r["status"] == "ok" for r in records)
        _, completed, dropped = read_manifest(out)
        assert sorted(completed) == ["ae:2:nb", "pca:2:nb"]
        width = load_dataset(small_config(dataset, out)).n_features  # far below 320 rows
        assert [(d["fe"], d["dims"]) for d in dropped] == [("pca", 50), ("ae", 50)]
        assert all(f"PCA width {width} " in d["reason"] for d in dropped)
        summary = (out / "summary.txt").read_text()
        assert f"  pca:50 -> {dropped[0]['reason']}\n" in summary
        assert f"  ae:50 -> {dropped[1]['reason']}\n" in summary

    def test_dims_bound_follows_the_smallest_training_fold(self):
        config = ExperimentConfig(dataset_path="unused", fe_methods=("full", "pca", "lda", "ae"),
                                  dimensions=(1, 4, 5, 30))
        groups, dropped = runner_mod._group_plan(config, n_features=14, n_train=6)
        assert groups == [("full", 14), ("pca", 1), ("pca", 4), ("lda", 1), ("ae", 1), ("ae", 4)]
        assert [(d["fe"], d["dims"]) for d in dropped] == [
            ("pca", 5), ("pca", 30), ("ae", 5), ("ae", 30)]
        assert dropped[0]["reason"] == (
            "dims 5 is not below the PCA width 5 = min(6 training rows - 1, 14 features)")
        groups, dropped = runner_mod._group_plan(config, n_features=14, n_train=400)
        assert ("pca", 5) in groups and ("ae", 5) in groups
        assert [(d["fe"], d["dims"]) for d in dropped] == [("pca", 30), ("ae", 30)]

    @pytest.mark.parametrize("n_features, n_train", [(14, 6), (4, 400), (9, 10)])
    def test_dims_below_the_pca_width_run(self, n_features, n_train):
        width = pca_width(n_train, n_features)
        config = ExperimentConfig(dataset_path="unused", fe_methods=("pca", "ae"),
                                  dimensions=(width - 1, width))
        groups, dropped = runner_mod._group_plan(config, n_features, n_train)
        assert groups == [("pca", width - 1), ("ae", width - 1)]
        assert [(d["fe"], d["dims"]) for d in dropped] == [("pca", width), ("ae", width)]
        x = np.random.default_rng(n_train).normal(size=(n_train, n_features))
        for k in (0, width + 1):
            with pytest.raises(ValueError, match=rf"^k={k} out of range 1\.\.{width}$"):
                pca_fit(x, k)
        assert [pca_fit(x, k).k for k in range(1, width + 1)] == list(range(1, width + 1))

    def test_results_cells_are_manifest_values(self, dataset, tmp_path, monkeypatch):
        out = tmp_path / "out"
        truncate = runner_mod.pca_truncate

        def failing_at_3(model, k):
            if k == 3:
                raise ValueError("pca 3 failed")
            return truncate(model, k)

        monkeypatch.setattr(runner_mod, "pca_truncate", failing_at_3)
        run(small_config(dataset, out, dimensions=(2, 3), fe_methods=("full", "pca")))
        rows = read_csv(out / "results.csv")
        records = write_outputs(out, *read_manifest(out))
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 1 + len(records)
        assert any(r["status"] == "failed" for r in records)
        metrics = (*METRICS, "auc_pooled")
        for row, rec in zip(rows[1:], records):
            cells = dict(zip(RESULT_COLUMNS, row))
            for col in RESULT_COLUMNS:
                if rec[col] is None:
                    assert cells[col] == ""
                elif col in metrics:
                    assert repr(float(cells[col])) == cells[col]
                    assert float(cells[col]) == rec[col]
                else:
                    assert cells[col] == str(rec[col])

    def test_per_attack_table_in_summary(self, dataset, tmp_path):
        out = tmp_path / "out"
        run(small_config(dataset, out))
        text = (out / "summary.txt").read_text()
        assert "Per-attack detection rate" in text
        for kind in ("dos", "scan", "worm"):
            assert kind in text

    def test_per_attack_counts_every_attack_row_once(self, dataset, tmp_path):
        out = tmp_path / "out"
        config = small_config(dataset, out)
        run(config)
        fm = load_dataset(config)
        names, counts = np.unique(fm.attack_types[fm.labels == 1].astype(str),
                                  return_counts=True)
        attack_rows = dict(zip(names.tolist(), counts.tolist()))
        _, completed, _ = read_manifest(out)
        ok = [cell for cell in completed.values() if cell["records"][-1]["status"] == "ok"]
        assert len(ok) == 8
        for cell in ok:
            table = cell["per_attack"]
            assert {name: actual for name, (actual, _, _) in table.items()} == attack_rows
            for actual, detected, dr in table.values():
                assert dr == detected / actual

    def test_sweep_without_attack_types(self, dataset, tmp_path):
        header, *body = read_csv(dataset)
        keep = [i for i, name in enumerate(header) if name != "attack_type"]
        flows = tmp_path / "flows.csv"
        write_csv(flows, [header[i] for i in keep], ([row[i] for i in keep] for row in body))
        schema = tmp_path / "schema.json"
        schema_to_file(replace(get_schema("synthetic"), attack_type_column=None), schema)
        out = tmp_path / "out"
        config = small_config(flows, out, schema_file=str(schema))
        assert load_dataset(config).attack_types is None
        records = run(config)
        assert records and all(r["status"] == "ok" for r in records)
        _, completed, _ = read_manifest(out)
        assert len(completed) == 8
        assert all(cell["per_attack"] is None for cell in completed.values())
        assert "Per-attack" not in (out / "summary.txt").read_text()

    def test_subsample_cap(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path / "out", subsample=120)
        fm = load_dataset(config)
        assert fm.n_samples == 120

    def test_parallel_jobs_match_sequential(self, dataset, tmp_path):
        seq = small_config(dataset, tmp_path / "seq")
        par = small_config(dataset, tmp_path / "par")
        run(seq, jobs=1)
        run(par, jobs=2)
        a = (tmp_path / "seq" / "results.csv").read_bytes()
        b = (tmp_path / "par" / "results.csv").read_bytes()
        assert a == b

    def test_jobs_start_no_more_workers_than_groups(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        pools = []

        class InlinePool:  # records max_workers and runs each group at submit
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", InlinePool)
        records = run(small_config(dataset, tmp_path / "out"), jobs=64)
        assert pools == [4]  # full, pca 2, pca 3 and lda
        assert all(r["status"] == "ok" for r in records)


class TestVarianceDims:
    """summary.txt names the PCA dims that reach 90% and 95% of the total variance."""

    def test_run_summary_lists_the_dims_of_its_variance_report(self, dataset, tmp_path):
        out = tmp_path / "out"
        run(small_config(dataset, out))
        rows = read_csv(out / "variance" / "synthetic_pca.csv")
        assert rows[0][2] == "cumulative_fraction"
        cumulative = [float(row[2]) for row in rows[1:]]
        want = [next(k + 1 for k, c in enumerate(cumulative) if c >= share) for share in (0.9, 0.95)]
        assert 1 < want[0] < want[1] < len(cumulative)
        assert ("PCA dims reaching a share of the total variance (all rows)\n"
                f"  90%: {want[0]} dims\n  95%: {want[1]} dims\n") in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("cumulative, want", [
        ([0.5, 0.9, 0.96, 1.0], [2, 3]),  # a share is reached where the fraction equals it
        ([0.93, 0.97, 1.0], [1, 2]),
        ([0.91, 1.0], [1, 2]),
        ([0.0, 0.0], [None, None]),  # no variance at all
    ])
    def test_smallest_dims_reaching_each_share(self, tmp_path, cumulative, want):
        path = tmp_path / "synthetic_pca.csv"
        write_csv(path, ["dimension_index", "variance", "cumulative_fraction"],
                  [(k, 0.0, c) for k, c in enumerate(cumulative)])
        assert pca_dims_reaching(path) == list(zip((0.9, 0.95), want))

    def test_no_dims_without_a_cumulative_fraction(self, tmp_path):
        path = tmp_path / "synthetic_pca.csv"
        assert pca_dims_reaching(path) is None
        write_csv(path, ["dimension_index", "variance"], [(0, 1.0), (1, 0.5)])
        assert pca_dims_reaching(path) is None


class TestSharedFits:
    def test_scaler_and_svd_fitted_once_per_fold(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        calls = {"fit_scaler": 0, "pca_fit": 0}
        for name in calls:
            real = getattr(runner_mod, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(runner_mod, name, counted)
        config = small_config(dataset, tmp_path / "out", dimensions=(1, 2, 3),
                              models=("nb",))
        records = run(config)
        assert all(r["status"] == "ok" for r in records)
        # one fit per fold, plus the variance report's fit on all rows
        expected = config.folds + 1
        assert calls == {"fit_scaler": expected, "pca_fit": expected}

    def test_failed_fold_pca_fails_only_pca_cells(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        config = small_config(dataset, tmp_path / "out")
        n_total = load_dataset(config).n_samples
        real = runner_mod.pca_fit

        def failing_on_folds(fm, k):
            if fm.n_samples < n_total:
                raise ValueError("SVD did not converge")
            return real(fm, k)

        monkeypatch.setattr(runner_mod, "pca_fit", failing_on_folds)
        means = [r for r in run(config) if r["fold"] == "mean"]
        assert len(means) == 8
        for r in means:
            if r["fe"] == "pca":
                assert r["status"] == "failed"
                assert r["error"] == "ValueError: SVD did not converge"
            else:
                assert r["status"] == "ok"


def test_cell_rows_are_the_records_as_dicts(dataset):
    """Each manifest row is ``asdict`` of its ResultRecord: every field, in order."""
    config = small_config(dataset, "unused")
    rng = np.random.default_rng(8)
    labels = np.tile([0, 1], 20)
    probs = [rng.random(20), rng.random(20)]
    ok = {"reports": [evaluate(p, labels[:20]) for p in probs], "probs": probs,
          "wall": 0.5, "error": None}
    failed = dict(ok, reports=[], probs=[], error="RuntimeError: boom")
    for cell, folds in ((ok, ["0", "1", "mean"]), (failed, ["mean"])):
        payload, _ = runner_mod._cell_payload("pca", 2, "dt", config, cell, labels, None)
        assert [row["fold"] for row in payload["records"]] == folds
        for row in payload["records"]:
            assert list(row.items()) == list(asdict(ResultRecord(**row)).items())
    assert payload["records"][0]["status"] == "failed"


def test_manifest_config_block_built_once_per_run(dataset, tmp_path, monkeypatch):
    calls = []
    to_dict = ExperimentConfig.to_dict

    def counted(self):
        calls.append(1)
        return to_dict(self)

    monkeypatch.setattr(ExperimentConfig, "to_dict", counted)
    config = small_config(dataset, tmp_path / "out")
    run(config)
    assert len(calls) == 2  # the digest's and the config block's, for all four flushes
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"] == to_dict(config)
    assert manifest["config_digest"] == config.digest()


def test_classifier_failure_stays_in_its_cell(dataset, tmp_path, monkeypatch):
    """A model that raises on one fold fails its own cells and no other."""
    import flowbench.runner as runner_mod

    clean = run(small_config(dataset, tmp_path / "clean"))
    config = small_config(dataset, tmp_path / "out")
    groups = {(r["fe"], r["dims"]) for r in clean}
    fold_1 = {derive_seed(config.seed, fe, dims, "nb", 1) for fe, dims in groups}
    nb_fits = []
    real = runner_mod.fit_classifier

    def failing_nb(spec, train, cfg):
        if spec.kind == "nb":
            nb_fits.append(cfg.seed)
            if cfg.seed in fold_1:
                raise RuntimeError("nb fold 1 failed")
        return real(spec, train, cfg)

    monkeypatch.setattr(runner_mod, "fit_classifier", failing_nb)
    records = run(config)
    assert len(nb_fits) == 2 * len(groups)  # no fit after the failed fold
    nb = [r for r in records if r["model"] == "nb"]
    assert len(nb) == len(groups)
    for r in nb:
        assert (r["fold"], r["status"], r["error"]) == (
            "mean", "failed", "RuntimeError: nb fold 1 failed")
    assert [r for r in records if r["model"] == "dt"] == [
        r for r in clean if r["model"] == "dt"]


def test_non_finite_probability_fails_only_its_cell(dataset, tmp_path, monkeypatch):
    """A model that emits a NaN probability fails its cells at evaluation, no other."""
    import flowbench.runner as runner_mod

    clean = run(small_config(dataset, tmp_path / "clean"))
    real = runner_mod.fit_classifier

    class NanAtRow3:
        def __init__(self, fitted):
            self.fitted = fitted

        def predict_proba(self, fm):
            probs = self.fitted.predict_proba(fm).copy()
            probs[3] = np.nan
            return probs

    def nan_nb(spec, train, cfg):
        fitted = real(spec, train, cfg)
        return NanAtRow3(fitted) if spec.kind == "nb" else fitted

    monkeypatch.setattr(runner_mod, "fit_classifier", nan_nb)
    out = tmp_path / "out"
    records = run(small_config(dataset, out))
    nb = [r for r in records if r["model"] == "nb"]
    assert nb
    for r in nb:
        assert (r["fold"], r["status"], r["error"]) == (
            "mean", "failed", "ValueError: probability at index 3 is not finite: nan")
    assert [r for r in records if r["model"] == "dt"] == [
        r for r in clean if r["model"] == "dt"]
    assert not list((out / "roc").glob("*_nb.csv"))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the crashing classifier reaches the workers only through fork")
def test_crashed_worker_keeps_finished_groups(dataset, tmp_path, monkeypatch):
    """Groups that finished before a worker died are flushed, and a rerun resumes."""
    import flowbench.runner as runner_mod

    uninterrupted = small_config(dataset, tmp_path / "uninterrupted")
    run(uninterrupted)
    config = small_config(dataset, tmp_path / "out")
    width = load_dataset(config).n_features
    others = {f"{fe}:{dims}:{m}" for fe, dims in (("pca", 2), ("pca", 3), ("lda", 1))
              for m in config.models}
    manifest = tmp_path / "out" / "manifest.json"
    real = runner_mod.fit_classifier

    def crash_in_full_group(spec, train, cfg):
        if train.n_features != width:
            return real(spec, train, cfg)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if manifest.exists() and others <= json.loads(manifest.read_text())["completed"].keys():
                break
            time.sleep(0.05)
        os._exit(1)

    monkeypatch.setattr(runner_mod, "fit_classifier", crash_in_full_group)
    with pytest.raises(BrokenProcessPool):
        run(config, jobs=2)
    assert json.loads(manifest.read_text())["completed"].keys() == others

    monkeypatch.undo()
    run(config)
    assert ((tmp_path / "out" / "results.csv").read_bytes()
            == (tmp_path / "uninterrupted" / "results.csv").read_bytes())


def test_import_loads_no_process_pool():
    """concurrent.futures and multiprocessing load only when run(jobs > 1) starts a pool."""
    code = ("import sys, flowbench, flowbench.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(runner_mod.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestFoldIsolation:
    def test_no_statistic_from_test_rows(self, dataset, tmp_path, monkeypatch):
        """Every scaler and extractor fit sees exactly its fold's training rows;
        only the variance report, which feeds no cell, fits on all rows."""
        import flowbench.runner as runner_mod

        seen = {"fit_scaler": [], "pca_fit": [], "lda_fit": [], "ae_fit": []}
        for name, calls in seen.items():
            def spy(fm, *args, _real=getattr(runner_mod, name), _calls=calls):
                _calls.append((fm.n_samples, int(fm.labels.sum())))
                return _real(fm, *args)

            monkeypatch.setattr(runner_mod, name, spy)
        config = small_config(dataset, tmp_path / "out", fe_methods=("pca", "lda", "ae"),
                              dimensions=(2,), models=("nb",), folds=3,
                              train={"epochs": 1, "batch_size": 64})
        fm = load_dataset(config)
        plan = stratified_kfold(fm, config.folds, derive_seed(config.seed, "folds"))
        train_labels = [fm.labels[plan.train_test_indices(f)[0]] for f in range(config.folds)]
        train_rows = [(labels.size, int(labels.sum())) for labels in train_labels]
        records = run(config)
        assert all(r["status"] == "ok" for r in records)
        all_rows = (fm.n_samples, int(fm.labels.sum()))
        for name in ("fit_scaler", "pca_fit", "lda_fit"):  # the variance report's, first
            assert seen[name][0] == all_rows
            assert seen[name][1:] == train_rows, name
        assert seen["ae_fit"] == train_rows

    def test_no_signal_scores_chance(self, tmp_path):
        """Known answer: on features that carry no signal, an LDA fitted on all
        rows reads the test labels and scored 0.672 mean AUC; per fold it is 0.481."""
        path = tmp_path / "noise.csv"
        spec = SynthSpec(rows=600, n_informative=0, n_noise=40, separation=0.0)
        synth_generate(spec, seed=11, path=path)
        config = ExperimentConfig(dataset_path=str(path), fe_methods=("lda",),
                                  models=("lr", "nb"), folds=5, seed=0,
                                  output_dir=str(tmp_path / "out"))
        means = [r for r in run(config) if r["fold"] == "mean"]
        assert [r["model"] for r in means] == ["lr", "nb"]
        for r in means:
            assert r["status"] == "ok" and r["auc"] < 0.6, r


class TestBestSelection:
    def rec(self, model, fe, dims, auc):
        return {"dataset": "synthetic", "model": model, "fe": fe, "dims": dims,
                "fold": "mean", "auc": auc, "status": "ok"}

    def test_single_record(self):
        records = [self.rec("dt", "pca", 5, 0.9)]
        assert best_per_model(records) == records

    def test_argmax_over_dims(self):
        records = [self.rec("dt", "pca", 10, 0.93), self.rec("dt", "pca", 20, 0.95)]
        assert best_per_model(records)[0]["dims"] == 20

    def test_tie_prefers_fewer_dims(self):
        records = [self.rec("dt", "pca", 20, 0.95), self.rec("dt", "pca", 10, 0.95)]
        assert best_per_model(records)[0]["dims"] == 10

    def test_best_overall(self):
        records = [self.rec("dt", "pca", 10, 0.93), self.rec("nb", "lda", 1, 0.97)]
        assert best_overall(records)["model"] == "nb"
