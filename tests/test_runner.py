import csv
import json
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from flowbench.ingest import write_csv
from flowbench.nn import TrainConfig
from flowbench.runner import (
    DEFAULT_DIMENSIONS, RESULT_COLUMNS, ExperimentConfig, best_overall, best_per_model,
    derive_seed, load_dataset, read_manifest, run, run_summary,
)
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
    ], ids=lambda v: repr(v) if isinstance(v, dict) else v)
    def test_badly_typed_value_names_field(self, dataset, name, over):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentConfig(dataset_path=str(dataset), **over)

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
        assert len(read_csv(out / "variance" / "synthetic_pca.csv")) == 1 + n_features
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

    def test_resume_matches_uninterrupted(self, dataset, tmp_path):
        full_cfg = small_config(dataset, tmp_path / "full")
        run(full_cfg)

        resumed_dir = tmp_path / "resumed"
        first = small_config(dataset, resumed_dir, models=("dt",))
        run(first)  # completes only the dt cells
        manifest = json.loads((resumed_dir / "manifest.json").read_text())
        assert all(key.endswith(":dt") for key in manifest["completed"])

        second = small_config(dataset, resumed_dir)
        run(second)  # dt cells resumed, nb cells computed fresh
        a = (tmp_path / "full" / "results.csv").read_bytes()
        b = (resumed_dir / "results.csv").read_bytes()
        assert a == b

    def test_mean_rows_have_pooled_auc(self, dataset, tmp_path):
        records = run(small_config(dataset, tmp_path / "out"))
        for r in records:
            if r["fold"] == "mean":
                assert r["auc_pooled"] is not None
            else:
                assert r["auc_pooled"] is None

    def test_impossible_dims_yield_failure_rows(self, dataset, tmp_path):
        records = run(small_config(dataset, tmp_path / "out",
                                   dimensions=(2, 50), models=("nb",),
                                   fe_methods=("pca",)))
        by_dims = {r["dims"]: r for r in records if r["fold"] == "mean"}
        assert by_dims[2]["status"] == "ok"
        assert by_dims[50]["status"] == "failed"
        assert by_dims[50]["error"]

    def test_results_cells_are_manifest_values(self, dataset, tmp_path):
        out = tmp_path / "out"
        run(small_config(dataset, out, dimensions=(2, 50), fe_methods=("full", "pca")))
        records, _ = run_summary(*read_manifest(out))
        rows = read_csv(out / "results.csv")
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 1 + len(records)
        assert any(r["status"] == "failed" for r in records)
        metrics = ("acc", "f1", "dr", "far", "precision", "auc", "auc_pooled")
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
        _, completed = read_manifest(out)
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
        _, completed = read_manifest(out)
        assert len(completed) == 8
        assert all(cell["per_attack"] is None for cell in completed.values())
        assert "Per-attack" not in (out / "summary.txt").read_text()

    def test_subsample_cap(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path / "out", subsample=120)
        fm = load_dataset(config)
        assert fm.n_samples <= 132

    def test_parallel_jobs_match_sequential(self, dataset, tmp_path):
        seq = small_config(dataset, tmp_path / "seq")
        par = small_config(dataset, tmp_path / "par")
        run(seq, jobs=1)
        run(par, jobs=2)
        a = (tmp_path / "seq" / "results.csv").read_bytes()
        b = (tmp_path / "par" / "results.csv").read_bytes()
        assert a == b


class TestSharedFits:
    @pytest.mark.parametrize("fit_global", [False, True])
    def test_scaler_and_svd_fitted_once_per_fold(self, dataset, tmp_path, monkeypatch,
                                                 fit_global):
        import flowbench.runner as runner_mod

        calls = {"fit_scaler": 0, "pca_fit": 0}
        for name in calls:
            real = getattr(runner_mod, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(runner_mod, name, counted)
        config = small_config(dataset, tmp_path / "out", dimensions=(1, 2, 3),
                              models=("nb",), fit_global=fit_global)
        records = run(config)
        assert all(r["status"] == "ok" for r in records)
        # one fit per fold, plus the variance report's fit on all rows;
        # with fit_global the report's fit is the only one
        expected = 1 if fit_global else config.folds + 1
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


class TestFoldIsolation:
    def test_no_statistic_from_test_rows(self, dataset, tmp_path, monkeypatch):
        """Scaler and extractor fits must only ever see training-fold rows."""
        import flowbench.runner as runner_mod

        seen_scaler, seen_pca = [], []
        real_fit_scaler = runner_mod.fit_scaler
        real_pca_fit = runner_mod.pca_fit

        def spy_scaler(fm):
            seen_scaler.append(fm.n_samples)
            return real_fit_scaler(fm)

        def spy_pca(fm, k):
            seen_pca.append(fm.n_samples)
            return real_pca_fit(fm, k)

        monkeypatch.setattr(runner_mod, "fit_scaler", spy_scaler)
        monkeypatch.setattr(runner_mod, "pca_fit", spy_pca)

        config = small_config(dataset, tmp_path / "out", fe_methods=("pca",),
                              dimensions=(2,), models=("nb",), folds=3)
        from flowbench.runner import load_dataset as _load

        n_total = _load(config).n_samples
        run(config)
        # first fit is the descriptive variance report on the full matrix
        assert seen_scaler[0] == n_total and seen_pca[0] == n_total
        for n in seen_scaler[1:] + seen_pca[1:]:
            assert n < n_total

    def test_fit_global_flag_sees_all_rows(self, dataset, tmp_path, monkeypatch):
        import flowbench.runner as runner_mod

        seen = []
        real = runner_mod.fit_scaler

        def spy(fm):
            seen.append(fm.n_samples)
            return real(fm)

        monkeypatch.setattr(runner_mod, "fit_scaler", spy)
        config = small_config(dataset, tmp_path / "out", fe_methods=("full",),
                              models=("nb",), folds=3, fit_global=True)
        from flowbench.runner import load_dataset as _load

        n_total = _load(config).n_samples
        run(config)
        assert all(n == n_total for n in seen)


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
