"""Experiment orchestration: the FE x dimensions x model sweep.

A run loads one dataset and builds a stratified fold plan. Per fold it
fits the scaler, and PCA at full width, on the training portion only;
every (fe, dims) group shares those fold fits, a PCA group taking the
top-dims prefix of the one SVD. A group then fits its LDA or AE per fold,
transforms both portions, trains each classifier and evaluates the
held-out fold. Records flush to disk after every group, so an
interrupted sweep resumes from its manifest and reproduces the
uninterrupted byte-identical results.csv.

Every random draw derives from a stable hash of (seed, cell identity),
making results independent of scheduling and of which cells already ran.
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classifiers import ALL_KINDS, ClassifierSpec, fit_classifier
from .evaluate import RocCurve, aggregate_folds, evaluate, per_attack_dr, roc_auc
from .extract import (
    PcaModel, ae_encode, ae_fit, lda_fit, lda_transform, pca_fit, pca_transform,
    pca_truncate, variance_report,
)
from .ingest import FeatureMatrix, load_feature_matrix, write_csv
from .nn.network import TrainConfig
from .preprocess import (
    FoldPlan, ScalerModel, apply_scaler, fit_scaler, stratified_kfold, stratified_subsample,
)
from .schema import get_schema, schema_from_file

log = logging.getLogger(__name__)

FE_METHODS = ("full", "pca", "lda", "ae")
DEFAULT_DIMENSIONS = (1, 2, 3, 4, 5, 10, 20, 30)
CONFIG_VERSION = 1


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, float, string or None raises, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _learning_rate(value) -> float:
    """``train.learning_rate`` as a float; a numeric string is also taken."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"train.learning_rate must be a number, got {value!r}") from None
    _real("train.learning_rate", value)
    return float(value)


@dataclass
class ExperimentConfig:
    dataset_path: str
    schema_name: str = "synthetic"
    schema_file: str | None = None
    fe_methods: tuple[str, ...] = FE_METHODS
    dimensions: tuple[int, ...] = DEFAULT_DIMENSIONS
    models: tuple[str, ...] = ALL_KINDS
    folds: int = 5
    seed: int = 0
    subsample: int | None = None
    fit_global: bool = False
    threshold: float = 0.5
    train: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        for name in ("fe_methods", "dimensions", "models"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            if name != "dimensions" and len(set(value)) < len(value):  # cells would run twice
                raise ValueError(f"{name} must be a list without repeats, got {value!r}")
        self.fe_methods = tuple(self.fe_methods)
        self.dimensions = tuple(_integer("dimensions", d) for d in self.dimensions)
        self.folds = _integer("folds", self.folds)
        self.seed = _integer("seed", self.seed)
        if self.subsample is not None:
            self.subsample = _integer("subsample", self.subsample)
        _real("threshold", self.threshold)
        self.models = tuple(self.models)
        bad = set(self.fe_methods) - set(FE_METHODS)
        if bad:
            raise ValueError(f"unknown fe_methods {sorted(bad)}; choose from {FE_METHODS}")
        bad = set(self.models) - set(ALL_KINDS)
        if bad:
            raise ValueError(f"unknown models {sorted(bad)}; choose from {ALL_KINDS}")
        if any(d < 1 for d in self.dimensions):
            raise ValueError("dimensions must all be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not isinstance(self.train, dict):
            raise ValueError(f"train must be an object, got {self.train!r}")
        unknown = set(self.train) - {"epochs", "batch_size", "learning_rate"}
        if unknown:
            raise ValueError(f"unknown train override(s) {sorted(unknown)}")
        self.train = dict(self.train)
        for key in ("epochs", "batch_size"):
            if key in self.train:
                self.train[key] = _integer(f"train.{key}", self.train[key])
        if "learning_rate" in self.train:
            self.train["learning_rate"] = _learning_rate(self.train["learning_rate"])
        self.train_config(0)  # TrainConfig validates the overrides

    @classmethod
    def from_dict(cls, raw: dict, source) -> "ExperimentConfig":
        """A config from its JSON form; ``source`` names the file in errors."""
        raw = dict(raw)
        version = raw.pop("version", None)
        if version != CONFIG_VERSION:
            raise ValueError(
                f"{source}: config version must be {CONFIG_VERSION}, got {version!r}"
            )
        return cls(**raw)

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(raw, path)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["version"] = CONFIG_VERSION
        doc["fe_methods"] = list(self.fe_methods)
        doc["dimensions"] = list(self.dimensions)
        doc["models"] = list(self.models)
        return doc

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **self.train)


@dataclass
class ResultRecord:
    dataset: str
    model: str
    fe: str
    dims: int
    fold: str  # "0".."k-1" or "mean"
    acc: float | None = None
    f1: float | None = None
    dr: float | None = None
    far: float | None = None
    precision: float | None = None
    auc: float | None = None
    auc_pooled: float | None = None
    status: str = "ok"
    error: str | None = None


# a failed cell's error text goes to manifest.json and summary.txt only
RESULT_COLUMNS = tuple(f.name for f in fields(ResultRecord) if f.name != "error")
SWEEP_COLUMNS = ("fe", "dims", "auc")
BEST_COLUMNS = ("dataset", "model", "fe", "dims", "acc", "f1", "dr", "far", "auc")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from string parts (never Python's salted hash)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def load_dataset(config: ExperimentConfig) -> FeatureMatrix:
    if config.schema_file:
        schema = schema_from_file(config.schema_file)
    else:
        schema = get_schema(config.schema_name)
    fm, _ = load_feature_matrix(config.dataset_path, schema)
    if config.subsample is not None:
        fm = stratified_subsample(fm, config.subsample, derive_seed(config.seed, "subsample"))
    return fm


def _group_plan(config: ExperimentConfig, n_features: int):
    """(fe, dims) groups in config order; full uses all features, lda one."""
    groups = []
    for fe in config.fe_methods:
        if fe == "full":
            groups.append((fe, n_features))
        elif fe == "lda":
            groups.append((fe, 1))
        else:
            for dims in sorted(set(config.dimensions)):
                groups.append((fe, dims))
    return groups


@dataclass
class FoldFit:
    """One fold's rows and the fits that all its groups share.

    A fit that raised holds its exception; per-fold ``pca`` is None when
    no pending group uses PCA.
    """

    train_idx: np.ndarray
    test_idx: np.ndarray
    scaler: ScalerModel | Exception
    pca: PcaModel | Exception | None


def _full_pca(scaled: FeatureMatrix) -> PcaModel:
    return pca_fit(scaled, min(scaled.n_samples - 1, scaled.n_features))


def _attempt(fit):
    """fit(), or the exception it raised: a failed fold fit fails only the groups using it."""
    try:
        return fit()
    except Exception as exc:
        return exc


def _fitted(fit):
    """A shared fit, or the exception it raised, raised again for this group."""
    if isinstance(fit, Exception):
        raise fit.with_traceback(None)  # no traceback chained over every failing group
    return fit


def _fold_fits(config: ExperimentConfig, fm: FeatureMatrix, plan: FoldPlan,
               with_pca: bool, global_fit) -> list[FoldFit]:
    """Each fold's rows with the scaler and full-width PCA of its training
    rows; with ``fit_global`` every fold shares ``global_fit``, the
    (scaler, PCA) pair fitted on all rows."""
    fits = []
    for fold in range(config.folds):
        train_idx, test_idx = plan.train_test_indices(fold)
        scaler, pca = global_fit
        if not config.fit_global:
            train = fm.take(train_idx)
            scaler = _attempt(lambda: fit_scaler(train))
            pca = None
            if with_pca:
                pca = _attempt(lambda: _full_pca(apply_scaler(train, _fitted(scaler))))
        fits.append(FoldFit(train_idx, test_idx, scaler, pca))
    return fits


def _fit_extractor(fe, dims, fold_fit: FoldFit, train_s, config, fold_tag):
    if fe == "full":
        return None
    if fe == "pca":
        return pca_truncate(_fitted(fold_fit.pca), dims)
    if fe == "lda":
        return lda_fit(train_s)
    seed = derive_seed(config.seed, fe, dims, fold_tag, "extractor")
    return ae_fit(train_s, dims, config.train_config(seed))


def _apply_extractor(fe, model, fm):
    if fe == "full":
        return fm
    if fe == "pca":
        return pca_transform(fm, model)
    if fe == "lda":
        return lda_transform(fm, model)
    return ae_encode(fm, model)


def run_group(fe, dims, config: ExperimentConfig, fm: FeatureMatrix,
              fold_fits: list[FoldFit], pending_models):
    """Evaluate every pending model of one (fe, dims) group across all folds.

    Returns {model: cell_result_dict}; the fitted extractor is shared by
    the group's models within each fold.
    """
    out = {model: {"reports": [], "probs": [], "wall": 0.0, "error": None}
           for model in pending_models}
    group_error = None
    for fold, fit in enumerate(fold_fits):
        try:
            scaler = _fitted(fit.scaler)
            train_s = apply_scaler(fm.take(fit.train_idx), scaler)
            test_s = apply_scaler(fm.take(fit.test_idx), scaler)
            if not config.fit_global:
                extractor = _fit_extractor(fe, dims, fit, train_s, config, fold)
            elif fold == 0:  # with --fit-global one fit on all rows serves every fold
                extractor = _fit_extractor(
                    fe, dims, fit, apply_scaler(fm, scaler), config, "global"
                )
            train_z = _apply_extractor(fe, extractor, train_s)
            test_z = _apply_extractor(fe, extractor, test_s)
        except Exception as exc:  # extractor failure poisons the whole group
            log.warning("extractor %s dims=%s fold=%d failed: %s", fe, dims, fold, exc)
            group_error = f"{type(exc).__name__}: {exc}"
            break
        for model in pending_models:
            cell = out[model]
            if cell["error"] is not None:
                continue
            started = time.perf_counter()
            try:
                seed = derive_seed(config.seed, fe, dims, model, fold)
                spec = ClassifierSpec(kind=model)
                fitted = fit_classifier(spec, train_z, config.train_config(seed))
                probs = fitted.predict_proba(test_z)
                report = evaluate(probs, test_z.labels, threshold=config.threshold)
            except Exception as exc:
                log.warning("cell %s:%s:%s fold=%d failed: %s", fe, dims, model, fold, exc)
                cell["error"] = f"{type(exc).__name__}: {exc}"
                continue
            cell["wall"] += time.perf_counter() - started
            cell["reports"].append(report)
            cell["probs"].append(probs)
    if group_error is not None:
        for cell in out.values():
            if cell["error"] is None:
                cell["error"] = group_error
    return out


def _cell_payload(dataset, fe, dims, model, config: ExperimentConfig, cell,
                  pooled_labels, pooled_types) -> tuple[dict, RocCurve | None]:
    """Manifest entry for one finished cell, and its pooled ROC curve if it succeeded.

    The ROC curve and the per-attack table are computed once, on the
    cell's pooled out-of-fold predictions: each row is tested exactly once.
    ``pooled_types`` is None when the schema has no attack-type column.
    """
    if cell["error"] is not None or len(cell["reports"]) != config.folds:
        err = cell["error"] or "incomplete fold set"
        rec = ResultRecord(dataset=dataset, model=model, fe=fe, dims=dims,
                           fold="mean", status="failed", error=err)
        return {"records": [asdict(rec)], "per_attack": None, "wall_time": cell["wall"]}, None
    records = []
    for fold, report in enumerate(cell["reports"]):
        records.append(asdict(ResultRecord(
            dataset=dataset, model=model, fe=fe, dims=dims, fold=str(fold),
            acc=report.acc, f1=report.f1, dr=report.dr, far=report.far,
            precision=report.precision, auc=report.auc,
        )))
    mean = aggregate_folds(cell["reports"])
    pooled_probs = np.concatenate(cell["probs"])
    curve, pooled_auc = roc_auc(pooled_probs, pooled_labels)
    per_attack = None
    if pooled_types is not None:
        table = per_attack_dr(pooled_probs, pooled_labels, pooled_types, config.threshold)
        per_attack = {name: list(v) for name, v in table.items()}
    records.append(asdict(ResultRecord(
        dataset=dataset, model=model, fe=fe, dims=dims, fold="mean",
        acc=mean.acc, f1=mean.f1, dr=mean.dr, far=mean.far,
        precision=mean.precision, auc=mean.auc, auc_pooled=pooled_auc,
    )))
    return {"records": records, "per_attack": per_attack, "wall_time": cell["wall"]}, curve


def _load_completed(path: Path, config: ExperimentConfig) -> dict[str, dict]:
    """The completed cells of the manifest at ``path`` if it was written for ``config``."""
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("config_digest") != config.digest():
        log.warning("manifest does not match this config; starting fresh")
        return {}
    log.info("resuming: %d cell(s) already complete", len(doc["completed"]))
    return doc["completed"]


def _flush_manifest(path: Path, config: ExperimentConfig, completed: dict) -> None:
    doc = {
        "version": CONFIG_VERSION,
        "config_digest": config.digest(),
        "config": config.to_dict(),
        "completed": completed,
    }
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # json.dump never uses the C encoder
    tmp.replace(path)


def write_results_csv(records: list[dict], path) -> None:
    write_csv(path, RESULT_COLUMNS,
              ([rec.get(col) for col in RESULT_COLUMNS] for rec in records))


def _ordered_records(config: ExperimentConfig, completed: dict) -> list[dict]:
    """Records of the completed cells in group-plan order: fe and model as
    configured, dims ascending."""
    def rank(cell_id):
        fe, dims, model = cell_id.split(":")
        return config.fe_methods.index(fe), int(dims), config.models.index(model)

    return [rec for cell_id in sorted(completed, key=rank)
            for rec in completed[cell_id]["records"]]


def run_summary(config: ExperimentConfig, completed: dict) -> tuple[list[dict], str]:
    """The ordered result records of a run and the text of its summary.txt."""
    records = _ordered_records(config, completed)
    return records, render_summary(records, best_per_attack(records, completed))


def read_manifest(run_dir) -> tuple[ExperimentConfig, dict]:
    """The config and the completed cells recorded in a run directory."""
    path = Path(run_dir) / "manifest.json"
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ExperimentConfig.from_dict(doc["config"], path), doc["completed"]


def _write_variance_reports(scaled: FeatureMatrix, pca: PcaModel | None,
                            out_dir: Path, dataset: str) -> None:
    """Descriptive per-dimension variance of PCA/LDA on the scaled dataset."""
    var_dir = out_dir / "variance"
    var_dir.mkdir(exist_ok=True)
    if pca is not None:
        report = variance_report(
            pca_transform(scaled, pca), "pca", total_variance=pca.total_variance
        )
        report.dump_csv(var_dir / f"{dataset}_pca.csv")
    if len(np.unique(scaled.labels)) == 2:
        lda = lda_fit(scaled)
        variance_report(lda_transform(scaled, lda), "lda").dump_csv(
            var_dir / f"{dataset}_lda.csv"
        )


def run(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Execute the sweep; returns the ordered result records (as dicts)."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "roc").mkdir(exist_ok=True)

    fm = load_dataset(config)
    dataset = config.schema_name
    # the variance report's fits on all rows; with fit_global they serve every fold
    scaler = fit_scaler(fm)
    scaled = apply_scaler(fm, scaler)
    pca = _full_pca(scaled) if min(fm.n_features, fm.n_samples - 1) >= 1 else None
    _write_variance_reports(scaled, pca, out_dir, dataset)
    plan = stratified_kfold(fm, config.folds, derive_seed(config.seed, "folds"))
    manifest = out_dir / "manifest.json"
    completed = _load_completed(manifest, config)

    def finish_group(fe, dims, results):
        for model, cell in results.items():
            payload, curve = _cell_payload(dataset, fe, dims, model, config, cell,
                                           pooled_labels, pooled_types)
            if curve is not None:
                curve.dump_csv(out_dir / "roc" / f"{fe}_{dims}_{model}.csv")
            completed[f"{fe}:{dims}:{model}"] = payload
        _flush_manifest(manifest, config, completed)
        write_results_csv(_ordered_records(config, completed), out_dir / "results.csv")

    todo = []
    for fe, dims in _group_plan(config, fm.n_features):
        pending = [m for m in config.models if f"{fe}:{dims}:{m}" not in completed]
        if pending:
            todo.append((fe, dims, pending))
    with_pca = any(fe == "pca" for fe, _, _ in todo)
    fold_fits = _fold_fits(config, fm, plan, with_pca, (scaler, pca))
    pooled_idx = np.concatenate([fit.test_idx for fit in fold_fits])
    pooled_labels = fm.labels[pooled_idx]
    pooled_types = None if fm.attack_types is None else fm.attack_types[pooled_idx]

    if jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(run_group, fe, dims, config, fm, fold_fits, pending): (fe, dims)
                for fe, dims, pending in todo
            }
            for future in as_completed(futures):
                finish_group(*futures[future], future.result())
    else:
        for fe, dims, pending in todo:
            log.info("group fe=%s dims=%s: %d model(s)", fe, dims, len(pending))
            finish_group(fe, dims, run_group(fe, dims, config, fm, fold_fits, pending))

    records, summary = run_summary(config, completed)
    write_results_csv(records, out_dir / "results.csv")
    emit_plots(records, out_dir)
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    return records


def mean_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r["fold"] == "mean" and r["status"] == "ok"]


def best_per_model(records: list[dict]) -> list[dict]:
    """Per (model, fe, dataset): the mean row with maximal AUC; ties pick fewer dims."""
    best: dict[tuple[str, str, str], dict] = {}
    for rec in mean_records(records):
        key = (rec["model"], rec["fe"], rec["dataset"])
        cur = best.get(key)
        if (
            cur is None
            or rec["auc"] > cur["auc"]
            or (rec["auc"] == cur["auc"] and rec["dims"] < cur["dims"])
        ):
            best[key] = rec
    return [best[k] for k in sorted(best)]


def best_overall(records: list[dict]) -> dict | None:
    ranked = sorted(
        mean_records(records), key=lambda r: (-r["auc"], r["dims"], r["model"], r["fe"])
    )
    return ranked[0] if ranked else None


def best_per_attack(records: list[dict], completed: dict) -> dict | None:
    """Per-attack DR table of the best (fe, dims, model) cell."""
    top = best_overall(records)
    if top is None:
        return None
    payload = completed.get(f"{top['fe']}:{top['dims']}:{top['model']}")
    if not payload or not payload.get("per_attack"):
        return None
    return {
        "cell": {k: top[k] for k in ("model", "fe", "dims", "auc")},
        "table": payload["per_attack"],
    }


def emit_plots(records: list[dict], out_dir: Path) -> None:
    """Plot-ready CSVs: AUC-vs-dimensions sweeps and the best-cell summary."""
    out_dir = Path(out_dir)
    sweep_dir = out_dir / "sweeps"
    sweep_dir.mkdir(exist_ok=True)
    means = mean_records(records)
    by_model: dict[str, list[dict]] = {}
    for rec in means:
        by_model.setdefault(rec["model"], []).append(rec)
    for model, rows in by_model.items():
        rows = sorted(rows, key=lambda r: (r["fe"], r["dims"]))
        write_csv(sweep_dir / f"{rows[0]['dataset']}_{model}.csv", SWEEP_COLUMNS,
                  ([r[col] for col in SWEEP_COLUMNS] for r in rows))
    write_csv(out_dir / "best_per_model.csv", BEST_COLUMNS,
              ([r[col] for col in BEST_COLUMNS] for r in best_per_model(records)))


def _pct(x) -> str:
    return f"{100.0 * x:.2f}%" if x is not None else ""


def render_summary(records: list[dict], per_attack: dict | None) -> str:
    """Text tables mirroring the benchmark's reporting format."""
    lines = []
    best = best_per_model(records)
    lines.append("Best result per (model, FE) by AUC")
    lines.append("")
    header = f"{'ML':<5} {'FE':<5} {'DIM':>4} {'ACC':>8} {'F1':>6} {'DR':>8} {'FAR':>8} {'AUC':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in best:
        lines.append(
            f"{r['model']:<5} {r['fe']:<5} {r['dims']:>4} {_pct(r['acc']):>8} "
            f"{r['f1']:>6.2f} {_pct(r['dr']):>8} {_pct(r['far']):>8} {r['auc']:>7.4f}"
        )
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        lines.append("")
        lines.append("Failed cells")
        for r in failures:
            lines.append(f"  {r['fe']}:{r['dims']}:{r['model']} -> {r['error']}")
    if per_attack:
        cell = per_attack["cell"]
        lines.append("")
        lines.append(
            f"Per-attack detection rate (best cell: {cell['model']} + {cell['fe']} "
            f"dims={cell['dims']}, AUC {cell['auc']:.4f})"
        )
        lines.append("")
        lines.append(f"{'Attack Type':<20} {'Actual':>8} {'Predicted':>10} {'DR':>8}")
        lines.append("-" * 48)
        for name, (actual, detected, dr) in sorted(per_attack["table"].items()):
            lines.append(f"{name:<20} {actual:>8} {detected:>10} {_pct(dr):>8}")
    lines.append("")
    n_records = len(records)
    lines.append(f"{n_records} result record(s)")
    return "\n".join(lines) + "\n"
