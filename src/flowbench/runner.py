"""Experiment orchestration: the FE x dimensions x model sweep.

A run loads one dataset and builds a stratified fold plan. Per fold it
fits the scaler, and PCA at full width, on the training portion only;
every (fe, dims) group shares those fold fits, a PCA group taking the
top-dims prefix of the one SVD. A group then fits its LDA or AE on the
same training portion, transforms both portions, trains each classifier,
evaluates the held-out fold and returns its finished cells: their
manifest entries and pooled ROC curves. A pca or ae group whose dims
are not below the PCA width of the smallest training fold is not run;
the manifest and summary.txt list it with the reason. Only the
descriptive variance/ reports are fitted on all rows, and they feed no
cell. After every group the run writes the group's ROC files and flushes
manifest.json, so an interrupted sweep resumes from its manifest and
reproduces the uninterrupted byte-identical results.csv. The tables (results.csv,
sweeps/, best_per_model.csv, summary.txt) are rendered once from the
completed cells, by ``write_outputs``: at the end of ``run``, or by
``flowbench report``.

Every random draw derives from a stable hash of (seed, cell identity),
making results independent of scheduling and of which cells already ran.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classifiers import ALL_KINDS, ClassifierSpec, fit_classifier
from .evaluate import METRICS, RocCurve, aggregate_folds, evaluate, per_attack_dr, roc_auc
from .errors import InputError, build, integer, read_json, real, string, strings
from .extract import (
    PcaModel, VarianceReport, ae_encode, ae_fit, lda_fit, lda_transform, pca_fit, pca_transform,
    pca_truncate, pca_width, variance_report,
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
    threshold: float = 0.5
    train: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        for name in ("dataset_path", "schema_name", "schema_file", "output_dir"):
            string(name, getattr(self, name), optional=name == "schema_file")
        self.fe_methods = strings("fe_methods", self.fe_methods, choices=FE_METHODS)
        self.models = strings("models", self.models, choices=ALL_KINDS)
        if not isinstance(self.dimensions, (list, tuple)):
            raise ValueError(f"dimensions must be a list, got {self.dimensions!r}")
        self.dimensions = tuple(integer("dimensions", d, minimum=1) for d in self.dimensions)
        self.folds = integer("folds", self.folds, minimum=2)
        self.seed = integer("seed", self.seed)
        if self.subsample is not None:
            self.subsample = integer("subsample", self.subsample, minimum=1)
        real("threshold", self.threshold)
        if not 0.0 <= self.threshold <= 1.0:  # also false for NaN
            raise ValueError(f"threshold must be within [0, 1], got {self.threshold!r}")
        if not isinstance(self.train, dict):
            raise ValueError(f"train must be an object, got {self.train!r}")
        # every TrainConfig field but the seed, which each fit derives
        unknown = set(self.train) - {f.name for f in fields(TrainConfig) if f.name != "seed"}
        if unknown:
            raise ValueError(f"unknown train override(s) {sorted(unknown)}")
        self.train = dict(self.train)
        if isinstance(self.train.get("learning_rate"), str):  # a numeric string is also taken
            with suppress(ValueError):
                self.train["learning_rate"] = float(self.train["learning_rate"])
        try:  # TrainConfig checks and converts each override
            checked = self.train_config(0)
        except ValueError as exc:
            raise ValueError(f"train.{exc}") from None
        self.train = {key: getattr(checked, key) for key in self.train}

    @classmethod
    def from_dict(cls, raw: dict, source) -> "ExperimentConfig":
        """A config from its JSON form; ``source`` names the file in errors."""
        if isinstance(raw, dict):
            raw = dict(raw)
            if (version := raw.pop("version", None)) != CONFIG_VERSION:
                raise InputError(f"{source}: config version must be {CONFIG_VERSION}, "
                                 f"got {version!r}")
        return build(cls, raw, source, "config")

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        raw = read_json(path)
        if isinstance(raw, dict):  # from_dict names the file for anything else
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
        """A hash of every field but ``output_dir``: where cells are written never decides them."""
        doc = {k: v for k, v in self.to_dict().items() if k != "output_dir"}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

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


def _group_plan(config: ExperimentConfig, n_features: int, n_train: int):
    """(fe, dims) groups in config order, and the dropped groups with their reasons.

    full uses all features and lda one. A pca or ae group needs dims below
    the ``pca_width`` of the smallest training fold: PCA cannot fit more
    components, at the width itself it is a rotation of the full features,
    and an autoencoder that wide reduces nothing.
    """
    width = pca_width(n_train, n_features)
    groups, dropped = [], []
    for fe in config.fe_methods:
        if fe == "full":
            groups.append((fe, n_features))
        elif fe == "lda":
            groups.append((fe, 1))
        else:
            for dims in sorted(set(config.dimensions)):
                if dims < width:
                    groups.append((fe, dims))
                else:
                    dropped.append({"fe": fe, "dims": dims, "reason": (
                        f"dims {dims} is not below the PCA width {width} = min("
                        f"{n_train} training rows - 1, {n_features} features)")})
    return groups, dropped


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
               with_pca: bool) -> list[FoldFit]:
    """Each fold's rows with the scaler and full-width PCA of its training rows."""
    fits = []
    for fold in range(config.folds):
        train_idx, test_idx = plan.train_test_indices(fold)
        train = fm.take(train_idx)
        scaler = _attempt(lambda: fit_scaler(train))
        pca = None
        if with_pca:
            pca = _attempt(lambda: pca_fit(apply_scaler(train, _fitted(scaler)),
                                           pca_width(train.n_samples, train.n_features)))
        fits.append(FoldFit(train_idx, test_idx, scaler, pca))
    return fits


def _fit_extractor(fe, dims, fold_fit: FoldFit, train_s, config, fold):
    if fe == "full":
        return None
    if fe == "pca":
        return pca_truncate(_fitted(fold_fit.pca), dims)
    if fe == "lda":
        return lda_fit(train_s)
    seed = derive_seed(config.seed, fe, dims, fold, "extractor")
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

    Returns {model: (manifest payload, pooled ROC curve or None)}; the
    fitted extractor is shared by the group's models within each fold.
    """
    out = {model: {"reports": [], "probs": [], "wall": 0.0, "error": None}
           for model in pending_models}
    for fold, fit in enumerate(fold_fits):
        try:
            scaler = _fitted(fit.scaler)
            train_s = apply_scaler(fm.take(fit.train_idx), scaler)
            test_s = apply_scaler(fm.take(fit.test_idx), scaler)
            extractor = _fit_extractor(fe, dims, fit, train_s, config, fold)
            train_z = _apply_extractor(fe, extractor, train_s)
            test_z = _apply_extractor(fe, extractor, test_s)
        except Exception as exc:  # extractor failure poisons the whole group
            log.warning("extractor %s dims=%s fold=%d failed: %s", fe, dims, fold, exc)
            for cell in out.values():
                cell["error"] = cell["error"] or f"{type(exc).__name__}: {exc}"
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
    # every row is tested once: the folds' test rows, in fold order
    pooled_idx = np.concatenate([fit.test_idx for fit in fold_fits])
    labels = fm.labels[pooled_idx]
    types = None if fm.attack_types is None else fm.attack_types[pooled_idx]
    return {model: _cell_payload(fe, dims, model, config, cell, labels, types)
            for model, cell in out.items()}


def _cell_payload(fe, dims, model, config: ExperimentConfig, cell,
                  pooled_labels, pooled_types) -> tuple[dict, RocCurve | None]:
    """Manifest entry for one finished cell, and its pooled ROC curve if it succeeded.

    The ROC curve and the per-attack table are computed once, on the
    cell's pooled out-of-fold predictions: each row is tested exactly once.
    ``pooled_types`` is None when the schema has no attack-type column.
    A cell without an error holds one report per fold.
    """
    cell_id = dict(dataset=config.schema_name, model=model, fe=fe, dims=dims)
    if cell["error"] is not None:
        rec = _row(**cell_id, fold="mean", status="failed", error=cell["error"])
        return {"records": [rec], "per_attack": None, "wall_time": cell["wall"]}, None

    def row(fold, report, **extra):
        return _row(**cell_id, fold=fold, **{m: getattr(report, m) for m in METRICS}, **extra)

    records = [row(str(fold), report) for fold, report in enumerate(cell["reports"])]
    pooled_probs = np.concatenate(cell["probs"])
    curve, pooled_auc = roc_auc(pooled_probs, pooled_labels)
    per_attack = None
    if pooled_types is not None:
        table = per_attack_dr(pooled_probs, pooled_labels, pooled_types, config.threshold)
        per_attack = {name: list(v) for name, v in table.items()}
    records.append(row("mean", aggregate_folds(cell["reports"]), auc_pooled=pooled_auc))
    return {"records": records, "per_attack": per_attack, "wall_time": cell["wall"]}, curve


def _row(**values) -> dict:
    """``asdict(ResultRecord(**values))``: the record's fields in order, all scalars."""
    rec = ResultRecord(**values)
    return {name: getattr(rec, name) for name in ResultRecord.__dataclass_fields__}


@dataclass
class Manifest:
    """A run's manifest.json: its config block, then the completed cells and dropped groups."""

    version: int
    config_digest: str
    config: dict
    completed: dict
    dropped: list = field(default_factory=list)  # absent before dropped groups were recorded

    @classmethod
    def read(cls, run_dir) -> "Manifest":
        """The run directory's manifest.json; a missing or malformed one raises naming it."""
        path = Path(run_dir) / "manifest.json"
        return build(cls, read_json(path), path, "manifest")

    def write(self, run_dir) -> None:
        """Replace the run directory's manifest.json through a tmp file, its fields in order."""
        path = Path(run_dir) / "manifest.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(vars(self)))  # json.dump never uses the C encoder
        tmp.replace(path)


def _load_completed(run_dir: Path, digest: str) -> dict[str, dict]:
    """The completed cells of the run directory's manifest if its config digest is ``digest``.

    A manifest of another config is discarded with the ``roc/`` and
    ``sweeps/`` CSVs of its run, which the fresh run might not rewrite.
    """
    if not (run_dir / "manifest.json").exists():
        return {}
    doc = Manifest.read(run_dir)
    if doc.config_digest != digest:
        log.warning("manifest does not match this config; starting fresh")
        for stale in ("roc", "sweeps"):
            for csv_path in (run_dir / stale).glob("*.csv"):
                csv_path.unlink()
        return {}
    log.info("resuming: %d cell(s) already complete", len(doc.completed))
    return doc.completed


def read_manifest(run_dir) -> tuple[ExperimentConfig, dict, list[dict]]:
    """The config, the completed cells and the dropped groups recorded in a run directory."""
    path = Path(run_dir) / "manifest.json"
    doc = Manifest.read(run_dir)
    raw = doc.config
    if isinstance(raw, dict) and "fit_global" in raw:  # from before per-fold-only fitting
        raw = dict(raw)
        if raw.pop("fit_global"):
            raise InputError(f"{path}: run with fit_global, whose scaler and extractors "
                             "saw the test rows; rerun it")
    return ExperimentConfig.from_dict(raw, path), doc.completed, doc.dropped


def _variance_reports(fm: FeatureMatrix) -> list[VarianceReport]:
    """Descriptive per-dimension variance of PCA/LDA on the whole scaled
    dataset: the only fits on all rows, which feed no cell."""
    scaled = apply_scaler(fm, fit_scaler(fm))
    reports = []
    if (width := pca_width(fm.n_samples, fm.n_features)) >= 1:
        pca = pca_fit(scaled, width)
        reports.append(variance_report(pca_transform(scaled, pca), "pca",
                                       total_variance=pca.total_variance))
    if 0 < scaled.labels.sum() < scaled.n_samples:  # both classes
        reports.append(variance_report(lda_transform(scaled, lda_fit(scaled)), "lda"))
    return reports


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported at its first use.

    Importing concurrent.futures also imports multiprocessing, which only
    ``run(jobs > 1)`` needs.
    """
    from concurrent.futures import ProcessPoolExecutor as Pool
    return Pool(max_workers=max_workers)


def run(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Execute the sweep; returns the ordered result records (as dicts)."""
    # every input resolves before output_dir is created, so a bad input writes nothing
    fm = load_dataset(config)
    variance = _variance_reports(fm)
    try:
        plan = stratified_kfold(fm, config.folds, derive_seed(config.seed, "folds"))
    except ValueError as exc:
        raise InputError(f"{config.dataset_path}: cannot split into folds={config.folds}: "
                         f"{exc}") from None
    n_train = fm.n_samples - int(np.bincount(plan.assignments, minlength=plan.k).max())
    groups, dropped = _group_plan(config, fm.n_features, n_train)
    for group in dropped:
        log.warning("dropped %s:%s: %s", group["fe"], group["dims"], group["reason"])
    out_dir = Path(config.output_dir)
    for name in ("roc", "variance"):
        (out_dir / name).mkdir(parents=True, exist_ok=True)
    for report in variance:
        report.dump_csv(out_dir / "variance" / f"{config.schema_name}_{report.method}.csv")
    digest = config.digest()
    manifest = Manifest(CONFIG_VERSION, digest, config.to_dict(),
                        _load_completed(out_dir, digest), dropped)

    def finish_group(fe, dims, cells):
        for model, (payload, curve) in cells.items():
            if curve is not None:
                curve.dump_csv(out_dir / "roc" / f"{fe}_{dims}_{model}.csv")
            manifest.completed[f"{fe}:{dims}:{model}"] = payload
        manifest.write(out_dir)

    todo = []
    for fe, dims in groups:
        pending = [m for m in config.models if f"{fe}:{dims}:{m}" not in manifest.completed]
        if pending:
            todo.append((fe, dims, pending))
    with_pca = any(fe == "pca" for fe, _, _ in todo)
    fold_fits = _fold_fits(config, fm, plan, with_pca)

    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import as_completed
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
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

    return write_outputs(out_dir, config, manifest.completed, dropped)


def mean_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r["fold"] == "mean" and r["status"] == "ok"]


def _ranked(records: list[dict]) -> list[dict]:
    """The ok mean rows, best first: the highest AUC, then fewer dims, then model and FE name."""
    return sorted(mean_records(records), key=lambda r: (-r["auc"], r["dims"], r["model"], r["fe"]))


def best_per_model(records: list[dict]) -> list[dict]:
    """Per (model, fe, dataset), in that key's order: its first row under ``_ranked``."""
    best: dict[tuple[str, str, str], dict] = {}
    for rec in _ranked(records):
        best.setdefault((rec["model"], rec["fe"], rec["dataset"]), rec)
    return [best[k] for k in sorted(best)]


def best_overall(records: list[dict]) -> dict | None:
    """The first row under ``_ranked``; None without an ok mean row."""
    return next(iter(_ranked(records)), None)


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


def write_outputs(out_dir, config: ExperimentConfig, completed: dict,
                  dropped: list[dict]) -> list[dict]:
    """Render a run directory's tables from its completed cells.

    Writes results.csv, the plot-ready AUC-vs-dimensions ``sweeps/``,
    best_per_model.csv and summary.txt, which also lists the ``dropped``
    groups and the PCA dims that reach each of ``VARIANCE_SHARES`` of the
    total variance, from ``variance/<dataset>_pca.csv`` when it exists;
    returns the result records in group-plan order: fe and model as
    configured, dims ascending.
    """
    def rank(cell_id):
        fe, dims, model = cell_id.split(":")
        return config.fe_methods.index(fe), int(dims), config.models.index(model)

    out_dir = Path(out_dir)
    records = [rec for cell_id in sorted(completed, key=rank)
               for rec in completed[cell_id]["records"]]
    write_csv(out_dir / "results.csv", RESULT_COLUMNS,
              ([rec[col] for col in RESULT_COLUMNS] for rec in records))
    sweep_dir = out_dir / "sweeps"
    sweep_dir.mkdir(exist_ok=True)
    by_model: dict[str, list[dict]] = {}
    for rec in mean_records(records):
        by_model.setdefault(rec["model"], []).append(rec)
    for model, rows in by_model.items():
        rows = sorted(rows, key=lambda r: (r["fe"], r["dims"]))
        write_csv(sweep_dir / f"{rows[0]['dataset']}_{model}.csv", SWEEP_COLUMNS,
                  ([r[col] for col in SWEEP_COLUMNS] for r in rows))
    best = best_per_model(records)
    write_csv(out_dir / "best_per_model.csv", BEST_COLUMNS,
              ([r[col] for col in BEST_COLUMNS] for r in best))
    summary = render_summary(records, best, best_per_attack(records, completed), dropped,
                             pca_dims_reaching(out_dir / "variance" / f"{config.schema_name}_pca.csv"))
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    return records


VARIANCE_SHARES = (0.90, 0.95)


def pca_dims_reaching(path: Path) -> list[tuple[float, int | None]] | None:
    """(share, smallest dims whose ``cumulative_fraction`` reaches it) per ``VARIANCE_SHARES``.

    Reads a ``variance/*_pca.csv``; dims is None where no dims reach the
    share. None when the file or its ``cumulative_fraction`` column is absent.
    """
    if not path.exists():
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if "cumulative_fraction" not in (reader.fieldnames or ()):
            return None
        cumulative = np.array([float(row["cumulative_fraction"]) for row in reader])
    # cumulative is non-decreasing: the first entry reaching a share is its dims - 1
    found = np.searchsorted(cumulative, VARIANCE_SHARES).tolist()
    return [(share, i + 1 if i < cumulative.size else None) for share, i in zip(VARIANCE_SHARES, found)]


def _pct(x) -> str:
    return f"{100.0 * x:.2f}%" if x is not None else ""


def render_summary(records: list[dict], best: list[dict], per_attack: dict | None,
                   dropped: list[dict], pca_dims: list[tuple[float, int | None]] | None) -> str:
    """Text tables mirroring the benchmark's reporting format; ``best`` is ``best_per_model``'s."""
    lines = []
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
    if pca_dims:
        lines.append("")
        lines.append("PCA dims reaching a share of the total variance (all rows)")
        for share, dims in pca_dims:
            lines.append(f"  {share:.0%}: " + (f"{dims} dims" if dims is not None else "not reached"))
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        lines.append("")
        lines.append("Failed cells")
        for r in failures:
            lines.append(f"  {r['fe']}:{r['dims']}:{r['model']} -> {r['error']}")
    if dropped:
        lines.append("")
        lines.append("Dropped groups (not run)")
        for d in dropped:
            lines.append(f"  {d['fe']}:{d['dims']} -> {d['reason']}")
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
