"""Outside-in tracing: spans around the public functions of each flowbench layer.

Nothing under ``src/`` knows about tracing. ``install`` replaces the
layer functions, at runtime and from here, with wrappers that record a
span (name, start, end, parent) per call, and restores them afterwards.
A name is imported into ``runner``'s own namespace (``pca_fit``,
``fit_classifier`` ...), so it is wrapped there, where the runner looks it
up. Spans stay in memory until the run ends; ``Tracer.save`` writes them
out and ``Tracer.layer_metrics`` derives each layer's self time and the
per-layer metrics from them.

The layer of a span is the first component of its name.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("runner", "ingest", "preprocess", "extract", "classifiers", "nn", "evaluate")
NN_KINDS = ("dense", "conv1d", "avgpool1d", "lstm", "dropout")  # layer class names, lower-cased
CLASSIFIER_KINDS = ("dff", "cnn", "rnn", "dt", "lr", "nb")
INGEST_STEPS = ("load_csv", "drop_identifiers", "deduplicate", "encode_categoricals", "clean_values")
EXTRACT_CALLS = ("pca_fit", "pca_transform", "lda_fit", "ae_fit", "ae_encode")


class Tracer:
    """In-memory span store for one run; single-threaded like the program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.roc_curves: list = []  # (curve, n_pos, n_neg) of every ROC the runner writes

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None):
        """Span-recording wrapper; ``name`` is a string or a callable of the call's args."""
        fixed = None if callable(name) else self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(fixed if fixed is not None else self.name_id(name(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return traced

    def save(self, path) -> None:
        np.savez(
            path, run_id=self.run_id, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start), end=np.asarray(self.end),
        )

    def durations(self):
        """(inclusive seconds per span, self seconds per span)."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def layer_metrics(self, folds: int) -> dict[str, float]:
        """Per-layer metrics (the ``per_layer`` list of BENCHMARK.json) from the recorded spans."""
        dur, self_t = self.durations()
        name = np.asarray(self.name)
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        by_name = {n: float(total[i]) for i, n in enumerate(self.names)}
        calls = np.bincount(name, minlength=len(self.names))
        n_calls = Counter({n: int(calls[i]) for i, n in enumerate(self.names)})
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names])
        layer_self = np.bincount(layer_of[name], weights=self_t, minlength=len(LAYERS))
        c = self.counts

        out = {f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)}
        for kind in NN_KINDS:
            for phase in ("forward", "backward"):
                key = f"nn.{kind}.{phase}"
                out[f"{key}.s"] = by_name.get(key, 0.0)
        out["nn.adam.step.s"] = by_name.get("nn.adam.step", 0.0)
        out["nn.adam.steps"] = n_calls["nn.adam.step"]
        out["nn.bce.s"] = by_name.get("nn.bce", 0.0)

        for kind in CLASSIFIER_KINDS:
            out[f"classifiers.{kind}.fit_s"] = by_name.get(f"classifiers.{kind}.fit", 0.0)
            out[f"classifiers.{kind}.predict_s"] = by_name.get(f"classifiers.{kind}.predict", 0.0)
        out["classifiers.fits"] = sum(n_calls[f"classifiers.{k}.fit"] for k in CLASSIFIER_KINDS)
        out["classifiers.dt.best_split.calls"] = n_calls["classifiers.dt.best_split"]
        out["classifiers.dt.best_split.s"] = by_name.get("classifiers.dt.best_split", 0.0)
        out["classifiers.lr.iterations"] = c["lr.iterations"]
        lr_fits = n_calls["classifiers.lr.fit"]
        out["classifiers.lr.converged_share"] = c["lr.converged"] / lr_fits if lr_fits else 0.0

        for call in EXTRACT_CALLS:
            out[f"extract.{call}.s"] = by_name.get(f"extract.{call}", 0.0)
        out["extract.pca_fit.calls"] = n_calls["extract.pca_fit"]
        out["extract.pca_fit.useful_ratio"] = _useful(folds, n_calls["extract.pca_fit"])

        out["preprocess.fit_scaler.calls"] = n_calls["preprocess.fit_scaler"]
        out["preprocess.fit_scaler.s"] = by_name.get("preprocess.fit_scaler", 0.0)
        out["preprocess.apply_scaler.s"] = by_name.get("preprocess.apply_scaler", 0.0)
        out["preprocess.fit_scaler.useful_ratio"] = _useful(folds, n_calls["preprocess.fit_scaler"])

        out["evaluate.evaluate.s"] = by_name.get("evaluate.evaluate", 0.0)
        out["evaluate.roc_auc.s"] = by_name.get("evaluate.roc_auc", 0.0)
        written, vertices = roc_point_counts(self.roc_curves)
        out["evaluate.roc_points"] = written
        out["evaluate.roc_points.useful_ratio"] = vertices / written if written else 0.0

        for step in INGEST_STEPS:
            out[f"ingest.{step}.s"] = by_name.get(f"ingest.{step}", 0.0)
        out["ingest.rows_in"] = c["ingest.rows_in"]
        out["ingest.rows_out"] = c["ingest.rows_out"]
        load_s = by_name.get("ingest.load_feature_matrix", 0.0)
        out["ingest.us_per_row"] = 1e6 * load_s / c["ingest.rows_in"] if c["ingest.rows_in"] else 0.0

        out["trace.spans"] = int(dur.size)
        out["trace.self_sum_s"] = float(self_t.sum())
        return out


def _useful(needed: int, calls: int) -> float:
    """Share of calls that were needed: one fit per fold suffices."""
    return min(needed, calls) / calls if calls else 0.0


def roc_point_counts(curves) -> tuple[int, int]:
    """(points written, points that are not collinear with both neighbours).

    Collinearity is tested exactly on the integer (fp, tp) counts behind
    each (far, dr) point.
    """
    written = vertices = 0
    for curve, n_pos, n_neg in curves:
        tp = np.rint(np.asarray(curve.dr) * n_pos).astype(np.int64)
        fp = np.rint(np.asarray(curve.far) * n_neg).astype(np.int64)
        written += tp.size
        if tp.size <= 2:
            vertices += tp.size
            continue
        dx1, dy1 = fp[1:-1] - fp[:-2], tp[1:-1] - tp[:-2]
        dx2, dy2 = fp[2:] - fp[1:-1], tp[2:] - tp[1:-1]
        vertices += 2 + int(np.count_nonzero(dx1 * dy2 - dy1 * dx2))
    return written, vertices


def install(tracer: Tracer):
    """Wrap every traced layer entry point; returns a function that undoes it."""
    # by module path: the package re-exports a function named ``evaluate``
    (classifiers, evaluate, extract, ingest, runner, tree, layers, network, optim) = (
        importlib.import_module(f"flowbench.{m}") for m in (
            "classifiers", "evaluate", "extract", "ingest", "runner", "classifiers.tree",
            "nn.layers", "nn.network", "nn.optim",
        )
    )

    saved = []
    c = tracer.counts

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, after))

    # runner: the root span of a sweep
    patch(runner, "run", "runner.run")

    # ingest, in its own namespace (load_feature_matrix calls the steps there)
    for owner in (runner, ingest):
        patch(owner, "load_feature_matrix", "ingest.load_feature_matrix",
              after=lambda out, args: c.update({"ingest.rows_out": out[0].n_samples}))
    patch(ingest, "load_csv", "ingest.load_csv",
          after=lambda out, args: c.update({"ingest.rows_in": out.n_rows}))
    for step in INGEST_STEPS[1:]:
        patch(ingest, step, f"ingest.{step}")

    # preprocess, extract and evaluate as the runner imported them
    for fn in ("fit_scaler", "apply_scaler", "stratified_kfold"):
        patch(runner, fn, f"preprocess.{fn}")
    for fn in ("pca_fit", "pca_transform", "lda_fit", "lda_transform", "ae_encode", "variance_report"):
        patch(runner, fn, f"extract.{fn}")
    patch(runner, "ae_fit", "extract.ae_fit")
    patch(runner, "evaluate", "evaluate.evaluate")
    patch(evaluate, "roc_auc", "evaluate.roc_auc")

    def roc_written(out, args):
        labels = np.asarray(args[1])
        n_pos = int((labels == 1).sum())
        tracer.roc_curves.append((out[0], n_pos, labels.size - n_pos))

    patch(runner, "roc_auc", "evaluate.roc_auc", after=roc_written)

    # classifiers: fit via the runner's name, predict on the fitted object
    def fit_done(out, args):
        if out.kind == "lr":
            c["lr.iterations"] += out.model.iterations_used
            c["lr.converged"] += bool(out.model.converged)

    patch(runner, "fit_classifier", lambda args: f"classifiers.{args[0].kind}.fit", after=fit_done)
    patch(classifiers.FittedClassifier, "predict_proba",
          lambda args: f"classifiers.{args[0].kind}.predict")
    patch(tree, "best_split", "classifiers.dt.best_split")

    # nn: layer kernels, the optimiser, the loss and the training loop
    for cls in (layers.Dense, layers.Conv1D, layers.AvgPool1D, layers.LSTM, layers.Dropout):
        kind = cls.__name__.lower()
        patch(cls, "forward", f"nn.{kind}.forward")
        patch(cls, "backward", f"nn.{kind}.backward")
    patch(optim.Adam, "step", "nn.adam.step")
    patch(network, "bce_with_grad", "nn.bce")
    for owner in (network, extract):
        patch(owner, "fit_network", "nn.fit_network")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
