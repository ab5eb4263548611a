"""Confusion counts, the benchmark metrics, ROC/AUC and per-attack DR."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .ingest import write_csv

# the per-fold metrics of an EvalReport, in results.csv column order
METRICS = ("acc", "f1", "dr", "far", "precision", "auc")


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class RocCurve:
    """The vertices (far, dr) of an ROC curve, from (0,0) to (1,1), both non-decreasing.

    A vertex is an end point or an operating point where the curve changes
    direction; the operating points between two vertices lie on the
    straight segment joining them, so the curve drawn through the vertices
    is the curve through every operating point. ``roc_auc`` takes the AUC
    over every operating point, which equals the trapezoid over the
    vertices within about 2e-16.
    """

    far: np.ndarray
    dr: np.ndarray

    def dump_csv(self, path) -> None:
        write_csv(path, ("far", "dr"), zip(self.far.tolist(), self.dr.tolist()))


@dataclass
class EvalReport:
    """One evaluation: counts and the ``METRICS`` values.

    ``auc`` is None until a ranking was scored. ``degenerate`` is set when
    any ratio had a zero denominator and was reported as 0 instead of NaN.
    """

    counts: ConfusionCounts
    acc: float
    f1: float
    dr: float
    far: float
    precision: float
    auc: float | None = None
    degenerate: bool = False


def _check_finite(p: np.ndarray) -> None:
    """A NaN or infinite score has no rank and no side of a threshold."""
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"probability at index {i} is not finite: {float(p[i])!r}")


def confusion(probabilities, labels, threshold: float = 0.5) -> ConfusionCounts:
    """Counts at a threshold; a probability equal to the threshold is positive."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} probabilities vs {y.shape} labels")
    _check_finite(p)
    pred = p >= threshold
    pos = y == 1
    return ConfusionCounts(
        tp=int((pred & pos).sum()),
        tn=int((~pred & ~pos).sum()),
        fp=int((pred & ~pos).sum()),
        fn=int((~pred & pos).sum()),
    )


def _ratio(num: int, den: int) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def metrics(counts: ConfusionCounts) -> EvalReport:
    """ACC, F1, DR, FAR and precision from confusion counts; no AUC."""
    acc, d0 = _ratio(counts.tp + counts.tn, counts.total)
    dr, d1 = _ratio(counts.tp, counts.tp + counts.fn)
    far, d2 = _ratio(counts.fp, counts.fp + counts.tn)
    precision, d3 = _ratio(counts.tp, counts.tp + counts.fp)
    if precision + dr > 0:
        f1, d4 = 2.0 * precision * dr / (precision + dr), False
    else:
        f1, d4 = 0.0, True
    return EvalReport(
        counts=counts, acc=acc, f1=f1, dr=dr, far=far, precision=precision,
        degenerate=d0 or d1 or d2 or d3 or d4,
    )


def _operating_points(probabilities, labels) -> tuple[np.ndarray, np.ndarray, float]:
    """Integer (fp, tp) counts at every operating point, and the AUC over them.

    Sweeps the distinct scores descending with ties grouped, from (0, 0) to
    (n_neg, n_pos). The trapezoid over a tie group averages the corner
    points, so the area equals the Mann-Whitney statistic
    P(s+ > s-) + 0.5 * P(s+ = s-). The counts are read at the ends of the
    tie groups, so the order of the rows within a group does not matter.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError("length mismatch between probabilities and labels")
    _check_finite(p)
    n_pos = int((y == 1).sum())
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")

    order = np.argsort(-p)  # numpy's fast sort: ties in any order
    sorted_y = y[order] == 1
    sorted_p = p[order]
    # last index of each tie group of equal scores
    boundary = np.flatnonzero(np.diff(sorted_p) != 0)
    group_ends = np.concatenate([boundary, [p.shape[0] - 1]])
    tp = np.concatenate([[0], np.cumsum(sorted_y)[group_ends]])
    fp = np.concatenate([[0], group_ends + 1]) - tp
    return fp, tp, float(np.trapezoid(tp / n_pos, fp / n_neg))


def roc_auc(probabilities, labels) -> tuple[RocCurve, float]:
    """The ROC curve's vertices and the AUC over every operating point.

    The vertices are found exactly on the integer (fp, tp) counts.
    """
    fp, tp, auc = _operating_points(probabilities, labels)
    # every step goes up or right, so a zero cross product of two
    # consecutive steps means the point between them is on a straight run
    dfp, dtp = np.diff(fp), np.diff(tp)
    vertex = np.ones(tp.size, dtype=bool)
    vertex[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    return RocCurve(far=fp[vertex] / fp[-1], dr=tp[vertex] / tp[-1]), auc


def per_attack_dr(probabilities, labels, attack_types, threshold: float = 0.5) -> dict:
    """Detection rate per attack type, over label-1 rows only.

    Returns {type: (actual, detected, dr)} sorted by type name.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels)
    t = np.asarray(attack_types, dtype=object)
    if not (p.shape == y.shape == t.shape):
        raise ValueError("probabilities, labels and attack_types must align")
    _check_finite(p)
    out = {}
    attack_rows = y == 1
    detected = p >= threshold
    for name in sorted({str(v) for v in t[attack_rows]}):
        sel = attack_rows & (t == name)
        actual = int(sel.sum())
        hit = int((sel & detected).sum())
        out[name] = (actual, hit, hit / actual if actual else 0.0)
    return out


def evaluate(probabilities, labels, threshold: float = 0.5) -> EvalReport:
    """Assemble a full report for one scored test set."""
    report = metrics(confusion(probabilities, labels, threshold))
    _, _, auc = _operating_points(probabilities, labels)  # the area alone, no curve
    return replace(report, auc=auc)


def aggregate_folds(reports: list[EvalReport]) -> EvalReport:
    """Arithmetic mean of each metric across folds; counts are summed."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    counts = ConfusionCounts(**{
        f.name: sum(getattr(r.counts, f.name) for r in reports) for f in fields(ConfusionCounts)
    })
    k = len(reports)
    return EvalReport(
        counts=counts,
        **{m: sum(getattr(r, m) for r in reports) / k for m in METRICS},
        degenerate=any(r.degenerate for r in reports),
    )
