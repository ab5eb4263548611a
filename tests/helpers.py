"""Shared test constructions: tiny CSVs, Gaussian blobs, scaled matrices."""

import numpy as np

from flowbench.ingest import FeatureMatrix


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return path


def blobs(n0=100, n1=100, d=4, separation=3.0, informative=None, seed=0, scale01=False):
    """Two Gaussian classes separated along the informative axes."""
    rng = np.random.default_rng(seed)
    informative = list(range(d)) if informative is None else informative
    x0 = rng.normal(0.0, 1.0, size=(n0, d))
    x1 = rng.normal(0.0, 1.0, size=(n1, d))
    for j in informative:
        x1[:, j] += separation
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    order = rng.permutation(n0 + n1)
    x, y = x[order], y[order]
    if scale01:
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        x = (x - lo) / np.where(hi > lo, hi - lo, 1.0)
    return FeatureMatrix(
        values=x, feature_names=[f"f{i}" for i in range(d)], labels=y
    )


def full_roc(scores, labels):
    """Every operating point of the ROC curve: the reference for ``roc_auc``.

    Sweeps the distinct scores descending with ties grouped, as
    ``roc_auc`` does before it keeps only the vertices. Returns the
    integer (fp, tp) counts and the (far, dr) floats, each starting at
    the origin.
    """
    p = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = y.shape[0] - n_pos
    order = np.argsort(-p, kind="stable")
    sorted_y = y[order] == 1
    boundary = np.flatnonzero(np.diff(p[order]) != 0)
    group_ends = np.concatenate([boundary, [p.shape[0] - 1]])
    cum_tp = np.cumsum(sorted_y)[group_ends]
    cum_fp = (group_ends + 1) - cum_tp
    dr = np.concatenate([[0.0], cum_tp / n_pos])
    far = np.concatenate([[0.0], cum_fp / n_neg])
    return np.concatenate([[0], cum_fp]), np.concatenate([[0], cum_tp]), far, dr


def roc_vertices(fp, tp) -> list[int]:
    """Indices of the vertices of the polyline through integer (fp, tp) points.

    The end points, and each point where the direction from the last kept
    point differs from the direction to the next point; exact in Python
    integers.
    """
    fp, tp = [int(v) for v in fp], [int(v) for v in tp]
    keep = [0]
    for i in range(1, len(fp) - 1):
        ax, ay = fp[i] - fp[keep[-1]], tp[i] - tp[keep[-1]]
        bx, by = fp[i + 1] - fp[i], tp[i + 1] - tp[i]
        if ax * by != ay * bx:
            keep.append(i)
    keep.append(len(fp) - 1)
    return keep
