"""The per-node-sort tree fit, kept as the reference for flowbench.classifiers.tree.

This is the first exact CART of flowbench: every node sorts each of its
features again with a stable ``argsort``. Tests require the presorted fit
to give byte-identical ``TreeModel`` arrays. Like the fit, it takes the
threshold as ``a / 2 + b / 2`` (``a`` when that rounds to ``b`` or
overflows), treats a NaN weighted Gini as no split, and leaves a node a
leaf when a split would leave a child empty.
"""

import numpy as np

from flowbench.classifiers.tree import TreeModel
from flowbench.ingest import FeatureMatrix


def _gini(weight0: float, weight1: float) -> float:
    total = weight0 + weight1
    if total <= 0:
        return 0.0
    p0 = weight0 / total
    p1 = weight1 / total
    return 1.0 - p0 * p0 - p1 * p1


def reference_candidates(x, y, w, feature):
    """(sorted values, cut positions, weighted Gini of each cut) of one feature.

    A cut at position k separates sorted rows ..k from k+1..; a weighted
    Gini is NaN where a side's weight rounded to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    w = np.ones(x.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
    total_w = w.sum()
    total_w1 = float(w[y == 1].sum())
    total_w0 = total_w - total_w1
    order = np.argsort(x[:, feature], kind="stable")
    xs = x[order, feature]
    ws = w[order]
    w1s = ws * (y[order] == 1)
    cut = np.flatnonzero(xs[:-1] != xs[1:])
    left_w = np.cumsum(ws)[cut]
    left_w1 = np.cumsum(w1s)[cut]
    left_w0 = left_w - left_w1
    right_w1 = total_w1 - left_w1
    right_w0 = total_w0 - left_w0
    right_w = total_w - left_w
    g_left = 1.0 - (left_w0 / left_w) ** 2 - (left_w1 / left_w) ** 2
    g_right = 1.0 - (right_w0 / right_w) ** 2 - (right_w1 / right_w) ** 2
    return xs, cut, (left_w * g_left + right_w * g_right) / total_w


def reference_best_split(x, y, w):
    """Exhaustive best (feature, threshold) by weighted Gini, or None.

    Returns (feature, threshold, weighted_gini); None when no candidate
    split exists or none strictly reduces the node impurity.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    w = np.ones(x.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
    total_w1 = float(w[y == 1].sum())
    parent = _gini(w.sum() - total_w1, total_w1)

    best = None
    for feature in range(x.shape[1]):
        xs, cut, weighted = reference_candidates(x, y, w, feature)
        if cut.size == 0:
            continue
        weighted[np.isnan(weighted)] = np.inf  # a NaN Gini is no split
        pick = int(np.argmin(weighted))  # first minimum = lowest threshold
        if best is None or weighted[pick] < best[2]:
            a, b = float(xs[cut[pick]]), float(xs[cut[pick] + 1])
            threshold = a / 2.0 + b / 2.0  # cannot overflow; a when it rounds to b
            if threshold == b or not np.isfinite(threshold):
                threshold = a
            best = (feature, threshold, float(weighted[pick]))
    if best is None or best[2] >= parent:
        return None
    return best


def reference_dt_fit(train: FeatureMatrix, sample_weight=None) -> TreeModel:
    """Grow a tree to purity (or until no split reduces weighted Gini)."""
    x = train.values
    y = train.labels
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty matrix")
    w = None if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)

    feature, threshold, left, right, counts = [-1], [0.0], [-1], [-1], [(0, 0)]
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        n1 = int((ys == 1).sum())
        counts[node] = (len(idx) - n1, n1)
        if n1 == 0 or n1 == len(idx):
            continue
        found = reference_best_split(x[idx], ys, None if w is None else w[idx])
        if found is None:
            continue
        feature[node], threshold[node], _ = found
        go_left = x[idx, feature[node]] <= threshold[node]
        if go_left.all() or not go_left.any():
            feature[node], threshold[node] = -1, 0.0
            continue
        for children, rows in ((left, idx[go_left]), (right, idx[~go_left])):
            children[node] = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            counts.append((0, 0))
            stack.append((children[node], rows))
    return TreeModel(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )
