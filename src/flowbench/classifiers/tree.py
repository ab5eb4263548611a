"""CART-style binary decision tree minimizing Gini impurity.

Splits are enumerated exactly: candidate thresholds are the midpoints of
consecutive distinct sorted values of each feature (see ``midpoint``), and
ties break to the lowest feature index, then the lowest threshold. A
candidate whose weighted Gini is NaN (a side's weight rounded to 0) is no
split. The tree grows until nodes are pure or no candidate split reduces
the weighted impurity; a split that would leave a child empty leaves its
node a leaf, so every fit ends.

A fit sorts each feature once, with a stable sort (SLIQ, Mehta et al.
1996). Each node keeps its rows in every feature's sorted order, and a
split hands each child its part of every list by one stable partition, so
no node sorts again. A node searches all of its features at once, in
blocks of about ``SEARCH_BLOCK`` (feature, row) entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, row_weights

SEARCH_BLOCK = 1 << 12  # (feature, row) entries per block: bounds the search's temporaries


@dataclass
class TreeModel:
    """A binary tree stored as parallel arrays, one entry per node; node 0 is the root.

    An internal node sends rows with ``x[:, feature] <= threshold`` to
    ``left`` and the rest to ``right``. A leaf has feature -1; its threshold
    and children are unused. ``counts`` holds each node's training
    (class-0, class-1) row counts.
    """

    feature: np.ndarray    # (nodes,) int64
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray       # (nodes,) int64
    right: np.ndarray      # (nodes,) int64
    counts: np.ndarray     # (nodes, 2) int64

    def depth(self) -> int:
        level, frontier = 0, np.zeros(1, dtype=np.int64)
        while True:
            inner = frontier[self.feature[frontier] >= 0]
            if inner.size == 0:
                return level
            frontier = np.concatenate([self.left[inner], self.right[inner]])
            level += 1


def gini(weight0: float, weight1: float) -> float:
    total = weight0 + weight1
    if total <= 0:
        return 0.0
    p0 = weight0 / total
    p1 = weight1 / total
    return 1.0 - p0 * p0 - p1 * p1


def midpoint(a: float, b: float) -> float:
    """A threshold t with a <= t < b for neighbouring values a < b.

    ``a / 2 + b / 2`` cannot overflow, and rounds as ``(a + b) / 2`` does
    outside the subnormal range; when it rounds up to ``b`` (adjacent
    doubles) or is not finite, ``a`` is the threshold.
    """
    t = float(a) / 2.0 + float(b) / 2.0
    return t if t != b and math.isfinite(t) else float(a)


def presort(x) -> np.ndarray:
    """The (d + 1, n) row lists of ``x`` (n, d).

    Row 0 is 0..n-1; row 1 + f holds the same rows sorted stably by feature f.
    """
    return np.vstack([np.arange(x.shape[0]), np.argsort(x.T, axis=1, kind="stable")])


def best_split(x, y, w, presorted=None):
    """Exhaustive best (feature, threshold) by weighted Gini, or None.

    ``x`` is (n, d), ``y`` holds the labels (class 1 where ``y == 1``) and
    ``w`` the row weights (all 1 when None). ``presorted`` is the node's
    rows in the layout of ``presort`` when the node holds only some rows;
    without it the node is every row, sorted here.

    Returns (feature, threshold, weighted_gini); None when no candidate
    split exists or none strictly reduces the node impurity.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    w = np.ones(x.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
    lists = presort(x) if presorted is None else presorted
    rows, order = lists[0], lists[1:]
    node_w = w[rows]
    total_w = np.add.reduce(node_w)
    total_w1 = float(np.add.reduce(node_w[y[rows] == 1]))
    total_w0 = total_w - total_w1
    parent = gini(total_w0, total_w1)

    d, m = order.shape
    if m < 2 or d == 0:
        return None
    features = np.arange(d)[:, None]
    step = max(1, SEARCH_BLOCK // m)
    best = None
    for lo in range(0, d, step):
        block = order[lo:lo + step]
        # side[s, f, k] and cls[c, s, f, k]: the weight and the class-c weight
        # on side s (left, right) of the cut after sorted position k of feature
        # lo + f; cls becomes p_c^2, then 1 - p0^2 - p1^2 times the side's
        # weight in cls[0]. Every step is the per-feature scan's arithmetic, in
        # its order, so that the result is bit-identical.
        side = np.empty((2,) + block.shape)
        cls = np.empty((2, 2) + block.shape)
        side[0] = w[block]
        np.multiply(side[0], y[block] == 1, out=cls[1, 0])
        np.add.accumulate(side[0], axis=1, out=side[0])
        np.add.accumulate(cls[1, 0], axis=1, out=cls[1, 0])
        np.subtract(side[0], cls[1, 0], out=cls[0, 0])
        np.subtract(total_w0, cls[0, 0], out=cls[0, 1])
        np.subtract(total_w1, cls[1, 0], out=cls[1, 1])
        np.subtract(total_w, side[0], out=side[1])
        side[1, :, -1] = 1.0  # nothing lies right of the last row: no cut there
        np.divide(cls, side, out=cls)
        np.square(cls, out=cls)
        g = cls[0]
        np.subtract(1.0, g, out=g)
        np.subtract(g, cls[1], out=g)
        np.multiply(side, g, out=g)
        g = np.add(g[0], g[1], out=g[0])
        np.divide(g, total_w, out=g)
        xs = x[block, features[lo:lo + step]]
        g[:, :-1][xs[:, :-1] == xs[:, 1:]] = np.inf  # no threshold between equal values
        g[:, -1] = np.inf
        f, k = divmod(int(g.argmin()), m)  # lowest feature, then lowest threshold
        v = g[f, k]
        if v != v:  # argmin stops at the first NaN; a NaN Gini is no split
            g[np.isnan(g)] = np.inf
            f, k = divmod(int(g.argmin()), m)
            v = g[f, k]
        if best is None or v < best[2]:
            best = (lo + f, k, v)
    feature, k, weighted = best
    if weighted >= parent:
        return None
    threshold = midpoint(x[order[feature, k], feature], x[order[feature, k + 1], feature])
    return feature, threshold, float(weighted)


def dt_fit(train: FeatureMatrix, sample_weight=None) -> TreeModel:
    """Grow a tree to purity (or until no split reduces weighted Gini).

    ``sample_weight`` holds one positive, finite weight per row (1 when absent).
    """
    x = train.values
    y = train.labels
    y1 = y == 1
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot fit a tree on an empty matrix")
    w = row_weights(sample_weight, n, allow_zero=False)

    feature, threshold, left, right, counts = [-1], [0.0], [-1], [-1], [(0, 0)]
    go_left = np.empty(n, dtype=bool)
    stack = [(0, presort(x))]
    while stack:
        node, lists = stack.pop()
        rows = lists[0]
        n1 = np.count_nonzero(y1[rows])
        counts[node] = (len(rows) - n1, n1)
        if n1 == 0 or n1 == len(rows):
            continue
        found = best_split(x, y, w, lists)
        if found is None:
            continue
        feature[node], threshold[node], _ = found
        go_left[rows] = x[rows, feature[node]] <= threshold[node]
        in_left = go_left[lists]  # one stable partition of every row list
        n_left = np.count_nonzero(in_left[0])
        n_right = len(rows) - n_left
        if n_left == 0 or n_right == 0:  # a child would be its parent again: stop here
            feature[node], threshold[node] = -1, 0.0
            continue
        for children, kept, size in ((left, in_left, n_left), (right, ~in_left, n_right)):
            children[node] = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            counts.append((0, 0))
            stack.append((children[node], lists[kept].reshape(len(lists), size)))
    return TreeModel(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def dt_score(model: TreeModel, m) -> np.ndarray:
    """Per-row probability of class 1 = leaf class-1 fraction."""
    x = m.values if isinstance(m, FeatureMatrix) else np.asarray(m, dtype=np.float64)
    widest = int(model.feature.max())
    if widest >= x.shape[1]:
        raise ValueError(f"tree expects at least {widest + 1} features, data has {x.shape[1]}")
    # every row moves down one level per step until all rows sit at leaves
    node = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.arange(x.shape[0])
    while rows.size:
        split_on = model.feature[node[rows]]
        inner = split_on >= 0
        rows, split_on = rows[inner], split_on[inner]
        at = node[rows]
        go_left = x[rows, split_on] <= model.threshold[at]
        node[rows] = np.where(go_left, model.left[at], model.right[at])
    n0, n1 = model.counts[node].T
    return n1 / (n0 + n1)
