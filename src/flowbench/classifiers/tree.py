"""CART-style binary decision tree minimizing Gini impurity.

Splits are enumerated exactly: candidate thresholds are the midpoints of
consecutive distinct sorted values of each feature (see ``midpoint``), and
ties break to the lowest feature index, then the lowest threshold. The
tree grows until nodes are pure or no candidate split reduces the
impurity. A threshold lies in [a, b) of the neighbours it separates, so a
split sends left the rows of its feature's sorted order up to the cut and
the rest right, and both children hold rows.

A fit sorts each feature once (SLIQ, Mehta et al. 1996): numpy's fast
sort, then each run of equal values back in row order (``_restore_ties``),
which is the stable sort's order. Each node keeps its rows in every
feature's sorted order, and a split hands each child its part of every
list by one stable partition, so no node sorts again. A node of more than
``SMALL`` rows is searched alone, depth first, over all of its features at
once. Smaller nodes wait in a pool; once no large node is left, the
pool's row lists are laid side by side and searched together, one level
of the pool at a time (SLIQ's breadth-first pass), so that a small node
costs a few numpy calls rather than a few dozen. Both searches run the
same Gini arithmetic, in blocks of about ``SEARCH_BLOCK`` (feature, row)
entries, and give the same trees; nodes are numbered at the end as the
depth-first fit numbers them.

Every row weighs 1, so the sums are class counts: a node's totals come
from its counts, the left side's size is a row position and its class-1
count a running count. A cut's Gini is its sides' Gini weighted by their
sizes; each side holds at least one row, so none is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, model_input

SEARCH_BLOCK = 1 << 12  # (feature, row) entries per block: bounds the search's temporaries
SMALL = 256  # nodes of at most this many rows are searched together, a level at a time


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


def midpoint(a, b):
    """Thresholds t with a <= t < b for neighbouring values a < b, elementwise.

    ``a / 2 + b / 2`` cannot overflow, and rounds as ``(a + b) / 2`` does
    outside the subnormal range; where it rounds up to ``b`` (adjacent
    doubles) or is not finite, ``a`` is the threshold.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = a / 2.0 + b / 2.0
    return np.where((t != b) & np.isfinite(t), t, a)


def presort(x) -> np.ndarray:
    """The (d + 1, n) row lists of ``x`` (n, d).

    Row 0 is 0..n-1; row 1 + f holds the same rows sorted stably by feature f.
    """
    lists = np.empty((x.shape[1] + 1, x.shape[0]), dtype=np.int64)
    lists[0] = np.arange(x.shape[0])
    lists[1:] = np.argsort(x.T, axis=1)  # numpy's fast sort: ties in any order
    for order, column in zip(lists[1:], x.T):
        _restore_ties(order, column)
    return lists


def _restore_ties(order, values) -> None:
    """Put the rows of each run of equal ``values[order]`` in row order, in place.

    ``order`` sorts ``values`` (NaNs last); afterwards it is the stable sort's
    order. The NaNs form one run, as they do for the stable sort.
    """
    n = order.size
    sorted_values = values[order]
    tie = sorted_values[1:] == sorted_values[:-1]
    if n and sorted_values[-1] != sorted_values[-1]:
        tie |= np.isnan(sorted_values[1:]) & np.isnan(sorted_values[:-1])
    if not tie.any():
        return
    # sort (run, row) keys, run * n + row (below 2^63 for n < 3e9); runs are
    # numbered in sorted order, so only rows within a run move
    keys = np.empty(n, dtype=np.int64)
    keys[0] = order[0]
    np.cumsum(~tie, out=keys[1:])
    keys[1:] *= n
    keys[1:] += order[1:]
    keys.sort()
    np.remainder(keys, n, out=order)


def _cut_gini(x, y1, block, features, bounds, total0, total1, total):
    """The weighted Gini of the cut after each entry of ``block``; inf where no cut is.

    ``block`` (f, m) holds nodes' rows sorted by each of ``features`` (f, 1),
    one node per column segment ``bounds[i]:bounds[i + 1]``. The totals are a
    node's class-0, class-1 and total row counts: scalars for one node, or
    one entry per column.
    """
    # side[s, f, k] and cls[c, s, f, k]: the rows and the class-c rows on side
    # s (left, right) of the cut after sorted position k; cls becomes p_c^2,
    # then 1 - p0^2 - p1^2 times the side's size in cls[0]. Every step is the
    # per-feature scan's arithmetic, in its order, so that the result is
    # bit-identical to it.
    buf = np.empty((6,) + block.shape)
    side, cls = buf[:2], buf[2:].reshape((2, 2) + block.shape)
    # the left side's size is 1 + the position in the node, and its class-1
    # count one count over the block less the count before the node; whole
    # numbers, so equal to the sums of 1.0 per row
    np.add.accumulate(y1[block], axis=1, dtype=np.float64, out=cls[1, 0])
    side[0] = np.arange(1.0, block.shape[1] + 1)
    if len(bounds) > 2:
        starts, sizes = np.array(bounds[:-1]), np.diff(bounds)
        side[0] -= np.repeat(starts, sizes)
        before = cls[1, 0][:, starts[1:] - 1]
        cls[1, 0][:, bounds[1]:] -= np.repeat(before, sizes[1:], axis=1)
    np.subtract(side[0], cls[1, 0], out=cls[0, 0])
    np.subtract(total0, cls[0, 0], out=cls[0, 1])
    np.subtract(total1, cls[1, 0], out=cls[1, 1])
    np.subtract(total, side[0], out=side[1])
    last = -1 if len(bounds) == 2 else [hi - 1 for hi in bounds[1:]]
    side[1][:, last] = 1.0  # nothing lies right of a node's last row: no cut there
    np.divide(cls, side, out=cls)
    np.square(cls, out=cls)
    g = cls[0]
    np.subtract(1.0, g, out=g)
    np.subtract(g, cls[1], out=g)
    np.multiply(side, g, out=g)
    g = np.add(g[0], g[1], out=g[0])
    np.divide(g, total, out=g)
    xs = x[block, features]
    g[:, :-1][xs[:, :-1] == xs[:, 1:]] = np.inf  # no threshold between equal values
    g[:, last] = np.inf
    return g


def _search_node(x, y1, lists, counts):
    """The best cut of one node, (feature, sorted position, weighted Gini), or None.

    ``lists`` holds the node's rows in the layout of ``presort`` and
    ``counts`` its (class-0, class-1) row counts. The cut after sorted
    position k of feature f sends that feature's first k + 1 rows left.
    None when no cut strictly reduces the node's impurity.
    """
    order = lists[1:]
    d, m = order.shape
    totals = float(counts[0]), float(counts[1]), float(m)
    if m < 2 or d == 0:
        return None
    features = np.arange(d)[:, None]
    step = max(1, SEARCH_BLOCK // m)
    best = None
    for lo in range(0, d, step):
        g = _cut_gini(x, y1, order[lo:lo + step], features[lo:lo + step], (0, m), *totals)
        f, k = divmod(int(g.argmin()), m)  # lowest feature, then lowest position
        if best is None or g[f, k] < best[2]:
            best = (lo + f, k, g[f, k])
    if best[2] >= gini(*totals[:2]):
        return None
    return best


def _search_pool(x, y1, lists, bounds, total0, total1, total):
    """The best cut of each node laid side by side in ``lists``.

    Node i holds columns ``bounds[i]:bounds[i + 1]`` of ``lists`` (the layout
    of ``presort``), and the totals hold one entry per column. Returns the
    (weighted Gini, feature, sorted position) arrays, one entry per node;
    the Gini is inf where a node has no cut. The choice is
    ``_search_node``'s: the lowest feature, then the lowest position.
    """
    order = lists[1:]
    d = order.shape[0]
    nodes = len(bounds) - 1
    features = np.arange(d)[:, None]
    width = max(1, SEARCH_BLOCK // d)
    chunks = []
    i = 0
    while i < nodes:  # nodes of about SEARCH_BLOCK entries at a time
        j = i + 1
        while j < nodes and bounds[j + 1] - bounds[i] <= width:
            j += 1
        lo, hi = bounds[i], bounds[j]
        local = [b - lo for b in bounds[i:j + 1]]
        starts, sizes = np.array(local[:-1]), np.diff(local)
        m = hi - lo
        step = max(1, SEARCH_BLOCK // m)
        for f0 in range(0, d, step):
            g = _cut_gini(x, y1, order[f0:f0 + step, lo:hi], features[f0:f0 + step], local,
                          total0[lo:hi], total1[lo:hi], total[lo:hi])
            per_feature = np.minimum.reduceat(g, starts, axis=1)
            v = per_feature.min(axis=0)
            f = (per_feature == v).argmax(axis=0)
            hit = np.flatnonzero(g[np.repeat(f, sizes), np.arange(m)] == np.repeat(v, sizes))
            k = hit[np.searchsorted(hit, starts)] - starts
            if f0:  # an earlier block keeps its ties
                better = v < best[0]
                v, f, k = (np.where(better, new, old) for new, old in zip((v, f0 + f, k), best))
            best = v, f, k
        chunks.append(best)
        i = j
    return tuple(np.concatenate(part) for part in zip(*chunks))


def best_split(x, y, presorted=None):
    """Exhaustive best (feature, threshold) by weighted Gini, or None.

    ``x`` is (n, d) and ``y`` holds the labels (class 1 where ``y == 1``).
    ``presorted`` is the node's rows in the layout of ``presort`` when the
    node holds only some rows; without it the node is every row, sorted here.

    Returns (feature, threshold, weighted_gini); None when no candidate
    split exists or none strictly reduces the node impurity.
    """
    x = np.asarray(x, dtype=np.float64)
    y1 = np.asarray(y) == 1
    lists = presort(x) if presorted is None else presorted
    n1 = np.count_nonzero(y1[lists[0]])
    found = _search_node(x, y1, lists, (lists.shape[1] - n1, n1))
    if found is None:
        return None
    feature, k, weighted = found
    a, b = x[lists[1 + feature, k:k + 2], feature]
    return feature, float(midpoint(a, b)), float(weighted)


class _Nodes:
    """A tree while it grows: per-node arrays, indexed in the order nodes are made.

    A split's children are made together, so its right child is ``left + 1``.
    """

    def __init__(self):
        self.feature = np.full(1, -1, dtype=np.int64)
        self.left = np.full(1, -1, dtype=np.int64)
        self.low = np.zeros(1)  # a split's values either side of its cut
        self.high = np.zeros(1)
        self.counts = np.zeros((1, 2), dtype=np.int64)
        self.size = 1

    def add(self, count: int) -> int:
        """The id of the first of ``count`` new nodes."""
        first, self.size = self.size, self.size + count
        if self.size > len(self.feature):  # at least double the arrays
            more = max(self.size, 2 * len(self.feature)) - len(self.feature)
            self.feature, self.left = (np.concatenate([a, np.full(more, -1)]) for a in (self.feature, self.left))
            self.low, self.high = (np.concatenate([a, np.zeros(more)]) for a in (self.low, self.high))
            self.counts = np.concatenate([self.counts, np.zeros((more, 2), dtype=np.int64)])
        return first

    def model(self) -> TreeModel:
        """The finished tree, numbered as a depth-first fit numbers it.

        That fit visits the right subtree first and numbers both children of
        a split when it visits the split, so the children of the r-th split
        it visits are nodes 2r + 1 and 2r + 2.
        """
        size = self.size
        left = self.left[:size].tolist()
        visits, stack = [], [0] if size > 1 else []
        while stack:
            node = stack.pop()
            visits.append(node)
            child = left[node]
            if left[child] >= 0:
                stack.append(child)
            if left[child + 1] >= 0:
                stack.append(child + 1)
        visits = np.array(visits, dtype=np.int64)
        new = np.zeros(size, dtype=np.int64)
        new[self.left[visits]] = 2 * np.arange(len(visits)) + 1
        new[self.left[visits] + 1] = 2 * np.arange(len(visits)) + 2
        old = np.empty_like(new)
        old[new] = np.arange(size)
        feature = self.feature[old]
        inner = feature >= 0
        left = np.where(inner, new[self.left[old]], -1)
        return TreeModel(
            feature=feature,
            threshold=np.where(inner, midpoint(self.low[old], self.high[old]), 0.0),
            left=left,
            right=np.where(inner, left + 1, -1),
            counts=self.counts[old],
        )


def dt_fit(train: FeatureMatrix) -> TreeModel:
    """Grow a tree to purity (or until no split reduces the Gini impurity)."""
    x = train.values
    y1 = train.labels == 1
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot fit a tree on an empty matrix")

    nodes = _Nodes()
    n1 = np.count_nonzero(y1)
    nodes.counts[0] = (n - n1, n1)
    if 0 < n1 < n and x.shape[1]:
        go_left = np.zeros(n, dtype=bool)
        pool = _grow_large(x, y1, nodes, presort(x), go_left)
        if pool:
            _grow_pool(x, y1, nodes, pool, go_left)
    return nodes.model()


def _grow_large(x, y1, nodes, lists, go_left):
    """Grow the mixed root, whose row lists are ``lists``, depth first.

    Each node of more than ``SMALL`` rows is searched alone. Returns the pool:
    the (node, row lists) pairs of the mixed nodes of at most ``SMALL`` rows.
    """
    stack, pool = [], []
    (stack if lists.shape[1] > SMALL else pool).append((0, lists))
    while stack:
        node, lists = stack.pop()
        found = _search_node(x, y1, lists, nodes.counts[node].tolist())
        if found is None:
            continue
        f, k, _ = found
        nodes.feature[node] = f
        nodes.low[node], nodes.high[node] = x[lists[1 + f, k:k + 2], f]
        go_left[lists[0]] = False
        go_left[lists[1 + f, :k + 1]] = True  # the rows that x[:, f] <= midpoint sends left
        in_left = go_left[lists]  # one stable partition of every row list
        left = nodes.left[node] = nodes.add(2)
        n1 = nodes.counts[node, 1]
        n1_left = np.count_nonzero(y1[lists[1 + f, :k + 1]])
        for child, kept, size, c1 in ((left, in_left, k + 1, n1_left),
                                      (left + 1, ~in_left, lists.shape[1] - k - 1, n1 - n1_left)):
            nodes.counts[child] = (size - c1, c1)
            if 0 < c1 < size:
                (stack if size > SMALL else pool).append((child, lists[kept].reshape(len(lists), size)))
    return pool


def _grow_pool(x, y1, nodes, pool, go_left):
    """Grow the mixed nodes of ``pool`` to the end, one level of all of them at a time.

    ``pool`` holds (node, row lists) pairs, the lists in the layout of
    ``presort``; it is emptied. Each round lays every node's lists side by
    side, searches them at once and keeps the mixed children of its splits
    for the next round.
    """
    ids, parts = zip(*pool)
    pool.clear()
    ids, sizes = np.array(ids), np.array([part.shape[1] for part in parts])
    lists = np.concatenate(parts, axis=1)  # node ids[i] holds the next sizes[i] columns
    del parts
    while ids.size:
        ends = np.cumsum(sizes)
        starts = ends - sizes
        n1 = nodes.counts[ids, 1]
        rows = lists[0]
        totals = np.array([sizes - n1, n1, sizes], dtype=np.float64)
        p0, p1 = totals[:2] / totals[2]
        parent = 1.0 - p0 * p0 - p1 * p1  # gini(n0, n1) of each node, none of them empty
        weighted, feature, cut = _search_pool(
            x, y1, lists, [0] + ends.tolist(), *np.repeat(totals, sizes, axis=1))

        split = weighted < parent
        parents, f, k = ids[split], feature[split], cut[split]
        at = starts[split] + k
        nodes.feature[parents] = f
        nodes.low[parents] = x[lists[1 + f, at], f]
        nodes.high[parents] = x[lists[1 + f, at + 1], f]
        left = nodes.add(2 * len(parents)) + 2 * np.arange(len(parents))
        nodes.left[parents] = left

        # a split sends left the first k + 1 rows of its feature's list
        columns = np.arange(lists.shape[1])
        to_left = columns - np.repeat(starts, sizes) <= np.repeat(np.where(split, cut, -1), sizes)
        go_left[rows] = False
        go_left[lists[np.repeat(1 + feature, sizes), columns][to_left]] = True
        in_left = go_left[lists]
        n1_left = np.add.reduceat(in_left[0] & y1[rows], starts, dtype=np.int64)[split]
        child_ids = np.concatenate([left, left + 1])
        child_sizes = np.concatenate([k + 1, sizes[split] - k - 1])
        child_n1 = np.concatenate([n1_left, n1[split] - n1_left])
        nodes.counts[child_ids, 0] = child_sizes - child_n1
        nodes.counts[child_ids, 1] = child_n1
        mixed = (child_n1 > 0) & (child_n1 < child_sizes)
        # the mixed children's row lists, left children first: a stable partition
        parts = []
        for kept, child_mixed in ((in_left, mixed[:len(left)]), (~in_left, mixed[len(left):])):
            segment_kept = np.zeros(len(split), dtype=bool)
            segment_kept[split] = child_mixed
            kept &= np.repeat(segment_kept, sizes)
            parts.append(lists[kept].reshape(len(lists), -1))
        lists = np.concatenate(parts, axis=1)
        ids, sizes = child_ids[mixed], child_sizes[mixed]


def dt_score(model: TreeModel, m) -> np.ndarray:
    """Per-row probability of class 1 = leaf class-1 fraction."""
    x = model_input(m)
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
