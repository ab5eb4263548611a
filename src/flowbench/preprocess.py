"""Min-max scaling, stratified partitioning and class weighting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import FeatureMatrix


@dataclass
class ScalerModel:
    """Per-feature min/max recorded from training rows."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins/maxs must be matching 1-D vectors")
        if (self.mins > self.maxs).any():
            raise ValueError("found feature with min > max")

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]


def fit_scaler(train: FeatureMatrix) -> ScalerModel:
    if train.n_samples == 0:
        raise ValueError("cannot fit a scaler on an empty matrix")
    return ScalerModel(mins=train.values.min(axis=0), maxs=train.values.max(axis=0))


def apply_scaler(m: FeatureMatrix, s: ScalerModel) -> FeatureMatrix:
    """Map each feature through (x - min) / (max - min).

    Zero-range features map to 0.0; values outside the fitted range are
    clipped so outputs always lie in [0, 1].
    """
    if m.n_features != s.n_features:
        raise ValueError(
            f"feature count mismatch: matrix has {m.n_features}, scaler has {s.n_features}"
        )
    span = s.maxs - s.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = np.subtract(m.values, s.mins)
    scaled /= safe  # in place: one full-size temporary fewer
    scaled[:, span == 0] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return m.with_values(scaled, feature_names=m.feature_names)


@dataclass
class ClassWeights:
    """Inverse-frequency weights: w_c = n / (2 * n_c)."""

    w0: float
    w1: float

    def per_sample(self, labels: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(labels) == 1, self.w1, self.w0)


def class_weights(labels) -> ClassWeights:
    labels = np.asarray(labels)
    n = labels.shape[0]
    n1 = int((labels == 1).sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("class weights need both classes present")
    return ClassWeights(w0=n / (2.0 * n0), w1=n / (2.0 * n1))


def _per_class_indices(labels: np.ndarray, rng: np.random.Generator):
    """Shuffled index arrays for class 0 and class 1."""
    out = []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        out.append(idx)
    return out


def stratified_split(
    m: FeatureMatrix, test_fraction: float, seed: int
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Deterministic train/test split preserving the class balance."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for idx in _per_class_indices(m.labels, rng):
        if idx.size < 2:
            raise ValueError("each class needs at least 2 samples to split")
        n_test = int(round(test_fraction * idx.size))
        n_test = min(max(n_test, 1), idx.size - 1)
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return m.take(train_idx), m.take(test_idx)


@dataclass
class FoldPlan:
    """Assignment of every sample to one of k folds."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if ((self.assignments < 0) | (self.assignments >= self.k)).any():
            raise ValueError("fold assignments out of range")

    def train_test_indices(self, fold: int):
        mask = self.assignments == fold
        return np.flatnonzero(~mask), np.flatnonzero(mask)


def stratified_kfold(m: FeatureMatrix, k: int, seed: int) -> FoldPlan:
    """k folds whose class-1 share stays within one sample of the global share.

    Each class's shuffled indices are dealt round-robin across folds, which
    bounds every per-class fold count to within 1 of n_c / k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignments = np.empty(m.n_samples, dtype=np.int64)
    for idx in _per_class_indices(m.labels, rng):
        if idx.size < k:
            raise ValueError(f"a class has fewer than k={k} samples")
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments)


def _quotas(cap: int, sizes: np.ndarray) -> np.ndarray:
    """Rows kept per group: ``cap`` (below ``sizes.sum()``) shared out by largest remainder.

    Every group keeps at least one row: a group whose share is under one row
    keeps one, and the other groups share the remaining rows again. Ties go
    to the earlier group. With at least as many groups as ``cap``, every
    quota is 1; otherwise the quotas add up to ``cap``.
    """
    quotas = np.ones(sizes.size, dtype=np.int64)
    if cap <= sizes.size:
        return quotas
    shared = np.ones(sizes.size, dtype=bool)  # the groups not held at one row
    while True:
        # group i's share is share[i] / total rows, in exact integers; the
        # shares add up to more than one row per shared group, so one stays
        rows = cap - np.count_nonzero(~shared)
        share, total = rows * sizes[shared], sizes[shared].sum()
        under = share < total
        if not under.any():
            break
        shared[np.flatnonzero(shared)[under]] = False
    base, remainder = np.divmod(share, total)
    base[np.argsort(-remainder, kind="stable")[:rows - base.sum()]] += 1
    quotas[shared] = base
    return quotas


def stratified_subsample(m: FeatureMatrix, cap: int, seed: int) -> FeatureMatrix:
    """Cap the row count, sampling within (label, attack_type) groups.

    The cap is shared out in proportion to the groups' sizes by largest
    remainder, ties to the earlier group key, with a floor of one row, so
    rare attack types survive desk-scale subsampling. The result holds
    exactly ``cap`` rows, unless there are more groups than ``cap``: then
    each group keeps one row.
    """
    if cap >= m.n_samples:
        return m
    rng = np.random.default_rng(seed)
    if m.attack_types is None:
        group_keys = m.labels.astype(str)
    else:
        group_keys = np.array(
            [f"{l}:{t}" for l, t in zip(m.labels, m.attack_types)], dtype=object
        )
    groups = [np.flatnonzero(group_keys == key) for key in sorted(set(group_keys.tolist()))]
    chosen = []
    for idx, quota in zip(groups, _quotas(cap, np.array([idx.size for idx in groups]))):
        rng.shuffle(idx)
        chosen.append(idx[:quota])
    picked = np.sort(np.concatenate(chosen))
    return m.take(picked)
