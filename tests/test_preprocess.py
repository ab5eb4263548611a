import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.ingest import FeatureMatrix
from flowbench.preprocess import (
    ScalerModel, apply_scaler, class_weights, fit_scaler, stratified_kfold,
    stratified_split, stratified_subsample,
)

from helpers import blobs


def matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = np.zeros(values.shape[0], dtype=int) if labels is None else labels
    if len(np.unique(labels)) == 1 and values.shape[0] >= 2:
        labels = np.array(labels)
        labels[0] = 1 - labels[0]
    return FeatureMatrix(values=values,
                         feature_names=[f"f{i}" for i in range(values.shape[1])],
                         labels=labels)


class TestScaler:
    def test_min_max_recorded(self):
        fm = matrix([[0.0], [5.0], [10.0]])
        s = fit_scaler(fm)
        assert s.mins[0] == 0.0 and s.maxs[0] == 10.0

    def test_constant_column(self):
        s = fit_scaler(matrix([[3.0], [3.0], [3.0]]))
        assert s.mins[0] == s.maxs[0] == 3.0
        out = apply_scaler(matrix([[3.0], [7.0]]), s)
        assert (out.values[:, 0] == 0.0).all()

    def test_two_features_two_pairs(self):
        s = fit_scaler(matrix([[1.0, 10.0], [2.0, 20.0]]))
        assert s.n_features == 2

    def test_midpoint_and_boundaries(self):
        s = ScalerModel(mins=np.array([0.0]), maxs=np.array([10.0]))
        out = apply_scaler(matrix([[5.0], [0.0], [10.0]]), s)
        np.testing.assert_allclose(out.values[:, 0], [0.5, 0.0, 1.0])

    def test_train_rows_land_in_unit_interval(self):
        fm = blobs(n0=50, n1=50, d=3, seed=3)
        out = apply_scaler(fm, fit_scaler(fm))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_out_of_range_clipped(self):
        s = ScalerModel(mins=np.array([0.0]), maxs=np.array([1.0]))
        out = apply_scaler(matrix([[-5.0], [2.0]]), s)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 1.0])

    def test_same_bytes_as_the_formula_and_input_untouched(self):
        rng = np.random.default_rng(5)
        train = matrix(rng.normal(scale=3.0, size=(40, 4)))
        s = fit_scaler(train)
        s.maxs[2] = s.mins[2]  # a zero-range feature
        test = matrix(rng.normal(scale=5.0, size=(30, 4)))  # values outside the fitted range
        before = test.values.tobytes()
        span = s.maxs - s.mins
        want = np.clip((test.values - s.mins) / np.where(span > 0, span, 1.0), 0.0, 1.0)
        want[:, 2] = 0.0
        assert apply_scaler(test, s).values.tobytes() == want.tobytes()
        assert test.values.tobytes() == before

    def test_width_mismatch(self):
        s = fit_scaler(matrix([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="mismatch"):
            apply_scaler(matrix([[1.0]]), s)


class TestStratifiedSplit:
    def test_exact_ratio(self):
        y = np.array([0] * 80 + [1] * 20)
        fm = matrix(np.arange(100.0)[:, None], y)
        train, test = stratified_split(fm, 0.25, seed=1)
        assert (test.labels == 0).sum() == 20
        assert (test.labels == 1).sum() == 5

    def test_deterministic_in_seed(self):
        fm = blobs(60, 40, seed=5)
        a1, b1 = stratified_split(fm, 0.3, seed=9)
        a2, b2 = stratified_split(fm, 0.3, seed=9)
        assert a1.values.tobytes() == a2.values.tobytes()
        assert b1.values.tobytes() == b2.values.tobytes()

    def test_total_within_one(self):
        fm = blobs(700, 300, seed=2)
        _, test = stratified_split(fm, 0.3, seed=0)
        assert abs(test.n_samples - 300) <= 1

    def test_tiny_class_rejected(self):
        fm = matrix([[0.0], [1.0], [2.0]], np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            stratified_split(fm, 0.5, seed=0)


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        y = np.array([0] * 90 + [1] * 10)
        fm = matrix(np.arange(100.0)[:, None], y)
        plan = stratified_kfold(fm, 5, seed=0)
        for f in range(5):
            sel = plan.assignments == f
            assert sel.sum() == 20
            assert (y[sel] == 1).sum() == 2

    def test_partition(self):
        fm = blobs(60, 43, seed=1)
        plan = stratified_kfold(fm, 5, seed=4)
        assert plan.assignments.shape == (103,)
        sizes = np.bincount(plan.assignments, minlength=5)
        assert set(sizes) <= {20, 21}
        assert sizes.sum() == 103

    def test_per_fold_proportion_within_one_sample(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n1 = int(rng.integers(6, 60))
            n0 = int(rng.integers(6, 200))
            fm = blobs(n0, n1, d=2, seed=trial)
            k = int(rng.integers(2, 6))
            plan = stratified_kfold(fm, k, seed=trial)
            p_global = n1 / (n0 + n1)
            for f in range(k):
                sel = plan.assignments == f
                p_fold = (fm.labels[sel] == 1).mean()
                assert abs(p_fold - p_global) <= 1.0 / sel.sum() + 1e-12

    def test_class_smaller_than_k(self):
        fm = matrix(np.arange(10.0)[:, None], np.array([1] * 3 + [0] * 7))
        with pytest.raises(ValueError):
            stratified_kfold(fm, 4, seed=0)

    def test_deterministic(self):
        fm = blobs(30, 30, seed=8)
        p1 = stratified_kfold(fm, 3, seed=2)
        p2 = stratified_kfold(fm, 3, seed=2)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)


class TestClassWeights:
    def test_balanced(self):
        w = class_weights(np.array([0, 1] * 25))
        assert w.w0 == w.w1 == 1.0

    def test_75_25(self):
        w = class_weights(np.array([0] * 75 + [1] * 25))
        np.testing.assert_allclose(w.w0, 100 / 150)
        np.testing.assert_allclose(w.w1, 2.0)

    def test_unsw_counts(self):
        # class sizes of the largest public flow dataset used here
        n0, n1 = 2_218_761, 321_283
        w1 = (n0 + n1) / (2.0 * n1)
        assert abs(w1 - 3.9529) < 1e-3
        small = class_weights(np.array([0] * 69 + [1] * 10))
        np.testing.assert_allclose(small.w1, 79 / 20)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights(np.ones(5))

    @given(
        n0=st.integers(min_value=1, max_value=4000),
        n1=st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_w0n0_plus_w1n1(self, n0, n1):
        w = class_weights(np.array([0] * n0 + [1] * n1))
        total = w.w0 * n0 + w.w1 * n1
        assert abs(total - (n0 + n1)) <= np.spacing(float(n0 + n1)) * 4


def typed_matrix(sizes, seed=0):
    """A matrix of one benign group and then one attack group per further size."""
    types = np.concatenate([np.full(size, f"t{i}", dtype=object) for i, size in enumerate(sizes)])
    labels = np.array([0] * sizes[0] + [1] * (len(types) - sizes[0]))
    values = np.random.default_rng(seed).normal(size=(len(types), 2))
    return FeatureMatrix(values=values, feature_names=["f0", "f1"], labels=labels,
                         attack_types=types)


def group_counts(m):
    keys, counts = np.unique(m.attack_types.astype(str), return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


class TestSubsample:
    # each class's rows: the cap shared out by largest remainder, at least one;
    # equal remainders give the extra row to the earlier key, class 0
    CLASS_QUOTAS = {(900, 100, 100): (90, 10), (995, 5, 50): (49, 1), (30, 10, 39): (29, 10),
                    (10, 10, 3): (2, 1), (10, 10, 7): (4, 3), (10, 10, 11): (6, 5),
                    (10, 10, 19): (10, 9)}

    def test_cap_respected_and_groups_survive(self):
        fm = blobs(900, 100, seed=0)
        types = np.array(["benign"] * 900 + ["dos"] * 60 + ["rare" ] * 40, dtype=object)
        fm = FeatureMatrix(values=fm.values, feature_names=fm.feature_names,
                           labels=np.array([0] * 900 + [1] * 100),
                           attack_types=types)
        out = stratified_subsample(fm, 100, seed=1)
        assert out.n_samples == 100
        kinds = set(out.attack_types[out.labels == 1])
        assert {"dos", "rare"} <= kinds

    @pytest.mark.parametrize("n0, n1, cap", list(CLASS_QUOTAS))
    def test_class_quotas_without_attack_types(self, n0, n1, cap):
        fm = blobs(n0, n1, seed=0)
        assert fm.attack_types is None
        out = stratified_subsample(fm, cap, seed=2)
        counts = tuple(int((out.labels == cls).sum()) for cls in (0, 1))
        assert counts == self.CLASS_QUOTAS[n0, n1, cap]

    @pytest.mark.parametrize("sizes, cap, want", [
        ([10, 10, 10], 29, [10, 10, 9]),
        ([990, 5, 5], 10, [8, 1, 1]),  # t1 and t2 have shares of 0.25 rows: t0 shares the other 8
        ([5, 5, 5, 5], 3, [1, 1, 1, 1]),  # more groups than the cap: one row each
    ])
    def test_attack_type_quotas(self, sizes, cap, want):
        out = stratified_subsample(typed_matrix(sizes), cap, seed=4)
        assert group_counts(out) == {f"t{i}": n for i, n in enumerate(want)}

    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_quotas_fill_the_cap_within_each_group(self, sizes, data):
        m = typed_matrix(sizes)
        cap = data.draw(st.integers(1, m.n_samples))
        out = stratified_subsample(m, cap, seed=7)
        counts = group_counts(out)
        assert len(counts) == len(sizes)
        assert all(1 <= counts[f"t{i}"] <= size for i, size in enumerate(sizes))
        assert out.n_samples == min(m.n_samples, max(cap, len(sizes)))

    def test_noop_when_under_cap(self):
        fm = blobs(20, 20, seed=0)
        assert stratified_subsample(fm, 100, seed=0) is fm
