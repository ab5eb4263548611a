import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.classifiers import (
    DEEP_KINDS, ClassifierSpec, cnn_layers, conv_output_lengths, dff_layers, dt_fit, dt_score,
    fit_classifier, fit_predict, gnb_fit, gnb_score, lr_fit, lr_score, rnn_layers,
)
from flowbench.classifiers import logistic, tree
from flowbench.classifiers.logistic import _loss_grad
from flowbench.classifiers.tree import TreeModel, best_split, gini
from flowbench.extract import (
    ae_encode, ae_fit, lda_fit, lda_transform, pca_fit, pca_transform,
)
from flowbench.ingest import FeatureMatrix
from flowbench.nn import TrainConfig, build_network, parameter_count, train
from flowbench.persist import load_model, save_model
from flowbench.preprocess import class_weights

import lr_reference
from helpers import blobs
from lr_reference import reference_lr_fit
from tree_reference import reference_best_split, reference_dt_fit


def matrix(values, labels):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return FeatureMatrix(values=values,
                         feature_names=[f"f{i}" for i in range(values.shape[1])],
                         labels=np.asarray(labels))


class TestBuilders:
    def test_dff_parameter_count(self):
        net = build_network(dff_layers(40), 40)
        assert parameter_count(net) == 40 * 20 + 20 + 20 * 20 + 20 + 20 * 20 + 20 + 20 + 1

    def test_dff_output_width_and_dropout(self):
        layers = dff_layers(12)
        assert layers[-1].units == 1
        assert layers[-1].activation == "sigmoid"
        rates = [s.rate for s in layers if s.kind == "dropout"]
        assert rates == [0.2]

    def test_cnn_sequence_lengths(self):
        assert conv_output_lengths(20) == [18, 9, 8, 4, 4]

    def test_cnn_small_input_single_conv(self):
        layers = cnn_layers(5)
        convs = [s for s in layers if s.kind == "conv1d"]
        assert len(convs) == 1
        assert convs[0].kernel_size == 1
        assert any(s.kind == "avgpool1d" for s in layers)

    def test_cnn_width_one_skips_pooling(self):
        layers = cnn_layers(1)
        assert not any(s.kind == "avgpool1d" for s in layers)
        net = build_network(layers, 1)
        p = net.predict_proba(np.array([[0.3], [0.9]]))
        assert p.shape == (2,)
        assert ((p > 0) & (p < 1)).all()

    def test_cnn_full_stack_kernel_sizes(self):
        kernels = [s.kernel_size for s in cnn_layers(30) if s.kind == "conv1d"]
        assert kernels == [3, 2, 1]
        filters = {s.units for s in cnn_layers(30) if s.kind == "conv1d"}
        assert filters == {20}

    def test_rnn_lstm_units_match_input(self):
        for d in (3, 7, 24):
            layers = rnn_layers(d)
            assert layers[0].kind == "lstm" and layers[0].units == d
        net = build_network(rnn_layers(3), 3)
        lstm_params = net.layers[1].params()  # [wx, wh, b] after the adapter
        assert sum(p.size for p in lstm_params) == 84

    def test_rnn_output_width(self):
        net = build_network(rnn_layers(6), 6)
        assert net.output_dim == 1

    def test_spec_constructors_validate(self):
        for layers in (dff_layers, cnn_layers, rnn_layers):
            with pytest.raises(ValueError):
                layers(0)
        with pytest.raises(ValueError):
            ClassifierSpec(kind="svm")


def exhaustive_best_split(x, y, w=None):
    """Oracle: scan every (feature, midpoint threshold) in order, strict argmin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    total_w = w.sum()
    parent = gini(w[y == 0].sum(), w[y == 1].sum())
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = x[:, f] <= thr
            wl = w[left]
            yl = y[left]
            wr = w[~left]
            yr = y[~left]
            g = (
                wl.sum() * gini(wl[yl == 0].sum(), wl[yl == 1].sum())
                + wr.sum() * gini(wr[yr == 0].sum(), wr[yr == 1].sum())
            ) / total_w
            if best is None or g < best[2]:
                best = (f, thr, g)
    if best is None or best[2] >= parent:
        return None
    return best


def tree_model(feature, threshold, left, right, counts) -> TreeModel:
    return TreeModel(feature=np.array(feature, dtype=np.int64),
                     threshold=np.array(threshold, dtype=np.float64),
                     left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
                     counts=np.array(counts, dtype=np.int64))


class TestDecisionTree:
    def test_hand_enumerated_root(self):
        fm = matrix([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
        tree = dt_fit(fm)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5
        left, right = tree.left[0], tree.right[0]
        assert tree.feature[left] == -1 and tree.feature[right] == -1
        assert tuple(tree.counts[left]) == (2, 0)
        assert tuple(tree.counts[right]) == (0, 2)

    def test_pure_input_single_leaf(self):
        fm = matrix([[1.0], [2.0], [3.0]], [1, 1, 1])
        tree = dt_fit(fm)
        assert tree.feature.tolist() == [-1]
        assert tuple(tree.counts[0]) == (0, 3)

    def test_consistent_data_perfect_train_accuracy(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            x = rng.normal(size=(40, 3))
            y = rng.integers(0, 2, 40)
            fm = matrix(x, y)
            tree = dt_fit(fm)
            preds = (dt_score(tree, fm) >= 0.5).astype(int)
            assert (preds == y).all()

    def test_root_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            # small integer grid makes ties common
            x = rng.integers(0, 4, size=(n, d)).astype(float)
            y = rng.integers(0, 2, n)
            got = best_split(x, y)
            want = exhaustive_best_split(x, y)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == want[0]
                assert got[1] == want[1]
                assert abs(got[2] - want[2]) < 1e-12

    def test_every_split_reduces_weighted_gini(self):
        fm = blobs(n0=60, n1=60, d=3, separation=1.0, seed=3)
        tree = dt_fit(fm)

        def walk(node, idx):
            feature = tree.feature[node]
            if feature < 0:
                return
            y = fm.labels[idx]
            parent = gini(float((y == 0).sum()), float((y == 1).sum()))
            left = idx[fm.values[idx, feature] <= tree.threshold[node]]
            right = idx[fm.values[idx, feature] > tree.threshold[node]]
            yl, yr = fm.labels[left], fm.labels[right]
            child = (
                len(left) * gini(float((yl == 0).sum()), float((yl == 1).sum()))
                + len(right) * gini(float((yr == 0).sum()), float((yr == 1).sum()))
            ) / len(idx)
            assert child < parent
            walk(tree.left[node], left)
            walk(tree.right[node], right)

        walk(0, np.arange(fm.n_samples))
        assert tree.depth() <= fm.n_samples

    def test_leaf_fraction_probabilities(self):
        leaf = tree_model([-1], [0.0], [-1], [-1], [(3, 1)])
        fm = matrix([[0.0]], [0])
        assert dt_score(leaf, fm)[0] == 0.25
        pure = tree_model([-1], [0.0], [-1], [-1], [(0, 4)])
        assert dt_score(pure, fm)[0] == 1.0

    def test_routing_convention(self):
        # value == threshold goes left at every internal node
        tree = tree_model([0, -1, -1], [1.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                          [(1, 1), (1, 0), (0, 1)])
        fm = matrix([[1.0], [1.0001]], [0, 1])
        probs = dt_score(tree, fm)
        assert probs[0] == 0.0 and probs[1] == 1.0

    def test_narrow_data_rejected(self):
        tree = tree_model([2, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                          [(1, 1), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match="tree expects at least 3 features, data has 2"):
            dt_score(tree, np.zeros((4, 2)))

    def test_monotone_feature_transform_keeps_predictions(self):
        fm = blobs(n0=50, n1=50, d=3, separation=2.0, seed=4)
        transformed = FeatureMatrix(
            values=np.exp(fm.values * 0.5), feature_names=fm.feature_names,
            labels=fm.labels,
        )
        p_a = dt_score(dt_fit(fm), fm)
        p_b = dt_score(dt_fit(transformed), transformed)
        np.testing.assert_allclose(p_a, p_b)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")
# 1 searches every node alone, 10**9 pools every node, 8, 64 and 256 mix the two
GROWTH_SMALL = [1, 8, 64, 256, 10**9]


@st.composite
def tree_inputs(draw):
    """A small matrix with many ties, maybe constant columns, one class or two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 5))
    x = np.round(rng.normal(scale=2.0, size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    x[:, rng.random(d) < draw(st.sampled_from([0.0, 0.3]))] = 1.5
    if draw(st.booleans()):
        y = rng.integers(0, 2, n)
    else:
        y = np.full(n, draw(st.integers(0, 1)))
    return (matrix(x, y), draw(st.sampled_from([1, 7, tree.SEARCH_BLOCK])),
            draw(st.sampled_from(GROWTH_SMALL)))


def assert_same_tree(got: TreeModel, want: TreeModel):
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


class TestPresortedTree:
    """The presorted fit against the per-node-sort reference in tests/tree_reference.py."""

    @settings(max_examples=300, deadline=None)
    @given(tree_inputs())
    def test_matches_reference(self, case):
        fm, block, small = case
        saved = tree.SEARCH_BLOCK, tree.SMALL
        tree.SEARCH_BLOCK, tree.SMALL = block, small  # 1 and 7 split the search into many blocks
        try:
            got = dt_fit(fm)
        finally:
            tree.SEARCH_BLOCK, tree.SMALL = saved
        assert_same_tree(got, reference_dt_fit(fm))

    @staticmethod
    def assert_every_growth_matches(monkeypatch, fm):
        want = reference_dt_fit(fm)
        for small in (1, 64, 256, 10**9):
            for block in (1, 7, tree.SEARCH_BLOCK):
                monkeypatch.setattr(tree, "SMALL", small)
                monkeypatch.setattr(tree, "SEARCH_BLOCK", block)
                assert_same_tree(dt_fit(fm), want)
        monkeypatch.undo()  # callers read the default SMALL
        return want

    def test_matches_reference_on_overlapping_blobs(self, monkeypatch):
        fm = blobs(n0=700, n1=120, d=6, separation=1.0, seed=11)
        fm = matrix(np.round(fm.values, 2), fm.labels)
        want = self.assert_every_growth_matches(monkeypatch, fm)
        assert len(want.feature) > 50

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_reference_on_a_deep_noise_chain(self, monkeypatch, d):
        # labels independent of one or two coarse features: the tree is a long
        # chain of large nodes with many small nodes hanging off it
        rng = np.random.default_rng(23 + d)
        x = np.round(rng.normal(size=(1500, d)), 2)
        y = (rng.random(1500) < 0.3).astype(int)
        want = self.assert_every_growth_matches(monkeypatch, matrix(x, y))
        assert want.depth() > 20 and (want.counts.sum(axis=1) <= tree.SMALL).sum() > 200

    def test_each_mixed_node_searched_once(self, monkeypatch):
        alone, pooled = [], []
        search_node, search_pool = tree._search_node, tree._search_pool

        def count_node(*args):
            alone.append(args[2].shape[1])
            return search_node(*args)

        def count_pool(x, y1, lists, bounds, *totals):
            pooled.extend(np.diff(bounds).tolist())
            return search_pool(x, y1, lists, bounds, *totals)

        monkeypatch.setattr(tree, "_search_node", count_node)
        monkeypatch.setattr(tree, "_search_pool", count_pool)
        fm = blobs(n0=150, n1=150, d=3, separation=1.0, seed=9)
        fm = matrix(np.round(fm.values), fm.labels)  # repeated points with both labels
        model = dt_fit(fm)
        mixed = (model.counts > 0).all(axis=1)
        assert len(alone) + len(pooled) == int(mixed.sum())
        assert min(alone) > tree.SMALL >= max(pooled)
        sizes = model.counts[mixed].sum(axis=1)
        assert sorted(alone + pooled) == sorted(sizes.tolist())
        # mixed leaves, where no cut reduced the impurity, count too
        assert (mixed & (model.feature < 0)).any()

    @settings(max_examples=150, deadline=None)
    @given(tree_inputs())
    def test_unweighted_fit_matches_unit_weights(self, case):
        # the search sums class counts, the reference sums 1.0 per row: every
        # growth must give the reference's tree
        fm, _, _ = case
        want = reference_dt_fit(fm)
        saved = tree.SEARCH_BLOCK, tree.SMALL
        try:
            for small in (1, 64, 256, 10**9):
                for block in (1, 7, saved[0]):
                    tree.SEARCH_BLOCK, tree.SMALL = block, small
                    assert_same_tree(dt_fit(fm), want)
        finally:
            tree.SEARCH_BLOCK, tree.SMALL = saved
        x, y = fm.values, fm.labels
        assert repr(best_split(x, y)) == repr(reference_best_split(x, y, None))

    def test_public_best_split_sorts_itself(self):
        x = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
        y = np.array([1, 0, 1, 0])
        assert best_split(x, y) == (0, 1.5, 0.0)
        lists = tree.presort(x)
        assert lists.tolist() == [[0, 1, 2, 3], [3, 1, 2, 0], [2, 3, 0, 1]]
        assert best_split(x, y, lists) == (0, 1.5, 0.0)


@st.composite
def sort_inputs(draw):
    """Columns with many ties: rounded values, +-0.0 and NaN, maybe constant; any width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 15, 40, 300]))
    d = draw(st.integers(0, 4))
    x = np.round(rng.normal(scale=2.0, size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    special = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    x[special] = rng.choice([0.0, -0.0, np.nan], size=int(special.sum()))
    x[:, rng.random(d) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    return x


def same_value(a, b):
    """Elementwise a == b, where NaN equals NaN."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


class TestTreeSort:
    """``presort`` sorts fast, then puts every run of equal values back in row order."""

    @settings(max_examples=200, deadline=None)
    @given(sort_inputs())
    def test_presort_is_the_stable_argsort(self, x):
        lists = tree.presort(x)
        want = np.vstack([np.arange(x.shape[0]), np.argsort(x.T, axis=1, kind="stable")])
        assert (lists.dtype, lists.shape) == (want.dtype, want.shape)
        assert lists.tolist() == want.tolist()

    def test_fast_sort_breaks_ties_out_of_row_order(self):
        # else the tie repair would have nothing to do here
        x = np.random.default_rng(2).integers(0, 4, size=(1000, 1)).astype(float)
        assert np.argsort(x[:, 0]).tolist() != np.argsort(x[:, 0], kind="stable").tolist()
        assert tree.presort(x)[1].tolist() == np.argsort(x[:, 0], kind="stable").tolist()

    @pytest.mark.parametrize("scramble", ["reversed", "shuffled"])
    def test_ties_restored_from_any_order(self, scramble):
        rng = np.random.default_rng(5)
        n = 500
        values = rng.integers(-2, 4, n).astype(float)
        values[rng.random(n) < 0.1] = np.nan
        values[rng.random(n) < 0.1] = -0.0  # equal to the 0.0 rows
        stable = np.argsort(values, kind="stable")
        run = np.cumsum(np.r_[True, ~same_value(values[stable][1:], values[stable][:-1])])
        within = -np.arange(n) if scramble == "reversed" else rng.random(n)
        order = stable[np.lexsort((within, run))]  # each run's rows in another order
        assert order.tolist() != stable.tolist()
        tree._restore_ties(order, values)
        assert order.tolist() == stable.tolist()

    def test_best_split_takes_nan_and_signed_zeros(self):
        # NaNs sort last and form one run; -0.0 and 0.0 are one value
        x = np.array([[np.nan, 0.0], [1.0, -0.0], [np.nan, 0.0], [0.0, 1.0], [-0.0, -0.0]])
        y = np.array([0, 1, 1, 0, 1])
        assert tree.presort(x).tolist() == [[0, 1, 2, 3, 4], [3, 4, 1, 0, 2], [0, 1, 2, 4, 3]]
        assert repr(best_split(x, y)) == repr(reference_best_split(x, y, None))


class TestTreeProgress:
    """Every fit ends: each split sends rows to both children."""

    @pytest.mark.parametrize("a, b, threshold", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
         np.nextafter(1.0, 2.0)),  # (a + b) / 2 rounds up to b
        (1e308, 1.7e308, 1.35e308),  # a + b overflows
        (-1.7e308, 1.7e308, 0.0),
        (5e-324, 1e-323, 5e-324),  # subnormal: (a + b) / 2 rounds to b too
    ], ids=["adjacent", "near-max", "full-range", "subnormal"])
    def test_fit_ends_on_hard_neighbours(self, a, b, threshold):
        fm = matrix([[a], [b], [a]], [0, 1, 0])
        assert best_split(fm.values, fm.labels) == (0, threshold, 0.0)
        model = dt_fit(fm)
        assert_same_tree(model, reference_dt_fit(fm))
        assert model.threshold[0] == threshold
        assert model.counts.tolist() == [[2, 1], [2, 0], [0, 1]]
        assert dt_score(model, fm).tolist() == [0.0, 1.0, 0.0]

    def test_fit_ends_on_constant_columns(self):
        x = np.full((6, 2), 3.0)
        fm = matrix(x, [0, 1, 0, 1, 1, 0])
        assert best_split(x, fm.labels) is None
        model = dt_fit(fm)
        assert model.feature.tolist() == [-1] and model.counts.tolist() == [[3, 3]]
        x = np.column_stack([x[:, 0], [0.0, 1.0, 0.0, 1.0, 1.0, 0.0]])
        model = dt_fit(matrix(x, fm.labels))
        assert model.feature.tolist() == [1, -1, -1] and model.threshold[0] == 0.5
        no_features = matrix(np.zeros((6, 0)), fm.labels)
        assert_same_tree(dt_fit(no_features), reference_dt_fit(no_features))


class TestLogisticRegression:
    def test_separable_perfect_train_accuracy(self):
        fm = matrix(np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)]),
                    np.array([0] * 20 + [1] * 20))
        model = lr_fit(fm)
        preds = (lr_score(model, fm) >= 0.5).astype(int)
        assert (preds == fm.labels).all()
        assert np.isfinite(model.weights).all()

    def test_symmetric_data_zero_bias(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 2))
        y = (x[:, 0] > 0).astype(int)
        x_full = np.vstack([x, -x])
        y_full = np.concatenate([y, 1 - y])
        model = lr_fit(matrix(x_full, y_full))
        assert abs(model.bias) < 1e-3

    def test_gradient_norm_at_convergence(self):
        fm = blobs(n0=80, n1=80, d=3, separation=1.5, seed=6)
        model = lr_fit(fm)
        assert model.converged
        theta = np.append(model.weights, model.bias)
        y_pm = 2.0 * fm.labels - 1.0
        _, grad = _loss_grad(theta, fm.values, y_pm, model.C)
        assert np.abs(grad).max() <= 1e-4

    def test_final_loss_beats_origin(self):
        for seed in range(5):
            fm = blobs(n0=50, n1=50, d=4, separation=1.0, seed=seed)
            model = lr_fit(fm)
            theta = np.append(model.weights, model.bias)
            y_pm = 2.0 * fm.labels - 1.0
            loss_fit, _ = _loss_grad(theta, fm.values, y_pm, model.C)
            loss_origin, _ = _loss_grad(np.zeros_like(theta), fm.values, y_pm, model.C)
            assert loss_fit <= loss_origin

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(logistic, "MAX_ITER", 2)
        fm = blobs(n0=40, n1=40, d=3, seed=7)
        model = lr_fit(fm)
        assert model.iterations_used <= 2


def _lr_loss(model, fm):
    theta = np.append(model.weights, model.bias)
    return _loss_grad(theta, fm.values, 2.0 * fm.labels - 1.0, model.C)[0]


def _skewed_blobs(form, seed):
    """Imbalanced blobs, as drawn ("plain") or min-max scaled as a sweep feeds them ("scaled")."""
    return blobs(n0=300, n1=60, d=6, separation=1.0, seed=seed, scale01=form == "scaled")


def _reference_loss_grad(theta, x, y_pm, sw, C):
    """The loss as ``lr_reference`` calls it, with its unit row weights."""
    assert (sw == 1.0).all()
    return _loss_grad(theta, x, y_pm, C)


class TestNewtonAgainstReference:
    """The Newton fit against the L-BFGS fit in tests/lr_reference.py."""

    @pytest.fixture(autouse=True)
    def _unweighted_reference(self, monkeypatch):
        monkeypatch.setattr(lr_reference, "_loss_grad", _reference_loss_grad)

    @pytest.mark.parametrize("form", ["plain", "scaled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_minimizer(self, monkeypatch, form, seed):
        # At TOL = 1e-4 each solver stops up to about 5e-5 from the minimizer,
        # so both are driven closer; below about 1e-7 the loss's rounding
        # hides the Armijo decrease and neither can get there.
        monkeypatch.setattr(logistic, "TOL", 1e-6)
        monkeypatch.setattr(lr_reference, "TOL", 1e-6)
        fm = _skewed_blobs(form, seed)
        got, want = lr_fit(fm), reference_lr_fit(fm)
        assert got.converged and want.converged
        np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-6)
        assert abs(got.bias - want.bias) <= 1e-6
        assert _lr_loss(got, fm) <= _lr_loss(want, fm) * (1 + 1e-12)

    @pytest.mark.parametrize("form", ["plain", "scaled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_few_iterations(self, form, seed):
        fm = _skewed_blobs(form, seed)
        got = lr_fit(fm)
        assert got.converged and got.iterations_used <= 10
        # within the stop test's reach of the reference's answer
        want = reference_lr_fit(fm)
        np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("case", ["separable_1e3", "zero_column", "identical_columns",
                                      "no_features"])
    def test_degenerate_inputs_converge(self, case):
        fm = blobs(n0=70, n1=30, d=3, seed=9)
        x = fm.values.copy()
        if case == "separable_1e3":
            x = np.where(fm.labels[:, None] == 1, 1.0, -1.0) * (1.0 + np.abs(x)) * 1e3
        elif case == "zero_column":
            x[:, 1] = 0.0
        elif case == "identical_columns":
            x[:, 2] = x[:, 0]
        else:
            x = np.empty((fm.n_samples, 0))
        model = lr_fit(matrix(x, fm.labels))
        assert model.converged
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)

    def test_singular_hessian_falls_back_to_steepest_descent(self, monkeypatch):
        calls = []

        def singular(a, b):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        fm = blobs(n0=40, n1=40, d=3, seed=7)
        model = lr_fit(fm)
        assert calls and all(shape == (4, 4) for shape in calls)
        assert model.iterations_used == len(calls)
        origin, _ = _loss_grad(np.zeros(4), fm.values, 2.0 * fm.labels - 1.0, logistic.C)
        assert _lr_loss(model, fm) < origin


class TestGaussianNb:
    def test_tiny_fit(self):
        fm = matrix([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        model = gnb_fit(fm)
        np.testing.assert_array_equal(model.means[0], [0.0, 0.0])
        np.testing.assert_array_equal(model.means[1], [1.0, 1.0])
        np.testing.assert_allclose(model.priors, [0.5, 0.5])

    def test_variances_positive_after_smoothing(self):
        fm = matrix([[1.0, 5.0], [1.0, 5.0], [1.0, 6.0]], [0, 0, 1])
        model = gnb_fit(fm)
        assert (model.variances > 0).all()

    def test_matches_closed_form_bayes_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(6, 20))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            fm = matrix(x, y)
            model = gnb_fit(fm)
            got = gnb_score(model, fm)
            want = bayes_oracle(model, x)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_probability_sums_to_one(self):
        fm = blobs(30, 30, d=3, seed=10)
        model = gnb_fit(fm)
        p1 = gnb_score(model, fm)
        p0 = 1.0 - p1
        np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-12)

    def test_point_at_class_mean(self):
        fm = blobs(n0=50, n1=50, d=2, separation=3.0, seed=11)
        model = gnb_fit(fm)
        p = gnb_score(model, model.means[1][None, :])
        assert p[0] > 0.5

    def test_far_tail_no_overflow(self):
        fm = blobs(30, 30, d=2, separation=2.0, seed=12)
        model = gnb_fit(fm)
        far = model.means[1] + 100.0 * np.sqrt(model.variances[1])
        p = gnb_score(model, far[None, :])
        assert np.isfinite(p).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            gnb_fit(matrix([[0.0], [1.0]], [1, 1]))


def bayes_oracle(model, x):
    """Product of per-feature Gaussian densities, normalized per row."""
    dens = np.ones((x.shape[0], 2))
    for cls in (0, 1):
        for j in range(x.shape[1]):
            mu = model.means[cls, j]
            var = model.variances[cls, j]
            dens[:, cls] *= np.exp(-((x[:, j] - mu) ** 2) / (2 * var)) / np.sqrt(
                2 * np.pi * var
            )
        dens[:, cls] *= model.priors[cls]
    return dens[:, 1] / dens.sum(axis=1)


class TestFitPredict:
    def test_nb_on_separated_blobs(self):
        train = blobs(n0=300, n1=300, d=3, separation=5.0, seed=13)
        test = blobs(n0=150, n1=150, d=3, separation=5.0, seed=14)
        probs = fit_predict(ClassifierSpec(kind="nb"), train, test)
        acc = ((probs >= 0.5).astype(int) == test.labels).mean()
        assert acc > 0.99

    def test_dff_deterministic_rerun(self):
        train = blobs(n0=60, n1=60, d=4, separation=2.0, seed=15, scale01=True)
        test = blobs(n0=30, n1=30, d=4, separation=2.0, seed=16, scale01=True)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=5)
        p1 = fit_predict(ClassifierSpec(kind="dff"), train, test, cfg)
        p2 = fit_predict(ClassifierSpec(kind="dff"), train, test, cfg)
        np.testing.assert_array_equal(p1, p2)

    def test_dt_reproduces_consistent_training_labels(self):
        train = blobs(n0=50, n1=50, d=3, seed=17)
        probs = fit_predict(ClassifierSpec(kind="dt"), train, train)
        np.testing.assert_array_equal((probs >= 0.5).astype(int), train.labels)

    def test_all_kinds_emit_unit_interval_probabilities(self):
        train = blobs(n0=40, n1=40, d=10, separation=2.0, seed=18, scale01=True)
        test = blobs(n0=20, n1=20, d=10, separation=2.0, seed=19, scale01=True)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        for kind in ("dff", "cnn", "rnn", "dt", "lr", "nb"):
            probs = fit_predict(ClassifierSpec(kind=kind), train, test, cfg)
            assert probs.shape == (test.n_samples,)
            assert (probs >= 0.0).all() and (probs <= 1.0).all()
            if kind in ("dff", "cnn", "rnn"):
                assert (probs > 0.0).all() and (probs < 1.0).all()

    def test_width_mismatch_rejected(self):
        train = blobs(20, 20, d=3, seed=20)
        test = blobs(10, 10, d=4, seed=21)
        with pytest.raises(ValueError):
            fit_predict(ClassifierSpec(kind="nb"), train, test)

    def test_fitted_classifier_checkpoint(self, tmp_path):
        train = blobs(n0=40, n1=40, d=5, separation=2.0, seed=22, scale01=True)
        for kind in ("dff", "dt", "lr", "nb"):
            fitted = fit_classifier(ClassifierSpec(kind=kind), train,
                                    TrainConfig(epochs=2, seed=1))
            path = tmp_path / f"{kind}.npz"
            save_model(fitted, path)
            loaded = load_model(path)
            np.testing.assert_array_equal(
                fitted.predict_proba(train), loaded.predict_proba(train)
            )


def model_bytes(model):
    """Every field of a fitted model, each array as (dtype, shape, bytes)."""
    return {name: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for name, v in vars(model).items()}


class TestClassWeightPolicy:
    """``fit_classifier`` weights each row by its class for the deep kinds only."""

    @pytest.fixture(scope="class")
    def fold(self):
        return blobs(n0=90, n1=15, d=6, separation=1.0, seed=26, scale01=True)

    @pytest.mark.parametrize("kind", DEEP_KINDS)
    def test_deep_kinds_train_on_class_weights(self, fold, kind):
        spec, cfg = ClassifierSpec(kind), TrainConfig(epochs=2, batch_size=32, seed=3)
        got = fit_classifier(spec, fold, cfg).model.flat.tobytes()
        weights = class_weights(fold.labels).per_sample(fold.labels)
        weighted, _ = train(spec.layers(fold.n_features), fold, cfg, weights)
        unweighted, _ = train(spec.layers(fold.n_features), fold, cfg)
        assert got == weighted.flat.tobytes()
        assert got != unweighted.flat.tobytes()

    @pytest.mark.parametrize("kind, fit", [("dt", dt_fit), ("lr", lr_fit), ("nb", gnb_fit)])
    def test_shallow_kinds_fit_unweighted(self, fold, kind, fit):
        assert model_bytes(fit_classifier(ClassifierSpec(kind), fold).model) == model_bytes(fit(fold))


WIDTH_CHECKED = {
    "predict_proba": (lambda m: fit_classifier(ClassifierSpec(kind="nb"), m),
                      lambda model, x: model.predict_proba(x)),
    "lr_score": (lr_fit, lr_score),
    "gnb_score": (gnb_fit, gnb_score),
    # the extractors take the data first
    "pca_transform": (lambda m: pca_fit(m, 2), lambda model, x: pca_transform(x, model)),
    "lda_transform": (lda_fit, lambda model, x: lda_transform(x, model)),
    "ae_encode": (lambda m: ae_fit(m, 2, TrainConfig(epochs=1, batch_size=32, seed=0)),
                  lambda model, x: ae_encode(x, model)),
}


@pytest.mark.parametrize("entry", sorted(WIDTH_CHECKED))
@pytest.mark.parametrize("as_matrix", [True, False])
def test_width_mismatch_message(entry, as_matrix):
    fit, score = WIDTH_CHECKED[entry]
    model = fit(blobs(20, 20, d=4, seed=24, scale01=True))
    narrow = blobs(5, 5, d=3, seed=25)
    data = narrow if as_matrix else narrow.values
    with pytest.raises(ValueError,
                       match="^width mismatch: data has 3 features, model expects 4$"):
        score(model, data)
