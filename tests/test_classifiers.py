import numpy as np
import pytest

from flowbench.classifiers import (
    ClassifierSpec, cnn_layers, conv_output_lengths, dff_layers, dt_fit, dt_score,
    fit_classifier, fit_predict, gnb_fit, gnb_score, lr_fit, lr_score, rnn_layers,
)
from flowbench.classifiers import logistic
from flowbench.classifiers.logistic import _loss_grad
from flowbench.classifiers.tree import TreeModel, best_split, gini
from flowbench.extract import (
    ae_encode, ae_fit, lda_fit, lda_transform, pca_fit, pca_transform,
)
from flowbench.ingest import FeatureMatrix
from flowbench.nn import TrainConfig, build_network, parameter_count
from flowbench.persist import load_model, save_model
from flowbench.preprocess import ClassWeights

from helpers import blobs


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


def want_parent(y, w):
    return gini(w[y == 0].sum(), w[y == 1].sum())


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
            got = best_split(x, y, None)
            want = exhaustive_best_split(x, y)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == want[0]
                assert got[1] == want[1]
                assert abs(got[2] - want[2]) < 1e-12

    def test_oracle_agreement_with_weights(self):
        # float sample weights accumulate differently under cumsum vs direct
        # sums, so ties can resolve either way; the achieved impurity must
        # still match the exhaustive minimum
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(3, 13))
            d = int(rng.integers(1, 4))
            x = rng.integers(0, 3, size=(n, d)).astype(float)
            y = rng.integers(0, 2, n)
            w = rng.uniform(0.5, 2.0, n)
            got = best_split(x, y, w)
            want = exhaustive_best_split(x, y, w)
            if want is None:
                assert got is None or abs(got[2] - want_parent(y, w)) < 1e-12
            else:
                assert got is not None
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
        _, grad = _loss_grad(theta, fm.values, y_pm, np.ones(fm.n_samples), model.C)
        assert np.abs(grad).max() <= 1e-4

    def test_final_loss_beats_origin(self):
        for seed in range(5):
            fm = blobs(n0=50, n1=50, d=4, separation=1.0, seed=seed)
            model = lr_fit(fm)
            theta = np.append(model.weights, model.bias)
            y_pm = 2.0 * fm.labels - 1.0
            sw = np.ones(fm.n_samples)
            loss_fit, _ = _loss_grad(theta, fm.values, y_pm, sw, model.C)
            loss_origin, _ = _loss_grad(np.zeros_like(theta), fm.values, y_pm, sw, model.C)
            assert loss_fit <= loss_origin

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(logistic, "MAX_ITER", 2)
        fm = blobs(n0=40, n1=40, d=3, seed=7)
        model = lr_fit(fm)
        assert model.iterations_used <= 2

    def test_class_weights_shift_boundary(self):
        fm = blobs(n0=180, n1=20, d=1, separation=2.0, seed=8)
        plain = lr_fit(fm)
        weighted = lr_fit(fm, sample_weight=ClassWeights(w0=0.555, w1=5.0).per_sample(fm.labels))
        # upweighting the minority class detects more of it
        assert (lr_score(weighted, fm) >= 0.5).sum() >= (lr_score(plain, fm) >= 0.5).sum()


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
