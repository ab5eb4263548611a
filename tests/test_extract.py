import numpy as np
import pytest

from flowbench.extract import (
    ae_encode, ae_fit, ae_reconstruct, autoencoder_specs, lda_fit, lda_transform,
    pca_fit, pca_inverse, pca_transform, pca_truncate, variance_report,
)
from flowbench.ingest import FeatureMatrix
from flowbench.nn import TrainConfig
from flowbench.classifiers import dt_fit, dt_score
from flowbench.evaluate import roc_auc
from flowbench.persist import load_model, save_model

from helpers import blobs


def covariance_eig_oracle(x):
    """Brute-force PCA reference: eigendecomposition of the sample covariance."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order].T  # rows are components


def match_up_to_sign(components, oracle_rows, atol=1e-8):
    for got, want in zip(components, oracle_rows):
        same = np.allclose(got, want, atol=atol)
        flipped = np.allclose(got, -want, atol=atol)
        assert same or flipped, f"component mismatch:\n{got}\n{want}"


class TestPca:
    def test_diagonal_line_symmetry(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=200)
        x = np.stack([t, t], axis=1) + rng.normal(scale=1e-9, size=(200, 2))
        model = pca_fit(x, 2)
        first = model.components[0]
        np.testing.assert_allclose(np.abs(first), np.full(2, 1 / np.sqrt(2)), atol=1e-6)
        assert model.explained_variance[1] < 1e-12

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, min(n, 7)))
            x = rng.normal(size=(n, d))
            k = min(n - 1, d)
            model = pca_fit(x, k)
            evals, evecs = covariance_eig_oracle(x)
            np.testing.assert_allclose(model.explained_variance, evals[:k], atol=1e-8)
            match_up_to_sign(model.components, evecs[:k])

    def test_zero_variance_data(self):
        x = np.ones((5, 3))
        model = pca_fit(x, 2)
        np.testing.assert_allclose(model.explained_variance, 0.0, atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 5))
        model = pca_fit(x, 5)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        model = pca_fit(rng.normal(size=(40, 6)), 6)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(50, 8)) * rng.uniform(0.1, 3.0, 8), 8)
        assert (np.diff(model.explained_variance) <= 1e-12).all()

    def test_k_out_of_range(self):
        x = np.random.default_rng(5).normal(size=(10, 4))
        with pytest.raises(ValueError):
            pca_fit(x, 5)
        with pytest.raises(ValueError):
            pca_fit(x, 0)
        with pytest.raises(ValueError):
            pca_fit(x[:1], 1)

    def test_truncate_is_bit_identical_prefix(self):
        x = np.random.default_rng(10).normal(size=(12, 5))
        full = pca_fit(x, 5)
        for k in range(1, 6):
            want, got = pca_fit(x, k), pca_truncate(full, k)
            for field in ("mean", "components", "singular_values", "explained_variance"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert got.total_variance == want.total_variance
        with pytest.raises(ValueError, match=r"^k=6 out of range 1\.\.5$"):
            pca_truncate(full, 6)
        with pytest.raises(ValueError, match=r"^k=0 out of range 1\.\.5$"):
            pca_truncate(full, 0)


class TestPcaTransform:
    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 4))
        model = pca_fit(x, 3)
        z = pca_transform(x.mean(axis=0, keepdims=True), model)
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_training_outputs_uncorrelated(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
        model = pca_fit(x, 5)
        z = pca_transform(x, model)
        cov = np.cov(z, rowvar=False)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-6)

    def test_full_rank_reconstruction_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 6))
        model = pca_fit(x, 6)
        z = pca_transform(x, model)
        np.testing.assert_allclose(pca_inverse(z, model), x, atol=1e-8)

    def test_width_mismatch(self):
        model = pca_fit(np.random.default_rng(9).normal(size=(10, 3)), 2)
        with pytest.raises(ValueError):
            pca_transform(np.zeros((2, 4)), model)

    def test_feature_matrix_in_and_out(self):
        fm = blobs(30, 30, d=5, seed=1)
        model = pca_fit(fm, 2)
        out = pca_transform(fm, model)
        assert isinstance(out, FeatureMatrix)
        assert out.n_features == 2
        np.testing.assert_array_equal(out.labels, fm.labels)


class TestLda:
    def test_aligned_with_informative_axis(self):
        fm = blobs(n0=300, n1=300, d=6, separation=4.0, informative=[0], seed=2)
        model = lda_fit(fm)
        assert abs(model.projection[0, 0]) > 0.99
        assert not model.zero_separation

    def test_identical_means_flagged(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        x[20:] = x[:20]  # class 1 mirrors class 0 exactly
        fm = FeatureMatrix(values=x, feature_names=["a", "b", "c"],
                           labels=np.array([0] * 20 + [1] * 20))
        model = lda_fit(fm)
        np.testing.assert_allclose(np.linalg.norm(model.projection), 1.0)
        assert model.zero_separation

    def test_single_output_dimension(self):
        fm = blobs(20, 20, d=7, seed=4)
        model = lda_fit(fm)
        z = lda_transform(fm, model)
        assert z.values.shape == (40, 1)

    def test_projection_of_identity_direction(self):
        fm = blobs(50, 50, d=3, seed=5)
        model = lda_fit(fm)
        model.projection[...] = np.array([[1.0, 0.0, 0.0]])
        z = lda_transform(fm, model)
        np.testing.assert_allclose(z.values[:, 0], fm.values[:, 0])

    def test_midpoint_threshold_classifies_blobs(self):
        fm = blobs(n0=200, n1=200, d=4, separation=5.0, seed=6)
        model = lda_fit(fm)
        z = lda_transform(fm, model).values[:, 0]
        mid = (z[fm.labels == 0].mean() + z[fm.labels == 1].mean()) / 2
        acc = ((z > mid).astype(int) == fm.labels).mean()
        assert acc >= 0.95

    def test_orientation_towards_attacks(self):
        fm = blobs(n0=100, n1=100, d=3, separation=3.0, seed=7)
        model = lda_fit(fm)
        z = lda_transform(fm, model).values[:, 0]
        assert z[fm.labels == 1].mean() > z[fm.labels == 0].mean()

    def test_feature_scaling_preserves_ordering(self):
        fm = blobs(n0=150, n1=150, d=4, separation=2.0, seed=8)
        scaled_vals = fm.values * np.array([3.0, 0.5, 10.0, 1.0])
        fm_scaled = FeatureMatrix(values=scaled_vals, feature_names=fm.feature_names,
                                  labels=fm.labels)
        z_a = lda_transform(fm, lda_fit(fm)).values[:, 0]
        z_b = lda_transform(fm_scaled, lda_fit(fm_scaled)).values[:, 0]
        # rank correlation must be exactly 1: same ordering of samples
        assert (np.argsort(z_a) == np.argsort(z_b)).all()

    def test_single_class_rejected(self):
        fm = blobs(20, 20, d=2, seed=9)
        single = fm.take(np.flatnonzero(fm.labels == 1))
        with pytest.raises(ValueError):
            lda_fit(single)


class TestAutoencoder:
    def cfg(self, seed=0, epochs=60):
        return TrainConfig(epochs=epochs, batch_size=32, learning_rate=0.01, seed=seed)

    def test_loss_decreases(self):
        fm = blobs(n0=80, n1=80, d=6, separation=3.0, seed=1, scale01=True)
        model = ae_fit(fm, 3, self.cfg())
        assert model.history.epoch_losses[-1] < model.history.epoch_losses[0]
        assert model.final_loss == model.history.epoch_losses[-1]

    def test_wide_bottleneck_beats_k1(self):
        fm = blobs(n0=100, n1=100, d=6, separation=3.0, seed=2, scale01=True)
        wide = ae_fit(fm, 6, self.cfg(seed=3))
        narrow = ae_fit(fm, 1, self.cfg(seed=3))
        assert wide.final_loss < narrow.final_loss

    def test_encode_shape_and_determinism(self):
        fm = blobs(n0=40, n1=40, d=7, seed=4, scale01=True)
        model = ae_fit(fm, 5, self.cfg(epochs=5))
        codes_a = ae_encode(fm, model)
        codes_b = ae_encode(fm, model)
        assert codes_a.values.shape == (80, 5)
        assert np.isfinite(codes_a.values).all()
        np.testing.assert_array_equal(codes_a.values, codes_b.values)

    def test_unscaled_input_rejected(self):
        fm = blobs(n0=20, n1=20, d=4, seed=5)  # raw gaussians, not in [0,1]
        with pytest.raises(ValueError, match="scaled"):
            ae_fit(fm, 2, self.cfg(epochs=1))

    def test_codes_support_downstream_tree(self):
        fm = blobs(n0=150, n1=150, d=6, separation=4.0, seed=6, scale01=True)
        raw_tree = dt_fit(fm)
        _, raw_auc = roc_auc(dt_score(raw_tree, fm), fm.labels)
        model = ae_fit(fm, 2, self.cfg(seed=7, epochs=80))
        codes = ae_encode(fm, model)
        tree = dt_fit(codes)
        _, code_auc = roc_auc(dt_score(tree, codes), codes.labels)
        assert raw_auc > 0.9
        assert code_auc > 0.9

    def test_fixed_hidden_widths(self):
        specs, n_enc = autoencoder_specs(4, 2)
        widths = [s.units for s in specs]
        assert widths == [30, 20, 10, 2, 10, 20, 30, 4]
        assert n_enc == 4
        assert specs[-1].activation == "sigmoid"
        assert all(s.activation == "relu" for s in specs[:-1])

    def test_reconstruction_shape(self):
        fm = blobs(n0=30, n1=30, d=5, seed=8, scale01=True)
        model = ae_fit(fm, 2, self.cfg(epochs=3))
        recon = ae_reconstruct(fm, model)
        assert recon.shape == fm.values.shape

    def test_checkpoint_round_trip(self, tmp_path):
        fm = blobs(n0=30, n1=30, d=5, seed=9, scale01=True)
        model = ae_fit(fm, 2, self.cfg(epochs=3))
        save_model(model, tmp_path / "ae.npz")
        loaded = load_model(tmp_path / "ae.npz")
        np.testing.assert_array_equal(
            ae_encode(fm, model).values, ae_encode(fm, loaded).values
        )


class TestVarianceReport:
    def test_constant_column_zero(self):
        x = np.ones((10, 1))
        report = variance_report(x, "lda")
        np.testing.assert_allclose(report.variances, 0.0)

    def test_full_rank_trace_preserved(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 5)) * rng.uniform(0.5, 2.0, 5)
        model = pca_fit(x, 5)
        z = pca_transform(x, model)
        report = variance_report(z, "pca", total_variance=model.total_variance)
        total_input = x.var(axis=0, ddof=1).sum()
        np.testing.assert_allclose(report.variances.sum(), total_input, rtol=1e-6)
        np.testing.assert_allclose(report.cumulative_fraction[-1], 1.0, atol=1e-9)

    def test_informative_dimensions_dominate(self):
        rng = np.random.default_rng(11)
        n = 600
        informative = rng.normal(scale=4.0, size=(n, 3))
        noise = rng.normal(scale=0.3, size=(n, 27))
        x = np.hstack([informative, noise])
        model = pca_fit(x, 30)
        z = pca_transform(x, model)
        report = variance_report(z, "pca", total_variance=model.total_variance)
        assert report.cumulative_fraction[9] > 0.9

    def test_cumulative_non_decreasing(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 6))
        model = pca_fit(x, 4)
        report = variance_report(pca_transform(x, model), "pca",
                                 total_variance=model.total_variance)
        assert (np.diff(report.cumulative_fraction) >= -1e-15).all()

    def test_csv_dump(self, tmp_path):
        report = variance_report(np.random.default_rng(13).normal(size=(20, 3)), "lda")
        path = tmp_path / "var.csv"
        report.dump_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension_index,variance"
        assert len(lines) == 4
