"""Dimensionality reducers: PCA via SVD, two-class LDA, dense autoencoder.

Each reducer exposes fit/transform pairs plus the per-dimension variance
data behind the benchmark's variance analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ingest import FeatureMatrix, model_input, write_csv
from .nn.layers import LayerSpec
from .nn.network import (
    Network, TrainConfig, TrainHistory, build_network, fit_network, seed_streams,
)


def _values(m) -> np.ndarray:
    return m.values if isinstance(m, FeatureMatrix) else np.asarray(m, dtype=np.float64)


def _as_output(m, z, prefix):
    names = [f"{prefix}{i}" for i in range(z.shape[1])]
    if isinstance(m, FeatureMatrix):
        return m.with_values(z, feature_names=names)
    return z


@dataclass
class PcaModel:
    """Mean, top-k orthonormal components and their variances."""

    mean: np.ndarray
    components: np.ndarray          # (k, d), rows orthonormal
    singular_values: np.ndarray     # (k,), non-increasing
    explained_variance: np.ndarray  # (k,), singular_values^2 / (n - 1)
    total_variance: float           # trace of the training covariance

    @property
    def k(self) -> int:
        return self.components.shape[0]


def pca_fit(train, k: int) -> PcaModel:
    """Mean-centred SVD; keeps the top-k right singular vectors.

    Component signs are fixed so each row's largest-magnitude entry is
    positive, making fits reproducible across SVD implementations.
    """
    x = _values(train)
    n, d = x.shape
    if n <= 1:
        raise ValueError("PCA needs at least two samples")
    width = min(n - 1, d)
    if not 1 <= k <= width:
        raise ValueError(f"k={k} out of range 1..{width}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:width]
    anchor = np.argmax(np.abs(components), axis=1)
    flip = np.sign(components[np.arange(width), anchor])
    flip[flip == 0] = 1.0
    variances = s ** 2 / (n - 1)
    full = PcaModel(
        mean=mean,
        components=components * flip[:, None],
        singular_values=s[:width],
        explained_variance=variances[:width],
        total_variance=float(variances.sum()),
    )
    return pca_truncate(full, k)


def pca_truncate(model: PcaModel, k: int) -> PcaModel:
    """The top-k model of a wider fit.

    Each component's sign and variance depend on that component alone, so
    the result is bit-identical to ``pca_fit`` with k on the same data.
    """
    if not 1 <= k <= model.k:
        raise ValueError(f"k={k} out of range 1..{model.k}")
    return PcaModel(
        mean=model.mean,
        components=model.components[:k],
        singular_values=model.singular_values[:k],
        explained_variance=model.explained_variance[:k],
        total_variance=model.total_variance,
    )


def pca_transform(m, model: PcaModel):
    x = model_input(m, model.mean.shape[0])
    z = (x - model.mean) @ model.components.T
    return _as_output(m, z, "pc")


def pca_inverse(z, model: PcaModel) -> np.ndarray:
    """Back-projection into the original feature space."""
    z = _values(z)
    return z @ model.components + model.mean


@dataclass
class LdaModel:
    """Single discriminant direction for binary labels."""

    projection: np.ndarray       # (1, d), unit norm, oriented towards class 1
    class_means: np.ndarray      # (2, d)
    output_variance: float       # variance of projected training data
    zero_separation: bool = False


def lda_fit(train: FeatureMatrix) -> LdaModel:
    """Closed-form two-class discriminant: w ~ S_w^-1 (mu1 - mu0).

    A ridge of 1e-6 * trace(S_w)/d keeps the within-class scatter
    invertible on collinear flow features. Identical class means yield a
    flagged, arbitrary unit direction.
    """
    x = train.values
    y = train.labels
    d = x.shape[1]
    mask1 = y == 1
    if not mask1.any() or mask1.all():
        raise ValueError("LDA needs both classes present")
    mu0 = x[~mask1].mean(axis=0)
    mu1 = x[mask1].mean(axis=0)
    sw = np.zeros((d, d))
    for mask, mu in ((~mask1, mu0), (mask1, mu1)):
        centered = x[mask] - mu
        sw += centered.T @ centered
    ridge = 1e-6 * np.trace(sw) / d
    sw[np.diag_indices_from(sw)] += max(ridge, 1e-12)
    diff = mu1 - mu0
    w = np.linalg.solve(sw, diff)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        w = np.zeros(d)
        w[0] = 1.0
        zero_sep = True
    else:
        w = w / norm
        zero_sep = False
        if w @ diff < 0:
            w = -w
    projected = x @ w
    return LdaModel(
        projection=w[None, :],
        class_means=np.stack([mu0, mu1]),
        output_variance=float(projected.var(ddof=1)) if x.shape[0] > 1 else 0.0,
        zero_separation=zero_sep,
    )


def lda_transform(m, model: LdaModel):
    x = model_input(m, model.projection.shape[1])
    z = x @ model.projection.T
    return _as_output(m, z, "ld")


ENCODER_WIDTHS = (30, 20, 10)


def autoencoder_specs(input_dim: int, k: int) -> tuple[list[LayerSpec], int]:
    """Symmetric dense stack with a k-wide bottleneck; returns (specs, encoder_len).

    Hidden widths are fixed at 30/20/10 regardless of the input width; the
    decoder mirrors them and ends in a sigmoid so reconstruction BCE over
    [0,1]-scaled features is well-posed.
    """
    enc = [LayerSpec("dense", units=u, activation="relu") for u in ENCODER_WIDTHS]
    enc.append(LayerSpec("dense", units=k, activation="relu"))
    dec = [LayerSpec("dense", units=u, activation="relu") for u in reversed(ENCODER_WIDTHS)]
    dec.append(LayerSpec("dense", units=input_dim, activation="sigmoid"))
    return enc + dec, len(enc)


@dataclass
class AeModel:
    network: Network
    n_encoder_layers: int
    bottleneck: int
    final_loss: float
    history: TrainHistory = field(default_factory=TrainHistory)


def ae_fit(train, k: int, cfg: TrainConfig) -> AeModel:
    """Train the autoencoder to reconstruct its [0,1]-scaled input."""
    x = _values(train)
    if k < 1:
        raise ValueError("bottleneck width must be at least 1")
    if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
        raise ValueError("autoencoder input must be min-max scaled into [0, 1]")
    specs, n_enc = autoencoder_specs(x.shape[1], k)
    net = build_network(specs, x.shape[1], rng=seed_streams(cfg.seed)[0])
    history = fit_network(net, x, x, cfg)
    return AeModel(
        network=net,
        n_encoder_layers=n_enc,
        bottleneck=k,
        final_loss=history.epoch_losses[-1],
        history=history,
    )


def ae_encode(m, model: AeModel):
    z = model_input(m, model.network.input_dim)
    for layer in model.network.layers[: model.n_encoder_layers]:
        z = layer.forward(z, train=False)
    return _as_output(m, z, "ae")


def ae_reconstruct(m, model: AeModel) -> np.ndarray:
    x = _values(m)
    return model.network.forward(x, train=False)


@dataclass
class VarianceReport:
    """Per-dimension variance of an extracted matrix."""

    method: str
    variances: np.ndarray
    cumulative_fraction: np.ndarray | None = None  # PCA only

    def dump_csv(self, path) -> None:
        write_csv(path, ("dimension_index", "variance"), enumerate(self.variances.tolist()))


def variance_report(extracted, method: str, total_variance: float | None = None) -> VarianceReport:
    """Sample variance of each extracted dimension.

    For PCA a cumulative fraction of the total input variance is included;
    pass the fitted model's total_variance for k < d fits, otherwise the
    extracted columns' own total is used.
    """
    x = _values(extracted)
    if x.shape[0] == 0:
        raise ValueError("cannot report variance of an empty matrix")
    variances = x.var(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    cumulative = None
    if method == "pca":
        total = total_variance if total_variance is not None else float(variances.sum())
        if total > 0:
            cumulative = np.cumsum(variances) / total
        else:
            cumulative = np.zeros_like(variances)
    return VarianceReport(method=method, variances=variances, cumulative_fraction=cumulative)
