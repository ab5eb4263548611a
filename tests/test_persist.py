import json
import re

import numpy as np
import pytest

from flowbench.classifiers import dt_fit, dt_score, gnb_fit, lr_fit
from flowbench.extract import lda_fit, pca_fit
from flowbench.ingest import FeatureMatrix
from flowbench.nn import LayerSpec, build_network
from flowbench.persist import load_model, save_model

from helpers import blobs


def test_pca_round_trip(tmp_path):
    fm = blobs(40, 40, d=5, seed=0)
    model = pca_fit(fm, 3)
    save_model(model, tmp_path / "pca.npz")
    loaded = load_model(tmp_path / "pca.npz")
    assert loaded.mean.tobytes() == model.mean.tobytes()
    assert loaded.components.tobytes() == model.components.tobytes()
    assert loaded.singular_values.tobytes() == model.singular_values.tobytes()
    assert loaded.total_variance == model.total_variance


def test_lda_round_trip(tmp_path):
    fm = blobs(40, 40, d=4, seed=1)
    model = lda_fit(fm)
    save_model(model, tmp_path / "lda.npz")
    loaded = load_model(tmp_path / "lda.npz")
    assert loaded.projection.tobytes() == model.projection.tobytes()
    assert loaded.output_variance == model.output_variance
    assert loaded.zero_separation == model.zero_separation


TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


def test_tree_round_trip_exact(tmp_path):
    fm = blobs(60, 60, d=3, separation=1.5, seed=2)
    tree = dt_fit(fm)
    save_model(tree, tmp_path / "tree.npz")
    loaded = load_model(tmp_path / "tree.npz")
    for name in TREE_ARRAYS:
        a, b = getattr(tree, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_deep_tree_round_trip(tmp_path):
    # alternating labels on a line: every split peels off one row, depth n - 1
    n = 3000
    fm = FeatureMatrix(values=np.arange(n, dtype=np.float64)[:, None], feature_names=["f0"],
                       labels=np.arange(n) % 2)
    tree = dt_fit(fm)
    assert tree.depth() == n - 1
    save_model(tree, tmp_path / "deep.npz")
    loaded = load_model(tmp_path / "deep.npz")
    for name in TREE_ARRAYS:
        assert getattr(loaded, name).tobytes() == getattr(tree, name).tobytes()
    assert loaded.depth() == n - 1
    probs = dt_score(tree, fm)
    assert probs.tobytes() == dt_score(loaded, fm).tobytes()
    assert (probs == fm.labels).all()


def test_lr_and_gnb_round_trip(tmp_path):
    fm = blobs(50, 50, d=4, separation=2.0, seed=3)
    lr = lr_fit(fm)
    save_model(lr, tmp_path / "lr.npz")
    loaded_lr = load_model(tmp_path / "lr.npz")
    assert loaded_lr.weights.tobytes() == lr.weights.tobytes()
    assert loaded_lr.bias == lr.bias
    assert loaded_lr.converged == lr.converged

    gnb = gnb_fit(fm)
    save_model(gnb, tmp_path / "gnb.npz")
    loaded_gnb = load_model(tmp_path / "gnb.npz")
    assert loaded_gnb.means.tobytes() == gnb.means.tobytes()
    assert loaded_gnb.variances.tobytes() == gnb.variances.tobytes()
    assert loaded_gnb.smoothing == gnb.smoothing


def test_unknown_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        save_model({"not": "a model"}, tmp_path / "x.npz")


def _v1_json(path):
    path.write_text(json.dumps({"version": 1, "type": "tree", "root": {"counts": [0, 3]}}))


def _plain_text(path):
    path.write_text("feature,threshold\n0,1.5\n")


def _bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(4.0))


def _npz_without_meta(path):
    with open(path, "wb") as fh:
        np.savez(fh, weights=np.arange(4.0))


def _meta(path, arrays=None, **meta):
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **(arrays or {}))


def _dense_net(path, arrays):
    """A one-layer network checkpoint, 3 inputs to 1 output, holding ``arrays``."""
    spec = LayerSpec("dense", units=1, activation="sigmoid").to_dict()
    _meta(path, arrays, version=2, type="Network", specs=[spec], input_dim=3)


@pytest.mark.parametrize("write", [
    _v1_json,
    _plain_text,
    _bare_npy,
    _npz_without_meta,
    lambda path: _meta(path, version=2, type="Pipeline"),
    lambda path: _meta(path, version=1, type="TreeModel"),
    lambda path: _meta(path, version=3, type="LrModel"),
    lambda path: _dense_net(path, {"0": np.zeros((3, 1))}),
    lambda path: _dense_net(path, {"0": np.zeros((2, 1)), "1": np.zeros(1)}),
    lambda path: _dense_net(path, {"0": np.zeros((3, 1), np.float32), "1": np.zeros(1)}),
    lambda path: _dense_net(path, {"0": np.zeros((3, 1), np.int64), "1": np.zeros(1, np.int64)}),
], ids=["v1-json", "plain-text", "bare-npy", "npz-without-meta", "unknown-type",
        "version-1", "version-3", "tensor-count", "tensor-shape", "mixed-dtypes",
        "integer-tensors"])
def test_foreign_checkpoint_rejected(tmp_path, write):
    path = tmp_path / "model.npz"
    write(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_loads_in_its_saved_dtype(tmp_path, dtype):
    """A float64 checkpoint is not rounded to the float32 default, and float32 stays float32."""
    specs = [LayerSpec("dense", units=4, activation="relu"),
             LayerSpec("dense", units=1, activation="sigmoid")]
    net = build_network(specs, 3, rng=np.random.default_rng(0), dtype=dtype)
    net.flat[...] = np.random.default_rng(1).standard_normal(net.flat.size)  # not float32-exact
    path = tmp_path / "net.npz"
    save_model(net, path)
    loaded = load_model(path)
    assert loaded.dtype == dtype
    assert loaded.flat.tobytes() == net.flat.tobytes()
    x = np.random.default_rng(2).random((5, 3))
    assert loaded.predict_proba(x).tobytes() == net.predict_proba(x).tobytes()
