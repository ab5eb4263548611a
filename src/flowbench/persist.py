"""Model checkpoints: every model is one .npz file.

Each ndarray field is an entry named by its field path (``model.weights``,
``network.0``); everything else goes in one JSON ``meta`` entry with the
format version and the type name. A network is stored as its layer specs,
its input width and its parameters, in the network's dtype. Loads
reproduce the saved model bit-exactly, in the dtype it was saved in; an
autoencoder's training history is not saved.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import numpy as np

from .classifiers import FittedClassifier
from .classifiers.bayes import GnbModel
from .classifiers.logistic import LrModel
from .classifiers.tree import TreeModel
from .extract import AeModel, LdaModel, PcaModel
from .nn.layers import LayerSpec
from .nn.network import Network, TrainHistory, build_network

FORMAT_VERSION = 2

_TYPES = {cls.__name__: cls for cls in (
    FittedClassifier, TreeModel, LrModel, GnbModel, PcaModel, LdaModel, AeModel, Network,
)}


def _encode(obj, prefix: str, arrays: dict) -> dict:
    """JSON description of obj; its ndarrays go into arrays under their field paths."""
    name = type(obj).__name__
    if _TYPES.get(name) is not type(obj):
        raise TypeError(f"cannot persist objects of type {name}")
    doc = {"type": name}
    if isinstance(obj, Network):
        for i, p in enumerate(obj.params()):
            arrays[f"{prefix}{i}"] = p
        doc.update(specs=[s.to_dict() for s in obj.specs], input_dim=obj.input_dim)
        return doc
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, TrainHistory):
            continue  # loads get an empty history
        if isinstance(value, np.ndarray):
            arrays[prefix + f.name] = value
        elif isinstance(value, Network) or is_dataclass(value):
            doc[f.name] = _encode(value, f"{prefix}{f.name}.", arrays)
        else:
            doc[f.name] = value
    return doc


def _decode(doc: dict, prefix: str, arrays: dict):
    cls = _TYPES.get(doc.get("type"))
    if cls is None:
        raise ValueError(f"unknown checkpoint type {doc.get('type')!r}")
    if cls is Network:
        saved = []
        while f"{prefix}{len(saved)}" in arrays:
            saved.append(arrays[f"{prefix}{len(saved)}"])
        dtypes = {a.dtype for a in saved}
        if len(dtypes) > 1:
            raise ValueError(f"checkpoint tensors mix dtypes {sorted(map(str, dtypes))}")
        if not dtypes <= {np.dtype(np.float32), np.dtype(np.float64)}:
            raise ValueError(f"checkpoint tensors must be float32 or float64, got {dtypes.pop()}")
        # the network takes its saved tensors' dtype, so a load never rounds them
        dtype = dtypes.pop() if dtypes else np.float32
        net = build_network([LayerSpec(**d) for d in doc["specs"]], doc["input_dim"],
                            dtype=dtype)
        params = net.params()
        if len(params) != len(saved):
            raise ValueError("checkpoint parameter count does not match the spec")
        for p, a in zip(params, saved):
            if p.shape != a.shape:
                raise ValueError("checkpoint tensor shape does not match the spec")
            p[...] = a
        return net
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name
        if isinstance(doc.get(f.name), dict):
            kwargs[f.name] = _decode(doc[f.name], key + ".", arrays)
        elif f.name in doc:
            kwargs[f.name] = doc[f.name]
        elif key in arrays:
            kwargs[f.name] = arrays[key]
    return cls(**kwargs)


def save_model(model, path) -> None:
    """Write one fitted model as a .npz checkpoint."""
    arrays: dict[str, np.ndarray] = {}
    meta = {"version": FORMAT_VERSION, **_encode(model, "", arrays)}
    # write through a handle so numpy keeps the caller's exact filename
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path):
    """Read back anything save_model wrote; any other file raises ValueError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):
        raise ValueError(f"{path}: not a flowbench checkpoint (not an .npz archive)") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a flowbench checkpoint (a bare .npy array)")
    with data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: not a flowbench checkpoint (no meta entry)")
        try:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable checkpoint ({exc})") from None
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        return _decode(meta, "", arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
