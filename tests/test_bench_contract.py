"""The names the benchmark harness patches and calls still exist in flowbench.

``bench/spans.py`` wraps flowbench functions at runtime and restores them;
``bench/kernels.py`` builds every network ``sweep-deep`` trains. Both are
imported here from ``bench/``, which is on ``sys.path`` for each test only,
so a rename under ``src/`` that would break the traced benchmark fails
tier-1 instead.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import flowbench.runner  # noqa: F401  (loads every module that spans patches)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def namespaces():
    """Every flowbench module and class namespace, by name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "flowbench":
            continue
        out[name] = vars(module)
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == name:
                out[f"{name}.{cls_name}"] = vars(cls)
    return out


def snapshot():
    return {(ns, attr): value for ns, space in namespaces().items() for attr, value in space.items()}


def test_spans_install_and_restore(bench_module):
    spans = bench_module("spans")
    before = snapshot()
    restore = spans.install(spans.Tracer("t"))
    during = snapshot()
    restore()
    after = snapshot()
    assert {key for key in before if during[key] is not before[key]}
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_kernel_networks_build(bench_module):
    kernels = bench_module("kernels")
    nets = list(kernels._networks())
    assert nets and all(net.flat.size > 0 for net in nets)
