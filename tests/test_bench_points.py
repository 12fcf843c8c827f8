"""Every function the benchmark tracer patches still exists where its
callers look it up.

`bench/tracing.py` wraps each `(module, attribute)` in its `POINTS` table
by replacing the entry in the owner's `__dict__`; a renamed or moved
function would make a traced benchmark run fail, so this runs with the
unit tests.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def points(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing").POINTS


def test_every_tracer_patch_point_resolves(points):
    assert points
    for module, attr, _, _ in points:
        owner = importlib.import_module(module)
        cls, _, name = attr.rpartition(".")
        if cls:
            owner = getattr(owner, cls)
        assert name in owner.__dict__, f"{module}.{attr}"
