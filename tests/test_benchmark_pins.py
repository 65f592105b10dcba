"""The end-to-end benchmark's pins on the library resolve.

``benchmarks/e2e`` names library callables (``spans.WRAPS``) and
``EmmaConfig`` fields (``harness.PROBES``) by string.  The tier-1 suite
never runs that benchmark, so a renamed or removed pin would otherwise
surface only as a failed benchmark run.  These tests read the benchmark
modules and change nothing in them.
"""

import dataclasses
import importlib
import os
import sys

import pytest

from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig

E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "e2e",
)


@pytest.fixture(scope="module")
def e2e():
    """The benchmark's ``harness`` and ``spans`` modules."""
    sys.path.insert(0, E2E)
    try:
        harness = importlib.import_module("harness")
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(E2E)
    return harness, spans


def test_every_wrapped_callable_resolves(e2e):
    _harness, spans = e2e
    for _metric, module_name, attr in spans.WRAPS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_probe_knob_is_a_config_field(e2e):
    harness, _spans = e2e
    fields = {f.name for f in dataclasses.fields(EmmaConfig)}
    for metric, knobs in harness.PROBES:
        assert set(knobs) <= fields, f"{metric}: {set(knobs) - fields}"


def test_every_probe_config_is_accepted_by_an_engine(e2e):
    # A pool starts on a stage's first task, so applying a processes
    # probe here spawns nothing.
    harness, _spans = e2e
    for _metric, knobs in harness.PROBES:
        SparkLikeEngine().apply_runtime_config(EmmaConfig(**knobs))
