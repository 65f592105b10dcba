"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.costmodel import CostModel
from repro.engines.dfs import SimulatedDFS
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.local import LocalEngine
from repro.engines.sparklike import SparkLikeEngine

# Property tests must be deterministic across runs and machines: no
# deadline flakiness from slow simulated engines, no example-database
# randomness between CI runs.
hypothesis_settings.register_profile(
    "repro", deadline=None, derandomize=True
)
hypothesis_settings.load_profile("repro")


@pytest.fixture
def dfs() -> SimulatedDFS:
    return SimulatedDFS()


@pytest.fixture
def spark(dfs: SimulatedDFS) -> SparkLikeEngine:
    return SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4), dfs=dfs
    )


@pytest.fixture
def flink(dfs: SimulatedDFS) -> FlinkLikeEngine:
    return FlinkLikeEngine(
        cluster=ClusterConfig(num_workers=4), dfs=dfs
    )


@pytest.fixture
def local(dfs: SimulatedDFS) -> LocalEngine:
    engine = LocalEngine()
    engine.dfs = dfs
    return engine


@pytest.fixture
def all_engines(local, spark, flink):
    return [local, spark, flink]


def outcome(thunk):
    """``repr`` of what ``thunk()`` returns, or the exception that
    stopped it — for parity checks of a compiled path against its
    oracle, bit for bit (``-0.0`` is not ``0.0``, ``nan`` is ``nan``)."""
    try:
        return "ok", repr(thunk())
    except Exception as exc:  # noqa: BLE001 - parity is the point
        return "raise", type(exc).__name__, str(exc)


class CountingKey:
    """A key that records its arguments.  ``5`` keys to ``None`` and ``7``
    raises; floats (``nan`` among them) key to themselves."""

    def __init__(self):
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        if x == 7:
            raise ValueError("no key for 7")
        if x == 5:
            return None
        return x if isinstance(x, float) else x % 3


def approx_value_equal(a, b, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    """Structural equality with float tolerance (fold order varies)."""
    from repro.workloads.linalg import Vec

    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)
    if isinstance(b, float) and isinstance(a, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)
    if isinstance(a, Vec) and isinstance(b, Vec):
        return approx_value_equal(
            a.components, b.components, rel, abs_
        )
    if is_dataclass(a) and is_dataclass(b) and type(a) is type(b):
        return all(
            approx_value_equal(
                getattr(a, f.name), getattr(b, f.name), rel, abs_
            )
            for f in fields(a)
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            approx_value_equal(x, y, rel, abs_) for x, y in zip(a, b)
        )
    return a == b


def sort_key(record) -> str:
    return repr(record)


def assert_bags_match(result, expected, rel: float = 1e-9) -> None:
    """Order-insensitive comparison with float tolerance.

    ``result``/``expected`` may be DataBags or lists.
    """
    left = result.fetch() if isinstance(result, DataBag) else list(result)
    right = (
        expected.fetch() if isinstance(expected, DataBag) else list(expected)
    )
    assert len(left) == len(right), (
        f"bag sizes differ: {len(left)} vs {len(right)}"
    )
    left_sorted = sorted(left, key=sort_key)
    right_sorted = sorted(right, key=sort_key)
    for a, b in zip(left_sorted, right_sorted):
        assert approx_value_equal(a, b, rel=rel, abs_=1e-6), (
            f"records differ: {a!r} vs {b!r}"
        )
