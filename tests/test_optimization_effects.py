"""Metric-level effects of each optimization, at unit-test speed.

The benchmark suite reproduces the paper's figures at full scale; these
tests pin the *mechanisms* on a miniature workflow by asserting engine
metrics — broadcast bytes vanish under unnesting, DFS reads collapse
under caching, shuffles vanish under partition pulling, shuffled bytes
shrink under fold-group fusion — so a regression in any rewrite or in
the cost accounting fails fast.
"""

from dataclasses import dataclass

import pytest

from repro.api import (
    DataBag,
    EmmaConfig,
    SparkLikeEngine,
    parallelize,
)
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.optimizer.pipeline import compile_program
from repro.workloads.tpch import stage_tpch, tpch_q4
from tests.optimizer.test_pipeline_goldens import PROGRAMS


@dataclass(frozen=True)
class Event:
    ip: int
    weight: int


@dataclass(frozen=True)
class Listed:
    ip: int


@parallelize
def flag_loop(events_path, listed_path, rounds):
    events = read(events_path, None)  # noqa: F821 - intrinsic
    listed = read(listed_path, None)  # noqa: F821 - intrinsic
    total = 0
    i = 0
    while i < rounds:
        flagged = (
            e for e in events if listed.exists(lambda b: b.ip == e.ip)
        )
        total = total + flagged.count()
        i = i + 1
    return total


@parallelize
def grouped_weights(events_path):
    events = read(events_path, None)  # noqa: F821 - intrinsic
    return (
        (g.key, g.values.map(lambda e: e.weight).sum())
        for g in events.group_by(lambda e: e.ip)
    )


@pytest.fixture(scope="module")
def dfs():
    store = SimulatedDFS()
    store.put("events", [Event(i % 40, i) for i in range(400)])
    store.put("listed", [Listed(i) for i in range(0, 40, 4)])
    return store


def _engine(dfs):
    engine = SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4), dfs=dfs
    )
    engine.broadcast_join_threshold = 1  # force repartition joins
    return engine


def _run_flag_loop(dfs, config):
    engine = _engine(dfs)
    result = flag_loop.run(
        engine,
        config=config,
        events_path="events",
        listed_path="listed",
        rounds=3,
    )
    return result, engine.metrics


EXPECTED = 3 * sum(
    1 for i in range(400) if (i % 40) % 4 == 0
)


class TestUnnestingMechanism:
    def test_baseline_broadcasts_the_lookup(self, dfs):
        result, metrics = _run_flag_loop(dfs, EmmaConfig.none())
        assert result == EXPECTED
        assert metrics.broadcast_bytes > 0
        assert metrics.repartition_joins == 0

    def test_unnesting_replaces_broadcast_with_semi_join(self, dfs):
        config = EmmaConfig(
            unnesting=True,
            fold_group_fusion=False,
            caching=False,
            partition_pulling=False,
        )
        result, metrics = _run_flag_loop(dfs, config)
        assert result == EXPECTED
        assert metrics.broadcast_bytes == 0
        assert metrics.repartition_joins == 3  # one per iteration


class TestCachingMechanism:
    def test_lazy_baseline_rereads_every_iteration(self, dfs):
        _, metrics = _run_flag_loop(
            dfs,
            EmmaConfig(
                unnesting=True,
                fold_group_fusion=False,
                caching=False,
                partition_pulling=False,
            ),
        )
        events_bytes = dfs.get("events").nbytes
        assert metrics.dfs_read_bytes >= 3 * events_bytes

    def test_caching_reads_each_input_once(self, dfs):
        _, metrics = _run_flag_loop(
            dfs,
            EmmaConfig(
                unnesting=True,
                fold_group_fusion=False,
                caching=True,
                partition_pulling=False,
            ),
        )
        events_bytes = dfs.get("events").nbytes
        listed_bytes = dfs.get("listed").nbytes
        assert metrics.dfs_read_bytes == events_bytes + listed_bytes


class TestPartitionPullingMechanism:
    def test_partitioned_caches_eliminate_loop_shuffles(self, dfs):
        # Physical planning off: loop-invariant hoisting would remove
        # the per-iteration shuffles in *both* configs, hiding the
        # partition-pulling effect this test isolates.
        _, cached = _run_flag_loop(
            dfs,
            EmmaConfig(
                unnesting=True,
                fold_group_fusion=False,
                caching=True,
                partition_pulling=False,
                physical_planning=False,
            ),
        )
        _, pulled = _run_flag_loop(
            dfs,
            EmmaConfig(
                unnesting=True,
                fold_group_fusion=False,
                caching=True,
                partition_pulling=True,
                physical_planning=False,
            ),
        )
        # Without pulling: both join sides shuffle every iteration.
        # With pulling: the one-time cache shuffle is all there is, and
        # per-iteration shuffles disappear entirely.
        assert pulled.shuffle_bytes < cached.shuffle_bytes
        assert pulled.records_shuffled < cached.records_shuffled

    def test_results_identical_across_all_configs(self, dfs):
        results = {
            label: _run_flag_loop(dfs, config)[0]
            for label, config in {
                "none": EmmaConfig.none(),
                "all": EmmaConfig.all(),
            }.items()
        }
        assert results["none"] == results["all"] == EXPECTED


class TestFusionMechanism:
    def test_fusion_shrinks_shuffled_bytes(self, dfs):
        fused_engine = _engine(dfs)
        fused = grouped_weights.run(
            fused_engine, events_path="events"
        )
        unfused_engine = _engine(dfs)
        unfused = grouped_weights.run(
            unfused_engine,
            config=EmmaConfig(fold_group_fusion=False),
            events_path="events",
        )
        assert fused == unfused
        assert (
            fused_engine.metrics.shuffle_bytes
            < unfused_engine.metrics.shuffle_bytes / 2
        )


class TestDeterminism:
    def test_identical_runs_produce_identical_metrics(self, dfs):
        _, a = _run_flag_loop(dfs, EmmaConfig.all())
        _, b = _run_flag_loop(dfs, EmmaConfig.all())
        assert a.simulated_seconds == b.simulated_seconds
        assert a.shuffle_bytes == b.shuffle_bytes
        assert a.dfs_read_bytes == b.dfs_read_bytes
        assert a.jobs_submitted == b.jobs_submitted


class TestFilterPushdownAblation:
    """With the Figure 3a pushdown state off, single-generator guards
    stay above the joins — and an unnested ``exists`` keeps its
    equi-join guard, so every program still compiles and means the
    same."""

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_every_shipped_program_compiles(self, name):
        config = EmmaConfig(filter_pushdown=False)
        assert compile_program(PROGRAMS[name].lifted.program, config).sites

    def test_tpch_q4_returns_the_default_result(self):
        store = SimulatedDFS()
        orders, lineitem = stage_tpch(store, sf=0.05)
        params = dict(
            orders_path=orders,
            lineitem_path=lineitem,
            date_min="1994-01-01",
            date_max="1994-07-01",
        )
        default = tpch_q4.run(SparkLikeEngine(dfs=store), **params)
        off = tpch_q4.run(
            SparkLikeEngine(dfs=store),
            config=EmmaConfig(filter_pushdown=False),
            **params,
        )
        assert default.fetch()
        assert sorted(off.fetch()) == sorted(default.fetch())

    def test_an_exists_over_a_loop_keeps_its_semi_join(self, dfs):
        result, _ = _run_flag_loop(dfs, EmmaConfig(filter_pushdown=False))
        assert result == EXPECTED
