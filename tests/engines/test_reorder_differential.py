"""Differential guarantees for UDF-aware reordering (PR 8).

The reordering pass is a pure compile-time rewrite: with it on or off,
every execution mode — serial, threaded, process-pool, with or without
aggressive fault injection — must produce ``repr``-identical results.
What *may* change is data motion: on the UDF-styled TPC-H Q4 the pass
must strictly lower ``shuffle_bytes`` by pushing all three pair
filters below the orders × lineitems join.
"""

import pytest

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.tpch import stage_tpch, tpch_q4, tpch_q4_udf

MODES = ("serial", "processes")

#: Small enough that neither the raw nor the filtered build side can
#: be broadcast: both configurations realize the join by
#: repartitioning, the regime where pushdown removes shuffled bytes.
THRESHOLD = 512

REORDER_ON = EmmaConfig(udf_reordering="auto")
REORDER_OFF = EmmaConfig(udf_reordering="off")

Q4_PARAMS = dict(
    date_min="1994-01-01",
    date_max="1994-07-01",
)


@pytest.fixture(scope="module")
def world():
    """Staged TPC-H relations shared by every case in this module."""
    dfs = SimulatedDFS()
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.05)
    return {
        "dfs": dfs,
        "orders": orders_path,
        "lineitem": lineitem_path,
    }


def _engine(world, mode="serial", fault_plan=None):
    engine = SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4),
        dfs=world["dfs"],
        execution_mode=mode,
        max_parallel_tasks=2,
        fault_plan=fault_plan,
    )
    engine.broadcast_join_threshold = THRESHOLD
    return engine


def _run_q4_udf(world, config, mode="serial", fault_plan=None):
    engine = _engine(world, mode, fault_plan)
    result = tpch_q4_udf.run(
        engine,
        config=config,
        orders_path=world["orders"],
        lineitem_path=world["lineitem"],
        **Q4_PARAMS,
    )
    records = result.fetch() if hasattr(result, "fetch") else result
    return [repr(r) for r in records], engine


class TestBitIdenticalOnVsOff:
    @pytest.mark.parametrize("mode", MODES)
    def test_same_records_every_mode(self, world, mode):
        on_records, _ = _run_q4_udf(world, REORDER_ON, mode)
        off_records, _ = _run_q4_udf(world, REORDER_OFF, mode)
        assert on_records == off_records

    @pytest.mark.parametrize("mode", MODES)
    def test_same_records_under_aggressive_faults(self, world, mode):
        plan = FaultPlan.aggressive()
        on_records, _ = _run_q4_udf(world, REORDER_ON, mode, plan)
        off_records, _ = _run_q4_udf(world, REORDER_OFF, mode, plan)
        assert on_records == off_records

    def test_udf_variant_matches_classic_q4(self, world):
        """The imperative UDF phrasing computes exactly TPC-H Q4."""
        udf_records, _ = _run_q4_udf(world, REORDER_ON)
        engine = _engine(world)
        classic = tpch_q4.run(
            engine,
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            **Q4_PARAMS,
        )
        classic_records = [repr(r) for r in classic.fetch()]
        assert sorted(udf_records) == sorted(classic_records)


class TestShuffleReduction:
    def test_pushdown_strictly_lowers_shuffle_bytes(self, world):
        _, on_engine = _run_q4_udf(world, REORDER_ON)
        _, off_engine = _run_q4_udf(world, REORDER_OFF)
        assert (
            on_engine.metrics.shuffle_bytes
            < off_engine.metrics.shuffle_bytes
        )

    def test_metrics_copied_onto_engine(self, world):
        _, on_engine = _run_q4_udf(world, REORDER_ON)
        assert on_engine.metrics.reorders_applied >= 3
        assert on_engine.metrics.udfs_analyzed >= on_engine.metrics.reorders_applied
        _, off_engine = _run_q4_udf(world, REORDER_OFF)
        assert off_engine.metrics.reorders_applied == 0
        assert off_engine.metrics.udfs_analyzed == 0


class TestExplainMarkers:
    def test_on_plan_annotates_pushed_filters(self, world):
        plan = tpch_q4_udf.explain(REORDER_ON)
        assert "pushed-below-join" in plan

    def test_off_plan_has_no_markers(self, world):
        plan = tpch_q4_udf.explain(REORDER_OFF)
        assert "pushed-below-join" not in plan

    def test_report_counters(self, world):
        report = tpch_q4_udf.report(REORDER_ON)
        assert report.reorders_applied >= 3
        assert report.udf_reordering_applied
        off = tpch_q4_udf.report(REORDER_OFF)
        assert off.reorders_applied == 0
        assert not off.udf_reordering_applied
