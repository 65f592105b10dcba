"""Differential suite for memory-budgeted out-of-core execution.

The spill layer's contract mirrors the parallel backend's and the
columnar plane's: it is a *host-resource* mechanism, observably
irrelevant to the simulation.  For any workload — including one under
aggressive fault injection and mid-run budget squeezes — spill ``on``
(a tight driver memory budget) and ``off`` (unlimited), across serial,
threaded, and process-pool modes, must produce bit-identical results,
identical ``simulated_seconds``, and identical fault/recovery
schedules.  Only wall clock, IPC bytes, and the ``spill_*`` counters
may move.
"""

import pytest

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1

MODES = ("serial", "processes")

#: Driver budget tight enough to force real evictions on these
#: workloads, loose enough that pinned working sets still fit.
BUDGET = 16 * 1024

#: Beyond ``metrics.HOST_DEPENDENT``, this suite varies the memory
#: budget, so the spill layer's accounting — and the columnar plane's,
#: whose batch cache the budget evicts — may differ between variants.
_PLANE_DEPENDENT = {
    "columnar_batches_built",
    "columnar_kernels",
    "columnar_fallbacks",
    "columnar_fallbacks_udf",
    "columnar_fallbacks_schema",
    "columnar_fallbacks_input",
    "spill_bytes_written",
    "spill_bytes_read",
    "partitions_spilled",
    "partitions_reloaded",
    "external_merge_passes",
    "budget_evictions",
}


@pytest.fixture(scope="module")
def world():
    """Small staged datasets shared by every differential case."""
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=90)
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.05)
    return {
        "dfs": dfs,
        "graph": graph_path,
        "orders": orders_path,
        "lineitem": lineitem_path,
    }


def _engine(world, mode, fault_plan=None):
    return SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4),
        dfs=world["dfs"],
        execution_mode=mode,
        max_parallel_tasks=2,
        fault_plan=fault_plan,
        checkpoint_interval=2 if fault_plan else 0,
    )


def _config(budget, mode):
    return EmmaConfig(
        memory_budget=budget, execution_mode=mode, max_parallel_tasks=2
    )


def _run_matrix(
    world, algo, fault_plan=None, expect_spills=True, **params
):
    """Run ``algo`` under every (budget, mode); assert bit-identity.

    Results are compared by exact ``repr`` in collection order (not
    sorted): a spill round trip must reproduce record order and value
    types, not merely the same multiset.
    """
    outcomes = {}
    for budget in (0, BUDGET):
        for mode in MODES:
            engine = _engine(world, mode, fault_plan=fault_plan)
            result = algo.run(
                engine, config=_config(budget, mode), **params
            )
            records = (
                result.fetch() if hasattr(result, "fetch") else result
            )
            outcomes[(budget, mode)] = (
                [repr(r) for r in records],
                engine.metrics.invariant(_PLANE_DEPENDENT),
                engine.metrics,
            )
    base_records, base_metrics, _ = outcomes[(0, "serial")]
    for key, (records, metrics, _raw) in outcomes.items():
        assert records == base_records, f"{key} diverged from baseline"
        assert metrics == base_metrics, f"{key} metrics diverged"
    # The matrix proves nothing if the budget never bit: workloads
    # with resident state (caches, hoisted loop invariants) must have
    # actually spilled.  Single-job workloads with nothing resident
    # (``expect_spills=False``) only prove the budget is harmless.
    if expect_spills:
        for mode in MODES:
            raw = outcomes[(BUDGET, mode)][2]
            assert raw.partitions_spilled > 0, f"{mode}: budget never bit"
            assert raw.spill_bytes_written > 0
    return outcomes


class TestWorkloadsBitIdentical:
    def test_pagerank(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        _run_matrix(
            world,
            pagerank,
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=4,
        )

    def test_tpch_q1(self, world):
        _run_matrix(
            world,
            tpch_q1,
            expect_spills=False,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )


class TestFaultedRunsBitIdentical:
    """Spill-on runs must draw the exact same fault schedules: spill
    I/O never advances the injector's task counter, and a spilled
    partition on a dead worker recovers through the same lineage path
    as a resident one."""

    def test_pagerank_under_aggressive_faults(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        outcomes = _run_matrix(
            world,
            pagerank,
            fault_plan=FaultPlan.aggressive(seed=17),
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=4,
        )
        _, metrics, _ = outcomes[(0, "serial")]
        assert metrics["tasks_retried"] > 0
        assert metrics["workers_lost"] > 0

    def test_tpch_q1_under_aggressive_faults(self, world):
        outcomes = _run_matrix(
            world,
            tpch_q1,
            fault_plan=FaultPlan.aggressive(seed=5),
            expect_spills=False,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        _, metrics, _ = outcomes[(0, "serial")]
        assert metrics["tasks_retried"] > 0


class TestMemorySqueezeChaos:
    """The MEMORY_SQUEEZE chaos event drops the budget mid-run; the
    squeeze must evict immediately and still change nothing observable."""

    def test_squeeze_is_invisible_and_actually_evicts(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        plan = FaultPlan.spill_pressure(budget=4096)
        outcomes = {}
        for mode in MODES:
            for squeezed in (False, True):
                engine = _engine(
                    world, mode, fault_plan=plan if squeezed else None
                )
                # checkpoint_interval must match across the pair: it
                # changes the job sequence.
                engine.checkpoint_interval = 2
                result = pagerank.run(
                    engine,
                    config=_config(0, mode),
                    graph_path=world["graph"],
                    num_pages=n,
                    max_iterations=4,
                )
                outcomes[(mode, squeezed)] = (
                    [repr(r) for r in result.fetch()],
                    engine.metrics,
                )
        base_records, _ = outcomes[("serial", False)]
        for (mode, squeezed), (records, metrics) in outcomes.items():
            assert records == base_records, f"{mode} diverged"
            if squeezed:
                # The squeeze plan also injects a crash, a straggler,
                # and a worker loss on top of the eviction pressure.
                assert metrics.partitions_spilled > 0, mode
                assert metrics.tasks_retried > 0
                assert metrics.workers_lost > 0
        clean = outcomes[("serial", False)][1].simulated_seconds
        squeezed_runs = {
            outcomes[(mode, True)][1].simulated_seconds
            for mode in MODES
        }
        # All squeezed runs agree with each other (the squeeze itself
        # charges simulated time only through its injected faults).
        assert len(squeezed_runs) == 1
        assert squeezed_runs.pop() > clean
