"""Differential suite for the columnar batch data plane.

The contract of :mod:`repro.engines.columnar` mirrors the parallel
backend's: the execution *plane* is observably irrelevant.  For any
workload — including one under aggressive fault injection — columnar
``on`` and ``off``, across serial, threaded, and process-pool modes,
must produce bit-identical results, identical ``simulated_seconds``,
and identical fault/recovery schedules.  Only wall clock, IPC bytes,
and the columnar counters themselves may move.
"""

import pytest

from repro.api import DataBag, parallelize
from repro.engines.cluster import ClusterConfig
from repro.engines.columnar import HAS_NUMPY
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import datagen, graphs
from repro.workloads.kmeans import initial_centroids, kmeans
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

MODES = ("serial", "processes")
PLANES = ("off", "on")

#: Beyond ``metrics.HOST_DEPENDENT``, this suite's axis is the columnar
#: plane, so the plane's own accounting may differ between variants.
_PLANE_DEPENDENT = {
    "columnar_batches_built",
    "columnar_kernels",
    "columnar_fallbacks",
    "columnar_fallbacks_udf",
    "columnar_fallbacks_schema",
    "columnar_fallbacks_input",
    # Under REPRO_MEMORY_BUDGET the at-rest ColumnBatch cache is itself
    # a budgeted entry (``spill.register_batches``: dropping it *is* the
    # eviction), and it exists only when a plane built batches — so the
    # eviction count depends on the plane by construction.
    "budget_evictions",
}


@parallelize
def scan_chain(xs: DataBag):
    """A scan-heavy fused chain squarely in the vectorizable subset."""
    ys = [(x * 2.0 + 1.0, x * x) for x in xs if x > 4.0]
    zs = [y[0] + y[1] / 2.0 for y in ys if y[0] < 150.0]
    return zs


@parallelize
def row_only_chain(xs: DataBag):
    """A chain the selection rule must keep on the row plane."""
    ys = [y for x in xs for y in [x, x + 1.0]]
    return [y * 2.0 for y in ys if y > 3.0]


@pytest.fixture(scope="module")
def world():
    """Small staged datasets shared by every differential case."""
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=48)
    points_path = datagen.stage_points(dfs, n=90, centers=3, dim=2)
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.05)
    return {
        "dfs": dfs,
        "graph": graph_path,
        "points": points_path,
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
    )


def _config(plane, mode):
    return EmmaConfig(
        columnar=plane, execution_mode=mode, max_parallel_tasks=2
    )


def _run_matrix(world, algo, fault_plan=None, **params):
    """Run ``algo`` under every (plane, mode); assert bit-identity.

    Results are compared by exact ``repr`` in collection order (not
    sorted): the columnar round-trip must reproduce the row plane's
    record order and value types, not merely the same multiset.
    """
    outcomes = {}
    for plane in PLANES:
        for mode in MODES:
            engine = _engine(world, mode, fault_plan=fault_plan)
            result = algo.run(
                engine, config=_config(plane, mode), **params
            )
            records = (
                result.fetch() if hasattr(result, "fetch") else result
            )
            outcomes[(plane, mode)] = (
                [repr(r) for r in records],
                engine.metrics.invariant(_PLANE_DEPENDENT),
                engine.metrics,
            )
    base_records, base_metrics, _ = outcomes[("off", "serial")]
    for key, (records, metrics, _raw) in outcomes.items():
        assert records == base_records, f"{key} diverged from baseline"
        assert metrics == base_metrics, f"{key} metrics diverged"
    return outcomes


class TestWorkloadsBitIdentical:
    def test_pagerank(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        _run_matrix(
            world,
            pagerank,
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=3,
        )

    def test_kmeans(self, world):
        init = initial_centroids(
            world["dfs"].get(world["points"]).records, 3
        )
        _run_matrix(
            world,
            kmeans,
            points_path=world["points"],
            initial=init,
            epsilon=1e-6,
            max_iterations=4,
        )

    def test_tpch_q1(self, world):
        _run_matrix(
            world,
            tpch_q1,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )

    def test_tpch_q4(self, world):
        _run_matrix(
            world,
            tpch_q4,
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1995-01-01",
            date_max="1996-07-01",
        )


class TestFaultedRunsBitIdentical:
    """Fault schedules draw from the monotone task counter, which the
    driver advances in partition order after each stage — so injected
    chaos must land identically on both planes, in every mode."""

    def test_pagerank_under_aggressive_faults(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        outcomes = _run_matrix(
            world,
            pagerank,
            fault_plan=FaultPlan.aggressive(seed=23),
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=3,
        )
        _, metrics, _ = outcomes[("off", "serial")]
        assert metrics["tasks_retried"] > 0
        assert metrics["workers_lost"] > 0

    def test_tpch_q1_under_aggressive_faults(self, world):
        outcomes = _run_matrix(
            world,
            tpch_q1,
            fault_plan=FaultPlan.aggressive(seed=5),
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        _, metrics, _ = outcomes[("off", "serial")]
        assert metrics["tasks_retried"] > 0


class TestColumnarPlaneEngages:
    """The matrix above proves nothing if the columnar plane never ran;
    this pins that the synthetic scan chain actually vectorizes."""

    DATA = [float(i) for i in range(200)]

    def _run(self, plane, mode):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            execution_mode=mode,
            max_parallel_tasks=2,
        )
        out = scan_chain.run(
            engine, config=_config(plane, mode), xs=DataBag(self.DATA)
        )
        return [repr(r) for r in out.fetch()], engine.metrics

    @pytest.mark.parametrize("mode", MODES)
    def test_vector_kernel_runs(self, mode):
        rows_off, m_off = self._run("off", mode)
        rows_on, m_on = self._run("on", mode)
        assert rows_on == rows_off
        assert m_off.columnar_kernels == 0
        assert m_off.columnar_batches_built == 0
        assert m_on.columnar_kernels > 0
        assert m_on.columnar_batches_built > 0
        assert m_on.simulated_seconds == m_off.simulated_seconds
        assert m_on.element_ops == m_off.element_ops
        assert m_on.udf_invocations == m_off.udf_invocations

    def test_auto_plane_follows_numpy(self):
        rows, metrics = self._run("auto", "serial")
        if HAS_NUMPY:
            assert metrics.columnar_kernels > 0
        else:
            assert metrics.columnar_kernels == 0

    def test_explain_annotates_planes(self):
        on = _config("on", "serial")
        assert "| columnar" in scan_chain.explain(on)
        assert "| row" in row_only_chain.explain(on)
        trace = row_only_chain.explain(on, trace=True)
        assert "flat-map requires row-at-a-time emission" in trace

    def test_row_chain_still_bit_identical(self):
        engine_off = SparkLikeEngine()
        engine_on = SparkLikeEngine()
        bag = DataBag(self.DATA)
        out_off = row_only_chain.run(
            engine_off, config=_config("off", "serial"), xs=bag
        )
        out_on = row_only_chain.run(
            engine_on, config=_config("on", "serial"), xs=bag
        )
        assert [repr(r) for r in out_on.fetch()] == [
            repr(r) for r in out_off.fetch()
        ]
        assert (
            engine_on.metrics.simulated_seconds
            == engine_off.metrics.simulated_seconds
        )
