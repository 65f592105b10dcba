"""Differential suite for the columnar exchange plane.

The exchange plane extends the columnar contract through the shuffle
operators: partitioning, hash join, and group-by may evaluate their
key UDFs as *columns* and scatter whole batches, but the plane must
stay observably irrelevant.  For any workload — including one under
aggressive fault injection and a tight driver memory budget — exchange
``on`` and ``off``, across serial, threaded, and process-pool modes,
must produce bit-identical results, identical ``simulated_seconds``,
and identical fault/recovery schedules.  Only wall clock, IPC bytes,
and the columnar/exchange counters themselves may move.
"""

import pickle

import pytest

from repro.api import DataBag, parallelize
from repro.engines.cluster import ClusterConfig
from repro.engines.columnar import infer_schema
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.engines.faults import FaultPlan
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.combinators import CBagRef
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

MODES = ("serial", "processes")
PLANES = ("off", "on")

#: Beyond ``metrics.HOST_DEPENDENT``, the accounting of the layers this
#: suite varies: the columnar plane, the exchange plane (the suite's
#: axis *is* the exchange knob), and — for the budget matrix — spill.
_PLANE_DEPENDENT = {
    "columnar_batches_built",
    "columnar_kernels",
    "columnar_fallbacks",
    "columnar_fallbacks_udf",
    "columnar_fallbacks_schema",
    "columnar_fallbacks_input",
    "columnar_shuffles",
    "columnar_joins",
    "columnar_groups",
    "spill_bytes_written",
    "spill_bytes_read",
    "partitions_spilled",
    "partitions_reloaded",
    "external_merge_passes",
    "budget_evictions",
}


@parallelize
def skew_join(xs: DataBag, ys: DataBag):
    """A two-table equi-join on a deliberately skewed tuple key."""
    pairs = ((x, y) for x in xs for y in ys if x[0] == y[0])
    return [(p[0][0], p[0][1] + p[1][1]) for p in pairs]


#: Skewed build/probe inputs: every tenth left row keeps its own key,
#: the rest pile onto key 3 — one shuffle bucket dominates.
SKEW_LEFT = [(i % 7 if i % 10 == 0 else 3, float(i)) for i in range(400)]
SKEW_RIGHT = [(i % 7, float(i) * 0.5) for i in range(300)]


@pytest.fixture(scope="module")
def world():
    """Small staged datasets shared by every differential case."""
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=48)
    big_graph_path = graphs.stage_follower_graph(
        dfs, num_vertices=2000, seed=11
    )
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.05)
    return {
        "dfs": dfs,
        "graph": graph_path,
        "big_graph": big_graph_path,
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


def _config(exchange, mode, budget=0):
    return EmmaConfig(
        columnar_exchange=exchange,
        execution_mode=mode,
        max_parallel_tasks=2,
        memory_budget=budget,
    )


def _engagement(metrics) -> int:
    return (
        metrics.columnar_shuffles
        + metrics.columnar_joins
        + metrics.columnar_groups
    )


def _run_matrix(
    world, algo, fault_plan=None, budget=0, engages=True, **params
):
    """Run ``algo`` under every (exchange, mode); assert bit-identity.

    Results are compared by exact ``repr`` in collection order (not
    sorted): the columnar scatter and batched probe must reproduce the
    row plane's record order and value types, not merely the same
    multiset.  With ``engages`` the matrix additionally pins that the
    exchange plane actually ran on every ``on`` variant — the
    bit-identity half proves nothing if the plane never engaged — and
    that shuffle payloads really shipped as typed blocks in processes
    mode.
    """
    outcomes = {}
    for plane in PLANES:
        for mode in MODES:
            engine = _engine(world, mode, fault_plan=fault_plan)
            result = algo.run(
                engine,
                config=_config(plane, mode, budget=budget),
                **params,
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
    for key, (records, metrics, raw) in outcomes.items():
        assert records == base_records, f"{key} diverged from baseline"
        assert metrics == base_metrics, f"{key} metrics diverged"
        if key[0] == "off":
            assert _engagement(raw) == 0, f"{key} engaged while off"
        elif engages:
            assert _engagement(raw) > 0, f"{key}: plane never engaged"
    if engages:
        on_serial = outcomes[("on", "serial")][2]
        on_procs = outcomes[("on", "processes")][2]
        # Engagement is decided driver-side from partition content, so
        # the counts themselves are mode-invariant.
        assert _engagement(on_serial) == _engagement(on_procs)
        # Blocks only "ship" across a process boundary.
        assert on_procs.columnar_blocks_shipped > 0
        assert on_serial.columnar_blocks_shipped == 0
    return outcomes


class TestWorkloadsBitIdentical:
    def test_pagerank(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        outcomes = _run_matrix(
            world,
            pagerank,
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=3,
        )
        # PageRank's join key dereferences a nested attribute
        # (``_fm[0].id``) — legitimately outside the scalar subset —
        # so engagement comes from the fused aggregations' partial
        # shuffles, not the join.
        raw = outcomes[("on", "serial")][2]
        assert raw.columnar_shuffles > 0
        assert raw.columnar_joins == 0

    def test_tpch_q1(self, world):
        outcomes = _run_matrix(
            world,
            tpch_q1,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        assert outcomes[("on", "serial")][2].columnar_shuffles > 0

    def test_tpch_q4(self, world):
        outcomes = _run_matrix(
            world,
            tpch_q4,
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1995-01-01",
            date_max="1996-07-01",
        )
        # Q4's semi-join and aggregation both shuffle columnar.
        assert outcomes[("on", "serial")][2].columnar_shuffles >= 2

    def test_skewed_key_join(self, world):
        outcomes = _run_matrix(
            world,
            skew_join,
            xs=DataBag(SKEW_LEFT),
            ys=DataBag(SKEW_RIGHT),
        )
        raw = outcomes[("on", "serial")][2]
        assert raw.columnar_joins > 0
        assert raw.columnar_shuffles > 0


class TestFaultedRunsBitIdentical:
    """Columnar exchange never touches the fault injector: bucket
    scatter and batched probes charge the same driver-side CPU in the
    same partition order, so injected chaos must land identically on
    both planes, in every mode."""

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

    def test_tpch_q4_under_aggressive_faults(self, world):
        outcomes = _run_matrix(
            world,
            tpch_q4,
            fault_plan=FaultPlan.aggressive(seed=5),
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1995-01-01",
            date_max="1996-07-01",
        )
        _, metrics, _ = outcomes[("off", "serial")]
        assert metrics["tasks_retried"] > 0

    def test_skewed_join_under_aggressive_faults(self, world):
        _run_matrix(
            world,
            skew_join,
            fault_plan=FaultPlan.aggressive(seed=7),
            xs=DataBag(SKEW_LEFT),
            ys=DataBag(SKEW_RIGHT),
        )


class TestBudgetedRunsBitIdentical:
    """A 256 KiB driver budget forces shuffle state — including
    columnar batches — through the spill store; reloads go through the
    same lineage path as resident partitions, so the squeeze plus the
    exchange plane together must still change nothing observable."""

    BUDGET = 256 * 1024

    def test_pagerank_under_budget(self, world):
        n = len(world["dfs"].get(world["big_graph"]).records)
        outcomes = _run_matrix(
            world,
            pagerank,
            budget=self.BUDGET,
            graph_path=world["big_graph"],
            num_pages=n,
            max_iterations=4,
        )
        # Prove the budget actually bit on the exchange-on runs: the
        # matrix is vacuous if nothing ever spilled and reloaded.
        for mode in MODES:
            raw = outcomes[("on", mode)][2]
            assert raw.partitions_spilled > 0, f"{mode}: never spilled"
            assert raw.partitions_reloaded > 0, f"{mode}: never reloaded"
            assert raw.columnar_shuffles > 0

    def test_budgeted_matches_unbudgeted(self, world):
        """The budget matrix baseline is itself budgeted; pin that the
        budgeted exchange-on run also matches a run with no budget at
        all (full transitivity of the invariance contract)."""
        n = len(world["dfs"].get(world["big_graph"]).records)
        results = {}
        for plane, budget in (("off", 0), ("on", self.BUDGET)):
            engine = _engine(world, "serial")
            result = pagerank.run(
                engine,
                config=_config(plane, "serial", budget=budget),
                graph_path=world["big_graph"],
                num_pages=n,
                max_iterations=4,
            )
            results[plane] = (
                [repr(r) for r in result.fetch()],
                engine.metrics.simulated_seconds,
            )
        assert results["on"] == results["off"]


class TestExplainMarkers:
    """The static half of the selection is rendered by ``explain()``."""

    def test_q4_marks_columnar_exchanges(self):
        text = tpch_q4.explain(_config("on", "serial"))
        assert "exchange=columnar" in text

    def test_pagerank_marks_the_row_join(self):
        text = pagerank.explain(_config("on", "serial"))
        # The rank-contribution join stays on the row plane (nested
        # attribute key) while the aggregations exchange columnar.
        assert "exchange=row" in text
        assert "exchange=columnar" in text

    def test_off_config_leaves_plans_unmarked(self):
        text = tpch_q4.explain(_config("off", "serial"))
        assert "exchange=" not in text


class TestCachedBatchRows:
    """A full-width batch cached for a bag at rest hands back that
    bag's own partition lists from ``to_records`` (read-only, shared);
    projected batches and shipped copies rebuild fresh records."""

    def _cached(self, needed):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2), dfs=SimulatedDFS()
        )
        executor = JobExecutor(engine, {}, engine._new_job())
        bag = executor.parallelize_local(
            [(i % 3, float(i)) for i in range(10)]
        )
        schema, _reason = infer_schema(bag.partitions[0])
        batches = executor._source_batches(
            CBagRef(name="xs"), schema, needed, bag
        )
        assert sorted(batches) == list(range(bag.num_partitions))
        return bag, batches

    def test_full_width_batch_shares_the_partition_list(self):
        bag, batches = self._cached(None)
        for i, batch in batches.items():
            assert batch.rows is bag.partitions[i]
            assert batch.to_records() is bag.partitions[i]

    def test_projected_batch_has_no_rows(self):
        _bag, batches = self._cached(frozenset({0}))
        assert all(batch.rows is None for batch in batches.values())

    def test_rows_never_ship(self):
        bag, batches = self._cached(None)
        for i, batch in batches.items():
            shipped = pickle.loads(pickle.dumps(batch))
            assert shipped.rows is None
            rebuilt = shipped.to_records()
            assert rebuilt == bag.partitions[i]
            assert rebuilt is not bag.partitions[i]
