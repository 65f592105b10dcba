"""Differential suite for the host-parallel execution backend.

The backbone guarantee of :mod:`repro.engines.scheduler` is that the
execution mode is *observably irrelevant*: for any workload — including
one under aggressive fault injection — serial, threaded, and
process-pool execution must produce bit-identical results, identical
``simulated_seconds``, and identical fault/recovery schedules.  Only
the counters ``repro.engines.metrics.HOST_DEPENDENT`` names (measured
wall clock and the scheduler's own accounting) may differ.
"""

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    BinOp,
    Compare,
    Const,
    Index,
    Ref,
    TupleExpr,
)
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.engines.faults import FaultPlan
from repro.engines.scheduler import TaskScheduler
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.combinators import (
    CAggBy,
    CBagRef,
    CChain,
    CCross,
    CDistinct,
    CEqJoin,
    CFilter,
    CFlatMap,
    CFold,
    CGroupBy,
    CMap,
    CMinus,
    CParallelize,
    CSemiJoin,
    CSource,
    CUnion,
    ScalarFn,
)
from repro.workloads import datagen, graphs
from repro.workloads.kmeans import initial_centroids, kmeans
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

MODES = ("serial", "processes")


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


class RecordingScheduler(TaskScheduler):
    """A scheduler that logs every task it is handed, in order."""

    def __init__(self, mode):
        super().__init__(mode=mode, max_parallel_tasks=2)
        #: (label, partition index) of every submitted task
        self.submitted = []

    def run_stage(self, tasks, metrics=None):
        self.submitted += [(t.label, t.index) for t in tasks]
        return super().run_stage(tasks, metrics)


def _engine(world, mode, fault_plan=None):
    engine = SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4),
        dfs=world["dfs"],
        execution_mode=mode,
        max_parallel_tasks=2,
        fault_plan=fault_plan,
    )
    engine._scheduler = RecordingScheduler(mode)
    return engine


def _run_all_modes(world, algo, fault_plan=None, **params):
    """Run ``algo`` under every mode; assert bit-identical outcomes.

    Results are compared by exact ``repr`` in collection order (not
    sorted): the deterministic by-index merge must reproduce the serial
    record order, not merely the same multiset.  Every mode must also
    hand the scheduler the identical task sequence: there is one
    implementation per operator, and the mode only picks how its tasks
    are dispatched.
    """
    outcomes = {}
    submitted = {}
    for mode in MODES:
        # FaultPlan is a frozen dataclass; each engine builds its own
        # injector from it, so sharing the plan across modes is safe.
        engine = _engine(world, mode, fault_plan=fault_plan)
        result = algo.run(engine, **params)
        records = result.fetch() if hasattr(result, "fetch") else result
        outcomes[mode] = (
            [repr(r) for r in records],
            engine.metrics.invariant(),
            engine.metrics,
        )
        submitted[mode] = engine.scheduler.submitted
    base_records, base_metrics, _ = outcomes["serial"]
    assert submitted["serial"], "serial mode ran no task specs"
    records, metrics, raw = outcomes["processes"]
    assert records == base_records, "processes diverged from serial"
    assert metrics == base_metrics, "processes metrics diverged"
    assert submitted["processes"] == submitted["serial"], (
        "processes scheduled a different task sequence than serial"
    )
    assert raw.parallel_tasks > 0
    assert raw.serial_fallbacks == 0
    return outcomes


class TestWorkloadsBitIdentical:
    def test_pagerank(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        _run_all_modes(
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
        _run_all_modes(
            world,
            kmeans,
            points_path=world["points"],
            initial=init,
            epsilon=1e-6,
            max_iterations=4,
        )

    def test_tpch_q1(self, world):
        _run_all_modes(
            world,
            tpch_q1,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )

    def test_tpch_q4(self, world):
        _run_all_modes(
            world,
            tpch_q4,
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1995-01-01",
            date_max="1996-07-01",
        )


class TestFaultedRunsBitIdentical:
    """Fault schedules draw from the monotone task counter, which the
    driver advances in partition order after each parallel stage — so
    injected chaos must land identically in every mode."""

    def test_pagerank_under_aggressive_faults(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        outcomes = _run_all_modes(
            world,
            pagerank,
            fault_plan=FaultPlan.aggressive(seed=23),
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=3,
        )
        _, metrics, _ = outcomes["serial"]
        assert metrics["tasks_retried"] > 0
        assert metrics["workers_lost"] > 0
        assert metrics["stragglers_injected"] > 0

    def test_tpch_q1_under_aggressive_faults(self, world):
        outcomes = _run_all_modes(
            world,
            tpch_q1,
            fault_plan=FaultPlan.aggressive(seed=5),
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        _, metrics, _ = outcomes["serial"]
        assert metrics["tasks_retried"] > 0


def _key():
    return ScalarFn(("x",), Index(Ref("x"), Const(0)))


def _xs():
    return CBagRef(name="xs")


def _ys():
    return CBagRef(name="ys")


_INC = CMap(fn=ScalarFn(("x",), BinOp("+", Ref("x"), Const(1))), input=_xs())
_BIG = CFilter(
    predicate=ScalarFn(("x",), Compare(">", Ref("x"), Const(3))), input=_xs()
)
_CHAIN = CChain(ops=(_INC, _BIG), input=_xs())
_PAIRS = {"xs": DataBag([(i % 5, i) for i in range(40)])}
_OTHER = {**_PAIRS, "ys": DataBag([(i % 3, -i) for i in range(9)])}
_INTS = {"xs": DataBag(list(range(40))), "ys": DataBag([3, 4, 4, 50])}
_REPARTITION = {"broadcast_join_threshold": 0}

#: One small plan per ``JobExecutor._HANDLERS`` entry (two for the
#: joins: one per physical strategy) as ``(plan, env, engine
#: attributes, task labels it must submit)``.  An empty label set
#: means the operator has no per-partition task at all, in any mode.
_PLANS = {
    CSource: [(CSource(path=Const("d/x"), fmt=Const(None)), {}, {}, set())],
    CParallelize: [
        (CParallelize(seq=TupleExpr((Const(1), Const(2)))), {}, {}, set())
    ],
    CBagRef: [(_xs(), _INTS, {}, set())],
    CMap: [(_INC, _INTS, {}, {"Map"})],
    CFlatMap: [
        (
            CFlatMap(
                fn=ScalarFn(("x",), TupleExpr((Ref("x"), Ref("x")))),
                input=_xs(),
            ),
            _INTS,
            {},
            {"FlatMap"},
        )
    ],
    CFilter: [(_BIG, _INTS, {}, {"Filter"})],
    CChain: [(_CHAIN, _INTS, {}, {_CHAIN.label()})],
    CEqJoin: [
        (
            CEqJoin(kx=_key(), ky=_key(), left=_xs(), right=_ys()),
            _OTHER,
            attrs,
            labels,
        )
        for attrs, labels in (
            ({}, {"broadcast-join"}),
            (_REPARTITION, {"bucket-left", "bucket-right", "join-probe"}),
        )
    ],
    CSemiJoin: [
        (
            CSemiJoin(kx=_key(), ky=_key(), left=_xs(), right=_ys()),
            _OTHER,
            attrs,
            labels,
        )
        for attrs, labels in (
            ({}, {"broadcast-semi"}),
            (_REPARTITION, {"bucket-left", "bucket-right", "semi-probe"}),
        )
    ],
    CCross: [(CCross(left=_xs(), right=_ys()), _INTS, {}, set())],
    CGroupBy: [
        (
            CGroupBy(key=_key(), input=_xs()),
            _PAIRS,
            {},
            {"shuffle-bucket", "group"},
        )
    ],
    CAggBy: [
        (
            CAggBy(key=_key(), specs=(AlgebraSpec("count"),), input=_xs()),
            _PAIRS,
            {},
            {"agg-map", "shuffle-bucket", "agg-merge"},
        )
    ],
    CDistinct: [(CDistinct(input=_xs()), _INTS, {}, {"shuffle-bucket"})],
    CUnion: [(CUnion(left=_xs(), right=_ys()), _INTS, {}, set())],
    CMinus: [
        (CMinus(left=_xs(), right=_ys()), _INTS, {}, {"shuffle-bucket"})
    ],
    CFold: [
        (CFold(spec=AlgebraSpec("sum"), input=_xs()), _INTS, {}, {"fold"})
    ],
}


class TestEveryOperatorOnePath:
    """No operator may carry a second, mode-specific loop body: each
    handler submits the same tasks whatever the execution mode."""

    def test_every_handler_has_a_plan(self):
        assert set(_PLANS) == set(JobExecutor._HANDLERS) | {CFold}

    @pytest.mark.parametrize(
        "plan, env, attrs, labels",
        [case for cases in _PLANS.values() for case in cases],
        ids=[
            f"{kind.__name__}-{i}"
            for kind, cases in _PLANS.items()
            for i in range(len(cases))
        ],
    )
    def test_same_tasks_in_every_mode(self, plan, env, attrs, labels):
        dfs = SimulatedDFS()
        dfs.put("d/x", list(range(20)))
        runs = {}
        for mode in MODES:
            engine = _engine({"dfs": dfs}, mode)
            for name, value in attrs.items():
                setattr(engine, name, value)
            if isinstance(plan, CFold):
                result = engine.run_scalar(plan, env)
            else:
                result = engine.collect(engine.defer(plan, env))
            runs[mode] = (
                repr(result),
                engine.metrics.invariant(),
                engine.scheduler.submitted,
            )
            assert engine.metrics.serial_fallbacks == 0
        assert {label for label, _ in runs["serial"][2]} == labels
        assert runs["processes"] == runs["serial"]
