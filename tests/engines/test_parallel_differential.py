"""Every operator has one implementation, whatever the execution mode.

Each ``JobExecutor`` handler, and each update method of the stateful
bag, must hand the scheduler the identical ``(label, partition)`` task
sequence in serial and processes mode, with identical results and
invariant metrics: the mode only picks how the same tasks are
dispatched.  Whole workloads across every execution
mode, plane, budget and cache state are checked by
``test_physical_lattice.py``; the mode alone, with every other knob at
its baseline, is checked here on the same harness.
"""

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Call,
    Compare,
    Const,
    Index,
    Ref,
    TupleExpr,
)
from repro.core.databag import DataBag
from repro.engines.chainkernel import Udf
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.engines.sparklike import SparkLikeEngine
from repro.engines.stateful import DistributedStatefulBag
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
from repro.workloads.pagerank import RankMessage, VertexRank
from tests.engines.test_physical_lattice import (
    RecordingScheduler,
    assert_agrees,
    lattice_world,
    run_point,
)

MODES = ("serial", "processes")


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


def _rank(rank):
    """``VertexRank(s.id, rank)`` over state ``s`` (and message ``m``)."""
    return Call(Ref("VertexRank"), (Attr(Ref("s"), "id"), rank))


#: the stateful update methods, each with compiled functions only
_UPDATES = {
    "update": lambda state: state.update(
        Udf(
            ("s",),
            _rank(BinOp("/", Attr(Ref("s"), "rank"), Const(2))),
            {"VertexRank": VertexRank},
        )
    ),
    "update_with_messages": lambda state: state.update_with_messages(
        [RankMessage(i % 7, 1.0) for i in range(30)],
        Udf(
            ("s", "m"),
            _rank(BinOp("+", Attr(Ref("s"), "rank"), Attr(Ref("m"), "rank"))),
            {"VertexRank": VertexRank},
        ),
    ),
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
            engine = SparkLikeEngine(
                cluster=ClusterConfig(num_workers=4),
                dfs=dfs,
                execution_mode=mode,
                max_parallel_tasks=2,
            )
            engine._scheduler = RecordingScheduler(mode)
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

    @pytest.mark.parametrize("method", sorted(_UPDATES))
    def test_stateful_updates_submit_the_same_tasks(self, method):
        runs = {}
        for mode in MODES:
            engine = SparkLikeEngine(
                cluster=ClusterConfig(num_workers=4),
                execution_mode=mode,
                max_parallel_tasks=2,
            )
            engine._scheduler = RecordingScheduler(mode)
            state = DistributedStatefulBag(
                engine, [VertexRank(i, float(i)) for i in range(20)]
            )
            delta = _UPDATES[method](state)
            runs[mode] = (
                repr(engine.collect(delta)),
                repr(state.bag().collect()),
                engine.metrics.invariant(),
                engine.scheduler.submitted,
            )
            assert engine.metrics.serial_fallbacks == 0
        assert runs["serial"][3] == [
            ("state-update", i) for i in range(engine.cluster.parallelism)
        ]
        assert runs["processes"] == runs["serial"]


class TestWorkloadsBitIdentical:
    """Processes mode with every other knob at its baseline — a point
    the covering array never runs, since its processes rows also flip
    a plane, the budget or the cache."""

    def test_pagerank(self, run_point):
        assert_agrees(run_point, "pagerank", "10000")

    def test_tpch_q1(self, run_point):
        assert_agrees(run_point, "tpch_q1", "10000")
