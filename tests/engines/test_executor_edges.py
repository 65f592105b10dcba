"""Edge-case and failure-injection tests for the dataflow executor."""

from dataclasses import dataclass

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Compare,
    Const,
    FoldCall,
    Lambda,
    ReadCall,
    Ref,
)
from repro.comprehension.ir import BAG, Comprehension, Generator, Guard
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError
from repro.optimizer.pipeline import hoist_closed_bags
from repro.lowering.combinators import (
    CBagRef,
    CCross,
    CEqJoin,
    CFilter,
    CFold,
    CGroupBy,
    CMap,
    CMinus,
    CSemiJoin,
    CUnion,
    ScalarFn,
)


@dataclass(frozen=True)
class R:
    k: int
    v: int


def spark(**kw) -> SparkLikeEngine:
    kw.setdefault("cluster", ClusterConfig(num_workers=4))
    return SparkLikeEngine(**kw)


def run_bag(engine, plan, env):
    return DataBag(engine.collect(engine.defer(plan, env)))


def key_k() -> ScalarFn:
    return ScalarFn(("x",), Attr(Ref("x"), "k"))


class TestEmptyInputs:
    def test_join_with_empty_side(self):
        plan = CEqJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {"xs": DataBag([R(1, 1)]), "ys": DataBag([])}
        assert run_bag(spark(), plan, env) == DataBag.empty()

    def test_cross_with_empty_side(self):
        plan = CCross(
            left=CBagRef(name="xs"), right=CBagRef(name="ys")
        )
        env = {"xs": DataBag([]), "ys": DataBag([1, 2])}
        assert run_bag(spark(), plan, env) == DataBag.empty()

    def test_semi_join_with_empty_right(self):
        plan = CSemiJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {"xs": DataBag([R(1, 1)]), "ys": DataBag([])}
        assert run_bag(spark(), plan, env) == DataBag.empty()

    def test_anti_join_with_empty_right_keeps_everything(self):
        plan = CSemiJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
            anti=True,
        )
        env = {"xs": DataBag([R(1, 1), R(2, 2)]), "ys": DataBag([])}
        assert run_bag(spark(), plan, env) == env["xs"]

    def test_group_by_empty_input(self):
        plan = CGroupBy(key=key_k(), input=CBagRef(name="xs"))
        assert run_bag(spark(), plan, {"xs": DataBag([])}) == (
            DataBag.empty()
        )

    def test_union_with_mismatched_partition_counts(self):
        eng = spark()
        from repro.engines.cluster import PartitionedBag

        env = {
            "a": PartitionedBag([[1], [2], [3]]),
            "b": PartitionedBag([[10]]),
        }
        plan = CUnion(
            left=CBagRef(name="a"), right=CBagRef(name="b")
        )
        assert run_bag(eng, plan, env) == DataBag([1, 2, 3, 10])

    def test_minus_everything(self):
        plan = CMinus(
            left=CBagRef(name="a"), right=CBagRef(name="a")
        )
        assert run_bag(spark(), plan, {"a": DataBag([1, 1, 2])}) == (
            DataBag.empty()
        )


class TestErrorPaths:
    def test_missing_dfs_file(self):
        plan = ReadCall(path=Const("nope"), fmt=Const(None))
        from repro.lowering.rules import lower

        with pytest.raises(EngineError, match="no such DFS file"):
            run_bag(spark(), lower(plan), {})

    def test_udf_referencing_unbound_name(self):
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("+", Ref("x"), Ref("ghost"))),
            input=CBagRef(name="xs"),
        )
        with pytest.raises(EngineError, match="ghost"):
            run_bag(spark(), plan, {"xs": DataBag([1])})

    def test_fold_where_bag_expected(self):
        eng = spark()
        fold = CFold(
            spec=AlgebraSpec("sum"), input=CBagRef(name="xs")
        )
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        with pytest.raises(EngineError, match="bag"):
            JobExecutor(eng, {"xs": DataBag([1])}, job).run_bag(fold)

    def test_collect_of_non_bag_value(self):
        with pytest.raises(EngineError, match="collect"):
            spark().collect(42)

    def test_cache_of_non_bag_value(self):
        with pytest.raises(EngineError, match="cache"):
            spark().cache(42)

    def test_broadcast_of_non_bag_value(self):
        eng = spark()
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        with pytest.raises(EngineError, match="broadcast"):
            JobExecutor(eng, {}, job).broadcast_value(3.14)


class TestHoisting:
    def _exists_filter_with_inlined_read(self):
        # filter(x -> read("lookup").exists(y -> y == x)) — the read is
        # a closed bag subexpression inside the UDF body.
        predicate = Lambda(
            ("y",), Compare("==", Ref("y"), Ref("x"))
        )
        body = FoldCall(
            ReadCall(path=Const("lookup"), fmt=Const(None)),
            AlgebraSpec("exists", (predicate,)),
        )
        return CFilter(
            predicate=ScalarFn(("x",), body),
            input=CBagRef(name="xs"),
        )

    def test_closed_read_hoisted_and_broadcast(self):
        eng = spark()
        eng.dfs.put("lookup", [2, 4])
        # The compiler's hoist-closed-bags pass, as compile_program runs it.
        plan = hoist_closed_bags(self._exists_filter_with_inlined_read(), {})
        result = run_bag(eng, plan, {"xs": DataBag([1, 2, 3, 4])})
        assert result == DataBag([2, 4])
        assert eng.metrics.broadcast_bytes > 0
        # The read executed once per job, not once per element.
        lookup_bytes = eng.dfs.get("lookup").nbytes
        assert eng.metrics.dfs_read_bytes == lookup_bytes

    def test_parameter_dependent_comprehensions_not_hoisted(self):
        # A nested comprehension referencing the UDF parameter must
        # stay in place (and evaluate per element).
        inner = Comprehension(
            head=Ref("y"),
            qualifiers=(
                Generator("y", Ref("lookup")),
                Guard(Compare("<", Ref("y"), Ref("x"))),
            ),
            kind=BAG,
        )
        body = FoldCall(inner, AlgebraSpec("count"))
        plan = CMap(
            fn=ScalarFn(("x",), body), input=CBagRef(name="xs")
        )
        eng = spark()
        env = {"xs": DataBag([1, 3]), "lookup": DataBag([0, 2, 9])}
        assert run_bag(eng, plan, env) == DataBag([1, 2])


class TestEngineBudgetInteraction:
    def test_timeout_raised_only_after_job_completes(self):
        eng = spark(time_budget=1e-9)
        fold = CFold(
            spec=AlgebraSpec("sum"), input=CBagRef(name="xs")
        )
        from repro.errors import SimulatedTimeout

        with pytest.raises(SimulatedTimeout) as info:
            eng.run_scalar(fold, {"xs": DataBag(range(10))})
        assert info.value.simulated_seconds > info.value.budget_seconds

    def test_flink_group_memory_is_unbounded(self):
        eng = FlinkLikeEngine(
            cluster=ClusterConfig(num_workers=2),
        )
        # Absurdly small memory would kill the Spark-like engine; the
        # Flink-like sort-based grouping just spills.
        from repro.engines.costmodel import CostModel

        eng.cost = CostModel(memory_per_worker=8)
        plan = CGroupBy(key=key_k(), input=CBagRef(name="xs"))
        env = {"xs": DataBag([R(1, i) for i in range(50)])}
        groups = run_bag(eng, plan, env)
        assert len(groups) == 1
