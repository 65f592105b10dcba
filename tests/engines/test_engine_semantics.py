"""Tests for engine-level execution semantics: laziness, thunks,
caching policies, partition pulling, budgets, and stateful bags."""

from dataclasses import dataclass, replace

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Const,
    Ref,
)
from repro.api import LocalEngine, parallelize, stateful
from repro.core.databag import DataBag
from repro.engines.cluster import (
    ClusterConfig,
    PartitionedBag,
    Partitioner,
    hash_partition_index,
)
from repro.engines.costmodel import CostModel
from repro.engines.faults import FaultPlan
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.sparklike import SparkLikeEngine
from repro.engines.stateful import DistributedStatefulBag
from repro.errors import EmmaError, SimulatedTimeout
from repro.lowering.combinators import (
    CBagRef,
    CFold,
    CMap,
    CSource,
    ScalarFn,
)


@dataclass(frozen=True)
class S:
    id: int
    value: int


@dataclass(frozen=True)
class City:
    """A record with neither a ``key`` nor an ``id`` attribute."""

    name: str
    population: int


@dataclass(frozen=True)
class Tagged:
    """A record keyed by ``k`` that also carries an ``id``."""

    k: int
    id: int


@dataclass(frozen=True)
class Addressed:
    """A message routed by its ``key`` field, not by its ``id``."""

    key: int
    id: int
    value: int


def _move_key(s):
    """An update that breaks the key-preservation rule."""
    return S(s.id + 1, 0)


@parallelize
def grow_cities(cities: DataBag):
    state = stateful(cities, lambda c: c.name)
    state.update(lambda c: City(c.name, c.population + 1))
    return state.bag()


@parallelize
def join_on_other_field(xs: DataBag, ys: DataBag):
    state = stateful(xs, lambda t: t.k)
    return [(a.k, b.k) for a in state.bag() for b in ys if a.id == b.id]


def _spark(**kw) -> SparkLikeEngine:
    kw.setdefault("cluster", ClusterConfig(num_workers=4))
    return SparkLikeEngine(**kw)


def _flink(**kw) -> FlinkLikeEngine:
    kw.setdefault("cluster", ClusterConfig(num_workers=4))
    return FlinkLikeEngine(**kw)


def _inc_plan(input_node) -> CMap:
    return CMap(
        fn=ScalarFn(("x",), BinOp("+", Ref("x"), Const(1))),
        input=input_node,
    )


class TestLazinessAndLineage:
    def test_defer_does_not_execute(self):
        eng = _spark()
        eng.defer(_inc_plan(CBagRef(name="xs")), {"xs": DataBag([1])})
        assert eng.metrics.jobs_submitted == 0

    def test_uncached_lineage_recomputed_per_consuming_job(self):
        eng = _spark()
        eng.dfs.put("src", list(range(50)))
        deferred = eng.defer(
            _inc_plan(CSource(path=Const("src"), fmt=Const(None))), {}
        )
        fold = CFold(spec=AlgebraSpec("sum"), input=CBagRef(name="d"))
        eng.run_scalar(fold, {"d": deferred})
        after_one = eng.metrics.dfs_read_bytes
        eng.run_scalar(fold, {"d": deferred})
        # The source was re-read: lineage recomputation, not caching.
        assert eng.metrics.dfs_read_bytes == 2 * after_one

    def test_forced_thunk_memoizes(self):
        eng = _spark()
        eng.dfs.put("src", list(range(10)))
        deferred = eng.defer(
            _inc_plan(CSource(path=Const("src"), fmt=Const(None))), {}
        )
        first = deferred.force_local()
        reads = eng.metrics.dfs_read_bytes
        second = deferred.force_local()
        assert second is first
        assert eng.metrics.dfs_read_bytes == reads

    def test_cached_bag_not_recomputed(self):
        eng = _spark()
        eng.dfs.put("src", list(range(50)))
        deferred = eng.defer(
            _inc_plan(CSource(path=Const("src"), fmt=Const(None))), {}
        )
        handle = eng.cache(deferred)
        reads = eng.metrics.dfs_read_bytes
        fold = CFold(spec=AlgebraSpec("sum"), input=CBagRef(name="d"))
        assert eng.run_scalar(fold, {"d": handle}) == sum(
            range(1, 51)
        )
        eng.run_scalar(fold, {"d": handle})
        # In-memory cache: no further DFS reads.
        assert eng.metrics.dfs_read_bytes == reads

    def test_env_snapshot_at_defer_time(self):
        eng = _spark()
        env = {"xs": DataBag([1])}
        deferred = eng.defer(_inc_plan(CBagRef(name="xs")), env)
        env["xs"] = DataBag([100])  # later driver rebinding
        assert deferred.force_local() == [2]


class TestCachePolicies:
    def test_spark_cache_lives_in_memory(self):
        eng = _spark()
        handle = eng.cache(DataBag([1, 2, 3]))
        assert handle.storage == "memory"
        assert eng.metrics.dfs_write_bytes == 0

    def test_flink_cache_spills_to_dfs(self):
        eng = _flink()
        handle = eng.cache(DataBag([1, 2, 3]))
        assert handle.storage == "dfs"
        assert eng.metrics.dfs_write_bytes > 0
        assert eng.dfs.exists(handle.dfs_path)

    def test_flink_cache_reads_charge_dfs_every_use(self):
        eng = _flink()
        handle = eng.cache(DataBag(list(range(100))))
        writes = eng.metrics.dfs_write_bytes
        fold = CFold(spec=AlgebraSpec("sum"), input=CBagRef(name="d"))
        eng.run_scalar(fold, {"d": handle})
        first_reads = eng.metrics.dfs_read_bytes
        eng.run_scalar(fold, {"d": handle})
        assert eng.metrics.dfs_read_bytes == 2 * first_reads
        assert eng.metrics.dfs_write_bytes == writes

    def test_cache_with_partition_key_sets_partitioner(self):
        eng = _spark()
        key = ScalarFn(("s",), Attr(Ref("s"), "id"))
        handle = eng.cache(
            DataBag([S(1, 10), S(2, 20)]), partition_key=key
        )
        assert handle.bag.partitioner is not None
        assert handle.bag.partitioner.matches(
            key, handle.bag.num_partitions
        )

    def test_partitioned_cache_elides_downstream_shuffle(self):
        eng = _spark()
        key = ScalarFn(("s",), Attr(Ref("s"), "id"))
        handle = eng.cache(
            DataBag([S(i, i) for i in range(40)]), partition_key=key
        )
        shuffled_before = eng.metrics.shuffle_bytes
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        ex = JobExecutor(eng, {"d": handle}, job)
        bag = ex._exec_bag_ref(CBagRef(name="d"))
        ex.shuffle_by_key(bag, key)
        assert eng.metrics.shuffle_bytes == shuffled_before


class TestBudget:
    def test_simulated_timeout(self):
        eng = _spark(time_budget=0.0001)
        fold = CFold(
            spec=AlgebraSpec("sum"), input=CBagRef(name="xs")
        )
        with pytest.raises(SimulatedTimeout):
            eng.run_scalar(fold, {"xs": DataBag(range(1000))})

    def test_budget_not_exceeded_passes(self):
        eng = _spark(time_budget=1e9)
        fold = CFold(
            spec=AlgebraSpec("sum"), input=CBagRef(name="xs")
        )
        assert eng.run_scalar(fold, {"xs": DataBag([1])}) == 1


class TestDistributedStateful:
    def _state(self, eng, n=10) -> DistributedStatefulBag:
        return DistributedStatefulBag(
            eng, [S(i, i * 10) for i in range(n)]
        )

    def test_bag_snapshot_is_partitioned_by_key(self):
        eng = _spark()
        state = self._state(eng)
        bag = state.bag()
        assert bag.partitioner is not None
        assert bag.count() == 10

    def test_update_returns_delta(self):
        eng = _spark()
        state = self._state(eng, 4)
        delta = state.update(
            lambda s: replace(s, value=0) if s.id % 2 == 0 else None
        )
        collected = eng.collect(delta)
        assert sorted(s.id for s in collected) == [0, 2]
        assert state.count() == 4

    def test_update_with_messages_routes_by_key(self):
        eng = _spark()
        state = self._state(eng, 4)
        delta = state.update_with_messages(
            DataBag([S(1, 5), S(99, 1)]),
            lambda s, m: replace(s, value=s.value + m.value),
        )
        collected = eng.collect(delta)
        assert [s.id for s in collected] == [1]

    def test_cached_messages_reload_spilled_partitions(self):
        # A one-byte budget spills the cached messages as soon as they
        # are stored; the update reads them back like any consumer.
        eng = _spark(memory_budget=1)
        state = self._state(eng, 4)
        messages = eng.cache(DataBag([S(1, 5), S(3, 1)]))
        delta = state.update_with_messages(
            messages, lambda s, m: replace(s, value=s.value + m.value)
        )
        assert sorted(eng.collect(delta), key=repr) == [S(1, 15), S(3, 31)]

    def test_cached_messages_charge_their_dfs_read(self):
        eng = _flink()
        state = self._state(eng, 4)
        messages = eng.cache(DataBag([S(1, 5), S(3, 1)]))
        before = eng.metrics.dfs_read_bytes
        seconds = eng.metrics.simulated_seconds
        state.update_with_messages(
            messages, lambda s, m: replace(s, value=s.value + m.value)
        )
        assert eng.metrics.dfs_read_bytes - before == messages.bag.nbytes()
        # The read is part of the update's one job.
        assert eng.metrics.simulated_seconds > seconds

    def test_duplicate_keys_rejected(self):
        eng = _spark()
        with pytest.raises(EmmaError, match="duplicate"):
            DistributedStatefulBag(eng, [S(1, 1), S(1, 2)])

    def test_key_preservation_enforced(self):
        eng = _spark()
        state = self._state(eng, 2)
        with pytest.raises(EmmaError, match="preserve"):
            state.update(lambda s: S(s.id + 1, 0))

    def test_key_preservation_enforced_in_a_worker_process(self):
        eng = _spark(execution_mode="processes", max_parallel_tasks=2)
        state = self._state(eng, 8)
        with pytest.raises(EmmaError, match="preserve"):
            state.update(_move_key)
        assert eng.metrics.parallel_tasks > 0

    def test_partition_tasks_are_charged_in_partition_order(
        self, monkeypatch
    ):
        eng = _spark(fault_plan=FaultPlan())
        state = self._state(eng, 10)
        seen = []
        monkeypatch.setattr(
            eng.faults,
            "on_task",
            lambda _engine, _job, i, worker, seconds: seen.append(
                (i, worker, seconds)
            ),
        )
        state.update(lambda s: None)
        sizes = [len(p) for p in state._partitions]
        assert seen == [
            (i, i % 4, eng.cost.cpu_seconds(n)) for i, n in enumerate(sizes)
        ]

    def test_custom_key_without_key_or_id_attribute(self):
        cities = DataBag([City(f"c{i}", i) for i in range(10)])
        expected = grow_cities.run(LocalEngine(), cities=cities).fetch()
        got = grow_cities.run(_spark(), cities=cities).fetch()
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_custom_key_claims_its_own_partitioning(self):
        xs = DataBag([Tagged(i, (3 * i + 1) % 20) for i in range(40)])
        ys = DataBag([Tagged(-i, i) for i in range(20)])
        expected = join_on_other_field.run(LocalEngine(), xs=xs, ys=ys)
        eng = _spark()
        eng.broadcast_join_threshold = 0  # a repartition join
        got = join_on_other_field.run(eng, xs=xs, ys=ys)
        assert len(expected) == 40
        assert sorted(got) == sorted(expected)

    def test_alignment_is_judged_on_the_routing_key(self):
        eng = _spark()
        state = self._state(eng, 40)
        n = eng.cluster.parallelism
        # Routed by ``key`` but placed by ``id``: every message moves.
        messages = [Addressed(i, (i + 7) % 40, 1) for i in range(40)]
        parts = [[] for _ in range(n)]
        for m in messages:
            parts[hash_partition_index(m.id, n)].append(m)
        by_id = ScalarFn(("_s",), Attr(Ref("_s"), "id"))
        delta = state.update_with_messages(
            PartitionedBag(parts, Partitioner(by_id, n)),
            lambda s, m: replace(s, value=s.value + m.value),
        )
        assert len(eng.collect(delta)) == 40
        assert eng.metrics.shuffles_elided == 0
        assert eng.metrics.shuffle_bytes > 0

    def test_aligned_messages_do_not_shuffle(self):
        eng = _spark()
        state = self._state(eng, 20)
        # Messages taken from the state's own snapshot are aligned.
        snapshot = state.bag()
        before = eng.metrics.shuffle_bytes
        state.update_with_messages(
            snapshot, lambda s, m: replace(s, value=s.value + 1)
        )
        assert eng.metrics.shuffle_bytes == before


class TestEngineDifferences:
    def test_flink_broadcast_costs_more(self):
        from repro.comprehension.exprs import FoldCall

        body = FoldCall(Ref("lookup"), AlgebraSpec("max"))
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("+", Ref("x"), body)),
            input=CBagRef(name="xs"),
        )
        env = {
            "xs": DataBag([1, 2, 3]),
            "lookup": DataBag(list(range(100))),
        }
        spark, flink = _spark(), _flink()
        DataBag(spark.collect(spark.defer(plan, dict(env))))
        DataBag(flink.collect(flink.defer(plan, dict(env))))
        assert (
            flink.metrics.broadcast_bytes
            > 3 * spark.metrics.broadcast_bytes
        )

    def test_spark_charges_task_scheduling_on_the_driver(self):
        assert SparkLikeEngine.task_overhead > FlinkLikeEngine.task_overhead
