"""Unit tests for the host-parallel partition-task scheduler.

Covers the scheduler's two modes, the flat fan-out of mixed task
lists, deterministic by-position merging under out-of-order
completion, speculative straggler re-execution, the source-shipping
pickle layer (one ``Udf`` value), the EngineError-not-PicklingError
doorway, the end-to-end serial fallback, the ``stable_hash`` coverage
partitioning relies on and the ``content_digest`` the worker-side memo
fingerprints rely on.
"""

import pickle
import threading
import time

import pytest

from repro.comprehension.exprs import BinOp, Compare, Const, Ref
from repro.core.databag import DataBag
from repro.engines.chainkernel import FILTER, MAP, KernelStep, Udf
from repro.engines.cluster import ClusterConfig, content_digest, stable_hash
from repro.engines.metrics import Metrics
from repro.engines.scheduler import (
    BroadcastProbeSpec,
    BroadcastSemiSpec,
    KernelSpec,
    PartitionTask,
    TaskScheduler,
    TaskSpec,
    ship_task,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError
from repro.lowering.combinators import CBagRef, CMap, ScalarFn


def inc_step() -> KernelStep:
    """A chain step computing ``x + 1``."""
    return KernelStep(MAP, Udf(("x",), BinOp("+", Ref("x"), Const(1))))


def big_step() -> KernelStep:
    """A chain step keeping ``x > 10``."""
    return KernelStep(
        FILTER, Udf(("x",), Compare(">", Ref("x"), Const(10)))
    )


class EchoSpec(TaskSpec):
    """Test spec whose task doubles its data."""

    kind = "echo"

    def build(self):
        """No artifact needed."""
        return None

    def run(self, _prepared, data):
        return data * 2


class SleepSpec(TaskSpec):
    """Test spec whose task sleeps ``data[0]`` s, then returns ``data[1]``."""

    kind = "sleep"

    def build(self):
        """No artifact needed."""
        return None

    def run(self, _prepared, data):
        time.sleep(data[0])
        return data[1]


class TestSchedulerModes:
    def test_invalid_mode_raises(self):
        with pytest.raises(EngineError, match="execution mode"):
            TaskScheduler(mode="gpu")

    def test_invalid_engine_mode_raises(self):
        with pytest.raises(EngineError, match="execution_mode"):
            SparkLikeEngine(execution_mode="gpu")

    def test_configure_execution_rebuilds_scheduler(self):
        # Name the mode explicitly: the suite may run under a
        # REPRO_EXECUTION_MODE override (the parallel-backend CI job).
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2), execution_mode="serial"
        )
        assert engine.scheduler.mode == "serial"
        engine.configure_execution("processes", max_parallel_tasks=3)
        scheduler = engine.scheduler
        assert scheduler.mode == "processes" and scheduler.width == 3
        engine.configure_execution("serial")
        assert engine.scheduler is not scheduler

    @pytest.mark.parametrize("mode", ["serial", "processes"])
    def test_run_stage_merges_by_task_index(self, mode):
        scheduler = TaskScheduler(mode=mode, max_parallel_tasks=2)
        spec = EchoSpec()
        tasks = [
            PartitionTask(i, spec, [i, i + 1]) for i in range(6)
        ]
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == [[i, i + 1] * 2 for i in range(6)]
        assert metrics.serial_fallbacks == 0

    def test_out_of_order_completion_keeps_order(self):
        # Later tasks finish first; the merge must stay positional.
        scheduler = TaskScheduler(
            mode="processes", max_parallel_tasks=2, speculation=False
        )
        spec = SleepSpec()
        delays = [0.3, 0.0, 0.0, 0.0]
        tasks = [
            PartitionTask(i, spec, (d, i))
            for i, d in enumerate(delays)
        ]
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == [0, 1, 2, 3]
        assert metrics.serial_fallbacks == 0


class TestMixedFanOut:
    @pytest.mark.parametrize("mode", ["serial", "processes"])
    def test_two_task_lists_keep_order(self, mode):
        # The repartition join's shape: left tasks then right tasks go
        # down as one list and come back split by position.
        left = [
            PartitionTask(i, EchoSpec(), [i], "bucket-left")
            for i in range(3)
        ]
        right = [
            PartitionTask(i, KernelSpec([inc_step()]), [10 * i], "bucket-right")
            for i in range(2)
        ]
        scheduler = TaskScheduler(mode=mode, max_parallel_tasks=2)
        metrics = Metrics()
        out = scheduler.run_stage(left + right, metrics=metrics)
        assert out[: len(left)] == [[0, 0], [1, 1], [2, 2]]
        assert out[len(left) :] == [([1], ()), ([11], ())]
        assert metrics.serial_fallbacks == 0
        assert metrics.parallel_stages == (0 if mode == "serial" else 1)


class TestSpeculation:
    def test_straggler_is_relaunched(self):
        scheduler = TaskScheduler(
            mode="processes",
            max_parallel_tasks=2,
            speculation=True,
            speculation_quantile=0.5,
            speculation_factor=1.0,
            min_speculation_seconds=0.05,
        )
        spec = SleepSpec()
        # Start the pool's workers first: a worker's spawn time would
        # otherwise count into the durations the threshold is set from.
        scheduler.run_stage(
            [PartitionTask(i, spec, (0.0, i)) for i in range(2)]
        )
        delays = [0.0, 0.0, 0.0, 0.6]
        tasks = [
            PartitionTask(i, spec, (d, i))
            for i, d in enumerate(delays)
        ]
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == [0, 1, 2, 3]
        assert metrics.serial_fallbacks == 0
        assert metrics.speculative_launches >= 1
        assert any(
            name == "speculative-launch"
            for name, _attrs in scheduler.events
        )


class TestKernelShipping:
    def test_compiled_udf_pickle_round_trip(self, monkeypatch):
        calls = []
        compile_native = ScalarFn.compile_native

        def counting(fn, env):
            calls.append(fn)
            return compile_native(fn, env)

        monkeypatch.setattr(ScalarFn, "compile_native", counting)
        udf = Udf(
            ("x",), BinOp("+", Ref("x"), Ref("k")), {"k": 5}, extra=2
        )
        assert udf.closure(1) == 6 and udf.native
        # Only IR and bindings travel (a code object would not pickle
        # at all); the clone arrives without a closure.
        clone = pickle.loads(pickle.dumps(KernelStep(MAP, udf))).udf
        assert "_compiled" not in vars(clone)
        assert clone.closure(1) == 6 and clone.closure is clone.closure
        assert clone.extra == udf.extra == 2
        assert clone.digest() == udf.digest() is not None
        # One compilation per value per process, however often it is
        # asked for its closure.
        assert len(calls) == 2

    def test_kernel_spec_fingerprint_is_content_based(self):
        a = KernelSpec([inc_step(), big_step()])
        b = KernelSpec([inc_step(), big_step()])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint[0] == "kernel"

    def test_processes_mode_matches_serial(self):
        spec = KernelSpec([inc_step(), big_step()])
        partitions = [list(range(0, 15)), list(range(15, 25)), []]
        tasks = [
            PartitionTask(i, spec, p) for i, p in enumerate(partitions)
        ]
        serial = TaskScheduler(mode="serial").run_stage(tasks)
        metrics = Metrics()
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == serial
        assert metrics.serial_fallbacks == 0
        assert metrics.parallel_tasks == len(tasks)
        assert metrics.ipc_bytes_shipped > 0
        assert metrics.ipc_bytes_returned > 0


class TestUnpicklableWork:
    def test_ship_task_raises_engine_error(self):
        spec = KernelSpec([inc_step()])
        with pytest.raises(EngineError, match="process boundary"):
            ship_task(spec, [threading.Lock()], "map")

    def test_executor_falls_back_to_serial(self):
        # Partition data that cannot be pickled (thread locks) must
        # degrade to in-process execution, not crash the job.
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2),
            execution_mode="processes",
            max_parallel_tasks=2,
        )
        records = [threading.Lock() for _ in range(4)]
        plan = CMap(
            fn=ScalarFn(("x",), Ref("x")), input=CBagRef(name="xs")
        )
        out = engine.collect(
            engine.defer(plan, {"xs": DataBag(records)})
        )
        assert sorted(map(id, out)) == sorted(map(id, records))
        assert engine.metrics.serial_fallbacks >= 1


class TestStableHashCoverage:
    def test_dict_hash_ignores_insertion_order(self):
        a = {"x": 1, "y": (2, 3)}
        b = {"y": (2, 3), "x": 1}
        assert stable_hash(a) == stable_hash(b)

    def test_dict_and_set_hash_apart(self):
        assert stable_hash({}) != stable_hash(set())
        assert stable_hash({1: 2}) != stable_hash({(1, 2)})

    def test_set_and_frozenset_are_order_independent(self):
        assert stable_hash({3, 1, 2}) == stable_hash(frozenset([2, 3, 1]))

    def test_nested_dicts_in_records(self):
        assert stable_hash(({"a": 1},)) == stable_hash(({"a": 1},))
        assert stable_hash(({"a": 1},)) != stable_hash(({"a": 2},))

    def test_unhashable_object_raises(self):
        with pytest.raises(EngineError, match="stable partition hash"):
            stable_hash(object())


class TestContentDigest:
    """What names *content* — the worker memo's key — must not collide
    where the 32-bit partition hash does."""

    def test_the_partition_hash_collides_and_the_digest_does_not(self):
        sets = [set(), {0}, {0, 1, 2, 3}]
        assert len({stable_hash(s) for s in sets}) == 1
        assert len({content_digest(s) for s in sets}) == 3

    def test_broadcast_semi_specs_with_different_key_sets_differ(self):
        kx = Udf(("x",), Ref("x"))
        stale = BroadcastSemiSpec(set(), kx, anti=False)
        fresh = BroadcastSemiSpec({0}, kx, anti=False)
        assert stale.fingerprint != fresh.fingerprint
        assert (
            fresh.fingerprint
            == BroadcastSemiSpec({0}, kx, anti=False).fingerprint
        )

    def test_broadcast_probe_specs_hash_their_records_as_content(self):
        k = Udf(("x",), Ref("x"))
        a = BroadcastProbeSpec([0, 4294967296], k, k, small_first=True)
        b = BroadcastProbeSpec([4294967296, 0], k, k, small_first=True)
        assert a.fingerprint != b.fingerprint

    def test_binding_digests_tell_bags_apart(self):
        def udf(values):
            return Udf(("x",), Ref("ys"), {"ys": DataBag(values)})

        assert udf([{0}]).digest() != udf([set()]).digest()
        assert udf([1, 2]).digest() == udf([1, 2]).digest()

    def test_unordered_containers_ignore_order(self):
        assert content_digest({3, 1, 2}) == content_digest(frozenset([2, 3, 1]))
        assert content_digest({"x": 1, "y": 2}) == content_digest(
            {"y": 2, "x": 1}
        )

    def test_types_and_framing_tell_values_apart(self):
        values = [1, True, 1.0, "1", b"1", (1,), [1], {1}, {1: 1}, None]
        assert len({content_digest(v) for v in values}) == len(values)
        assert content_digest(("ab", "c")) != content_digest(("a", "bc"))
        assert content_digest(0.0) != content_digest(-0.0)

    def test_same_closed_type_set_as_the_partition_hash(self):
        with pytest.raises(EngineError, match="content digest"):
            content_digest(object())
