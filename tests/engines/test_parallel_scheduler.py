"""Unit tests for the partition-task scheduler.

Covers the scheduler's two modes and their width validation, the flat
fan-out of mixed task lists, deterministic by-position merging under
out-of-order completion, shipping each task (and pickling each spec)
exactly once, counters that repeat run to run, recovery from a dead
pool worker, the source-shipping pickle layer (one ``Udf`` value), the
worker memo keyed on a spec's pickle bytes and its bound, the
EngineError-not-PicklingError doorway and the serial fallback that
runs nothing in the pool, the ``stable_hash`` coverage partitioning
relies on and the ``content_digest`` the plan and snapshot
fingerprints rely on.
"""

import hashlib
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from repro.comprehension.exprs import BinOp, Compare, Const, Ref
from repro.core.databag import DataBag
from repro.engines import scheduler as scheduler_module
from repro.engines.chainkernel import FILTER, MAP, KernelStep, Udf
from repro.engines.cluster import ClusterConfig, content_digest, stable_hash
from repro.engines.dfs import SimulatedDFS
from repro.engines.metrics import Metrics
from repro.engines.scheduler import (
    BroadcastProbeSpec,
    BroadcastSemiSpec,
    KernelSpec,
    PartitionTask,
    TaskScheduler,
    TaskSpec,
    default_max_parallel_tasks,
    ship_task,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError
from repro.lowering.combinators import CBagRef, CMap, ScalarFn
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.graphs import stage_follower_graph
from repro.workloads.pagerank import pagerank


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


class TaggedSpec(EchoSpec):
    """Echo spec whose ``tag`` gives each instance its own pickle."""

    kind = "tagged"

    def __init__(self, tag):
        super().__init__()
        self.tag = tag


class MemoSizeSpec(EchoSpec):
    """Test spec whose task reports its process's worker-memo size."""

    kind = "memo-size"

    def run(self, _prepared, data):
        return len(scheduler_module._WORKER_MEMO)


class MemoKeysSpec(EchoSpec):
    """Test spec whose task reports its worker process and the keys of
    that process's worker memo."""

    kind = "memo-keys"

    def run(self, _prepared, data):
        return os.getpid(), frozenset(scheduler_module._WORKER_MEMO)


def memo_key(spec):
    """The worker-memo key a spec ships under."""
    return hashlib.sha256(
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


class PickleCountingSpec(EchoSpec):
    """Echo spec that counts how often it is pickled."""

    kind = "pickle-counting"
    pickled = 0

    def __getstate__(self):
        PickleCountingSpec.pickled += 1
        return super().__getstate__()


class ExitInWorkerSpec(TaskSpec):
    """Test spec whose task kills any process but the driver, whose
    pid is its data; in the driver it returns that pid."""

    kind = "exit-in-worker"

    def build(self):
        """No artifact needed."""
        return None

    def run(self, _prepared, data):
        if os.getpid() != data:
            os._exit(1)
        return data


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

    def test_negative_width_from_a_config_raises(self):
        engine = SparkLikeEngine(execution_mode="serial")
        with pytest.raises(EngineError, match="max_parallel_tasks"):
            engine.apply_runtime_config(EmmaConfig(max_parallel_tasks=-1))
        with pytest.raises(EngineError, match="max_parallel_tasks"):
            SparkLikeEngine(max_parallel_tasks=-1)

    def test_negative_width_from_the_environment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_PARALLEL_TASKS", "-1")
        with pytest.raises(EngineError, match="REPRO_MAX_PARALLEL_TASKS"):
            default_max_parallel_tasks()
        with pytest.raises(EngineError, match="REPRO_MAX_PARALLEL_TASKS"):
            SparkLikeEngine()

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
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
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


class TestShipOnce:
    def test_a_straggler_ships_once(self):
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        spec = SleepSpec()
        # Start the pool's workers first, so the straggler is the only
        # slow task of the measured fan-out.
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
        assert metrics.parallel_tasks == len(tasks)
        specs = {}
        shipped = [ship_task(t, specs) for t in tasks]
        assert len(specs) == 1
        assert metrics.ipc_bytes_shipped == sum(
            len(spec_bytes) + len(data_bytes)
            for spec_bytes, data_bytes in shipped
        )

    def test_each_spec_pickles_once_per_fan_out(self):
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        specs = [PickleCountingSpec(), PickleCountingSpec()]
        tasks = [PartitionTask(i, specs[i % 2], [i]) for i in range(6)]
        PickleCountingSpec.pickled = 0
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == [[i, i] for i in range(6)]
        assert metrics.serial_fallbacks == 0
        assert PickleCountingSpec.pickled == len(specs)

    def test_pagerank_counters_repeat(self):
        dfs = SimulatedDFS()
        graph = stage_follower_graph(dfs, num_vertices=120, seed=5)

        def counters():
            engine = SparkLikeEngine(
                cluster=ClusterConfig(num_workers=4),
                dfs=dfs,
                execution_mode="processes",
                max_parallel_tasks=2,
            )
            pagerank.run(
                engine, graph_path=graph, num_pages=120, max_iterations=3
            )
            m = engine.metrics
            assert m.serial_fallbacks == 0
            return (
                m.ipc_bytes_shipped,
                m.ipc_bytes_returned,
                m.parallel_tasks,
                m.parallel_stages,
            )

        first = counters()
        assert first[2] > 0
        assert counters() == first

    def test_pagerank_warm_runs_rebuild_nothing(self, monkeypatch):
        # Every run ships byte-identical specs, so once each worker of
        # a fresh processes x 2 pool has built each of them — after the
        # first run, unless the pool handed all of some spec's tasks to
        # one worker — a run rebuilds nothing.
        scheduler_module._shutdown_pool()
        shipped = []
        ship = scheduler_module.ship_task

        def recording(task, specs):
            payload = ship(task, specs)
            shipped[-1].add(payload[0])
            return payload

        monkeypatch.setattr(scheduler_module, "ship_task", recording)
        dfs = SimulatedDFS()
        graph = stage_follower_graph(dfs, num_vertices=120, seed=5)

        def run():
            shipped.append(set())
            engine = SparkLikeEngine(
                cluster=ClusterConfig(num_workers=4),
                dfs=dfs,
                execution_mode="processes",
                max_parallel_tasks=2,
            )
            pagerank.run(
                engine, graph_path=graph, num_pages=120, max_iterations=3
            )
            assert engine.metrics.serial_fallbacks == 0
            return engine.metrics.kernels_rehydrated

        built = [run()]
        while sum(built) < 2 * len(shipped[0]) and len(built) < 8:
            built.append(run())
        assert sum(built) == 2 * len(shipped[0])
        assert [run(), run()] == [0, 0]
        assert all(specs == shipped[0] for specs in shipped)


class TestBrokenPool:
    @pytest.fixture(autouse=True)
    def drop_pool_after(self):
        """End on a fresh shared pool, so a broken one never reaches
        another processes-mode test."""
        yield
        scheduler_module._shutdown_pool()

    def test_a_dead_worker_costs_one_fallback(self):
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        metrics = Metrics()
        pid = os.getpid()
        out = scheduler.run_stage(
            [PartitionTask(0, ExitInWorkerSpec(), pid)], metrics=metrics
        )
        assert out == [pid]
        assert metrics.serial_fallbacks == 1
        after = Metrics()
        out = scheduler.run_stage(
            [PartitionTask(i, EchoSpec(), [i]) for i in range(3)],
            metrics=after,
        )
        assert out == [[0, 0], [1, 1], [2, 2]]
        assert after.serial_fallbacks == 0
        assert after.parallel_tasks > 0


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
        # The clone pickles to the original's bytes: a round trip keeps
        # the worker-memo key.
        assert pickle.dumps(clone) == pickle.dumps(udf)
        # One compilation per value per process, however often it is
        # asked for its closure.
        assert len(calls) == 2

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
        task = PartitionTask(0, KernelSpec([inc_step()]), [threading.Lock()])
        with pytest.raises(EngineError, match="process boundary"):
            ship_task(task, {})

    def test_a_partly_unpicklable_fan_out_runs_nothing_in_the_pool(self):
        # The last partition cannot be pickled: the fan-out falls back
        # before the first submit, so no task ran in the pool or was
        # counted as shipped.
        spec = EchoSpec()
        tasks = [PartitionTask(i, spec, [i]) for i in range(2)]
        tasks.append(PartitionTask(2, spec, [threading.Lock()]))
        metrics = Metrics()
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == TaskScheduler(mode="serial").run_stage(tasks)
        assert metrics.serial_fallbacks == 1
        assert metrics.parallel_tasks == 0
        assert metrics.parallel_stages == 0
        assert metrics.ipc_bytes_shipped == 0

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


def warm_pool(scheduler, make_tasks, timeout=60.0):
    """Fan out fresh, equal tasks until every worker process of the
    shared pool holds each of their specs; return the rebuild count of
    each fan-out.

    Each fan-out ships new spec objects with the same content, as each
    job of a loop does.  A rebuild count alone cannot tell when the pool
    is warm: a worker may hold a spec from an earlier test, and one that
    is still starting takes no task for many fan-outs.  So after each
    fan-out, probe tasks ask the workers they reach which memo keys they
    hold, until every started worker has answered with all of them.
    """
    keys = {memo_key(task.spec) for task in make_tasks()}
    probes = [
        PartitionTask(i, MemoKeysSpec(), None)
        for i in range(2 * scheduler.width)
    ]
    warm: set[int] = set()
    rebuilds = []
    deadline = time.monotonic() + timeout
    while True:
        metrics = Metrics()
        scheduler.run_stage(make_tasks(), metrics=metrics)
        assert metrics.serial_fallbacks == 0
        rebuilds.append(metrics.kernels_rehydrated)
        warm |= {
            pid
            for pid, held in scheduler.run_stage(probes)
            if keys <= held
        }
        # The first fan-out has started the pool, so its workers exist.
        if warm >= set(scheduler_module._POOL._processes):
            return rebuilds
        assert time.monotonic() < deadline, (
            f"pool not warm after {len(rebuilds)} fan-outs"
        )


class TestWorkerMemo:
    """The worker memo keys on a spec's pickle bytes: equal content
    builds once per worker process, different content never meets a
    stale artifact, whatever the pool has already seen."""

    def test_equal_kernel_specs_rebuild_once_per_worker(self):
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        # A binding no content digest could name: the spec pickles all
        # the same.
        k = {"k": Fraction(1, 3)}
        third = KernelStep(MAP, Udf(("x",), BinOp("*", Ref("x"), Ref("k")), k))

        def make_tasks():
            plain = KernelSpec([inc_step(), big_step()])
            scaled = KernelSpec([third, big_step()])
            return [
                PartitionTask(i, spec, list(range(8 * i, 8 * i + 40)))
                for i in range(4)
                for spec in (plain, scaled)
            ]

        rebuilds = warm_pool(scheduler, make_tasks)
        assert sum(rebuilds) <= 2 * scheduler_module._POOL_WIDTH
        tasks = make_tasks()
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == TaskScheduler(mode="serial").run_stage(tasks)
        assert metrics.kernels_rehydrated == 0

    @staticmethod
    def _differs_after_warming(make_spec, warm, fresh, data):
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        warm_pool(
            scheduler,
            lambda: [
                PartitionTask(i, make_spec(warm), data) for i in range(4)
            ],
        )
        tasks = [PartitionTask(i, make_spec(fresh), data) for i in range(4)]
        serial = TaskScheduler(mode="serial").run_stage(tasks)
        metrics = Metrics()
        assert scheduler.run_stage(tasks, metrics=metrics) == serial
        assert metrics.serial_fallbacks == 0

    def test_broadcast_semi_specs_with_different_key_sets_differ(self):
        # set(), {0} and {0, 1, 2, 3} share one 32-bit partition hash.
        kx = Udf(("x",), Ref("x"))
        self._differs_after_warming(
            lambda keys: BroadcastSemiSpec(keys, kx, anti=False),
            set(),
            {0},
            [0, 1, 2],
        )

    def test_broadcast_probe_specs_with_reordered_records_differ(self):
        # Both records share one key, so the table's order shows.
        k = Udf(("x",), BinOp("%", Ref("x"), Const(2**32)))
        self._differs_after_warming(
            lambda records: BroadcastProbeSpec(
                records, k, k, small_first=True
            ),
            [0, 2**32],
            [2**32, 0],
            [0, 5],
        )

    def test_bag_bindings_with_different_content_differ(self):
        def make_spec(values):
            member = Udf(
                ("x",),
                Compare("in", Ref("x"), Ref("ys")),
                {"ys": DataBag(values)},
            )
            return KernelSpec([KernelStep(FILTER, member)])

        self._differs_after_warming(
            make_spec,
            [0],
            [2**32],
            [0, 2**32, 5],
        )


class TestWorkerMemoBound:
    def test_a_worker_keeps_at_most_the_bound(self):
        # Two workers and more than twice the bound of distinct specs:
        # at least one worker builds more specs than it may keep.
        scheduler_module._shutdown_pool()
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        n = 2 * scheduler_module._WORKER_MEMO_BOUND + 2
        tasks = [PartitionTask(i, TaggedSpec(i), [i]) for i in range(n)]
        assert scheduler.run_stage(tasks) == [[i, i] for i in range(n)]
        assert scheduler_module._POOL_WIDTH == 2
        probes = [PartitionTask(i, MemoSizeSpec(), []) for i in range(8)]
        sizes = scheduler.run_stage(probes)
        assert 0 < max(sizes) <= scheduler_module._WORKER_MEMO_BOUND


class TestPoolStart:
    def test_every_worker_starts_with_the_pool(self):
        # A spawn pool left to itself starts a worker per submit while
        # none is idle: one one-task fan-out used to leave one process.
        scheduler_module._shutdown_pool()
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        assert scheduler.run_stage([PartitionTask(0, EchoSpec(), [1])]) == [
            [1, 1]
        ]
        assert len(scheduler_module._POOL._processes) == 2

    def test_every_worker_starts_without_launch_processes(self, monkeypatch):
        # Python 3.10's pool has no ``_launch_processes``: the workers
        # start one ``_adjust_process_count`` call each.
        scheduler_module._shutdown_pool()
        monkeypatch.delattr(ProcessPoolExecutor, "_launch_processes")
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        assert scheduler.run_stage([PartitionTask(0, EchoSpec(), [1])]) == [
            [1, 1]
        ]
        assert len(scheduler_module._POOL._processes) == 2


class TestContentDigest:
    """What names *content* — the plan and snapshot fingerprints' key —
    must not collide where the 32-bit partition hash does."""

    def test_the_partition_hash_collides_and_the_digest_does_not(self):
        sets = [set(), {0}, {0, 1, 2, 3}]
        assert len({stable_hash(s) for s in sets}) == 1
        assert len({content_digest(s) for s in sets}) == 3

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

    def test_record_digests_are_pinned(self):
        # a record encodes as (module, qualname, field values); the
        # per-class part is built once per class and must not drift
        assert content_digest(ClusterConfig(num_workers=3)) == (
            "b06dfe9e12990e6726d14fa3c0dfb3ab23efd81a380c8ee5f0cd5b6a19ee86e4"
        )

    def test_same_closed_type_set_as_the_partition_hash(self):
        with pytest.raises(EngineError, match="content digest"):
            content_digest(object())
