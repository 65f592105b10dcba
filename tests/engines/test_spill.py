"""Tests for the memory-budgeted out-of-core spill layer.

Covers the :class:`~repro.engines.spill.SpillManager` contract: the
budget is a *host* resource — evictions, reloads, external merges, and
file-backed shuffles must never change results, ``simulated_seconds``,
or fault schedules.  Only wall clock and the ``spill_*`` counters move.
"""

import pickle
import threading
from array import array
from dataclasses import dataclass

import pytest

from repro.comprehension.exprs import AlgebraSpec, Attr, Ref
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.columnar import (
    HAS_NUMPY,
    ColumnBatch,
    ColumnSchema,
    PyColumn,
    StrColumn,
    _np,
    batch_from_records,
)
from repro.engines.costmodel import CostModel
from repro.engines.metrics import Metrics
from repro.engines.scheduler import (
    KernelSpec,
    PartitionTask,
    TaskScheduler,
    ship_task,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.engines.spill import (
    CODEC_BATCH,
    CODEC_PICKLE,
    SpilledPartition,
    SpillFileRef,
    decode_payload,
    default_memory_budget,
    dump_batch,
    encode_payload,
    load_batch,
    load_payload_file,
)
from repro.errors import EngineError, SimulatedMemoryError
from repro.lowering.combinators import (
    CBagRef,
    CFold,
    CGroupBy,
    ScalarFn,
)


@dataclass(frozen=True)
class R:
    k: int
    v: int


def engine(**kwargs) -> SparkLikeEngine:
    kwargs.setdefault("cluster", ClusterConfig(num_workers=4))
    return SparkLikeEngine(**kwargs)


def sum_plan(name: str = "d") -> CFold:
    return CFold(spec=AlgebraSpec("sum"), input=CBagRef(name=name))


class TestDefaultMemoryBudget:
    def test_unset_means_unlimited(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        assert default_memory_budget() == 0

    def test_parses_byte_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", " 65536 ")
        assert default_memory_budget() == 65536

    def test_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "lots")
        with pytest.raises(EngineError, match="not an integer"):
            default_memory_budget()

    def test_rejects_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "-1")
        with pytest.raises(EngineError, match="must be >= 0"):
            default_memory_budget()

    def test_engine_rejects_negative_budget(self):
        with pytest.raises(EngineError, match="must be >= 0"):
            engine(memory_budget=-5)


class TestPayloadCodecs:
    def test_rows_round_trip_via_pickle(self):
        rows = [R(1, 2), R(3, 4)]
        codec, buf = encode_payload(rows)
        assert codec == CODEC_PICKLE
        assert decode_payload(codec, buf) == rows

    def test_batch_round_trips_typed_buffers(self):
        batch, reason = batch_from_records([R(1, 10), R(2, 20), R(3, 30)])
        assert batch is not None, reason
        codec, buf = encode_payload(batch)
        assert codec == CODEC_BATCH
        out = decode_payload(codec, buf)
        assert isinstance(out, ColumnBatch)
        assert out.schema.signature() == batch.schema.signature()
        assert out.to_records() == batch.to_records()
        # Typed dump, not a row pickle: column types survive exactly.
        for orig, back in zip(batch.columns, out.columns):
            assert type(back) is type(orig)

    def test_batch_dump_covers_every_column_kind(self):
        cols = [array("d", [1.5, 2.5]), PyColumn([{"a": 1}, None]), None]
        fields = ["f_arr", "f_py", "f_none"]
        if HAS_NUMPY:
            cols.append(_np.asarray([7, 8]))
            cols.append(StrColumn(_np.asarray(["ab", "cdé"])))
            fields += ["f_np", "f_str"]
        schema = ColumnSchema("tuple", tuple(fields))
        batch = ColumnBatch(schema, tuple(cols), 2)
        out = load_batch(dump_batch(batch))
        assert out.nrows == 2
        for orig, back in zip(batch.columns, out.columns):
            assert type(back) is type(orig)
            if orig is not None:
                assert back.tolist() == orig.tolist()

    def test_plain_object_column_falls_back_to_pickle(self):
        # A bare list column has no typed buffer: it must still survive.
        schema = ColumnSchema("scalar", ("_0",))
        batch = ColumnBatch(schema, ([1, "two", 3.0],), 3)
        out = load_batch(dump_batch(batch))
        assert list(out.columns[0]) == [1, "two", 3.0]


class TestSpilledPartitionSentinel:
    def test_len_is_cheap_and_correct(self):
        assert len(SpilledPartition(42, 336)) == 42

    def test_reads_fail_loudly(self):
        part = SpilledPartition(3, 24)
        with pytest.raises(EngineError, match="spilled partition"):
            list(part)
        with pytest.raises(EngineError, match="spilled partition"):
            part[0]


class TestCacheSpillRoundTrip:
    def _cached_sum(self, budget):
        eng = engine(memory_budget=budget)
        handle = eng.cache(DataBag(list(range(400))))
        total = eng.run_scalar(sum_plan(), {"d": handle})
        return eng, handle, total

    def test_spill_and_reload_preserve_results_and_time(self):
        base_eng, _, base_total = self._cached_sum(0)
        eng, handle, total = self._cached_sum(1024)
        assert total == base_total == sum(range(400))
        m = eng.metrics
        assert m.partitions_spilled > 0
        assert m.partitions_reloaded > 0
        assert m.spill_bytes_written > 0
        assert m.spill_bytes_read > 0
        # The invariant: spilling is invisible to the simulation.
        assert m.simulated_seconds == base_eng.metrics.simulated_seconds

    def test_eviction_is_deterministic(self):
        runs = [self._cached_sum(1024)[0].metrics for _ in range(2)]
        for field in (
            "partitions_spilled",
            "partitions_reloaded",
            "spill_bytes_written",
            "spill_bytes_read",
            "budget_evictions",
        ):
            assert getattr(runs[0], field) == getattr(runs[1], field)

    def test_sentinels_never_escape_cache_reads(self):
        eng, handle, _ = self._cached_sum(1024)
        # The job boundary re-evicted the handle; a fresh read must
        # reload every spilled partition before the operators see the
        # bag (a sentinel reaching an operator raises EngineError).
        reloaded = eng.metrics.partitions_reloaded
        assert eng.run_scalar(sum_plan(), {"d": handle}) == sum(
            range(400)
        )
        assert eng.metrics.partitions_reloaded > reloaded
        # And after the job the budget is enforced again: the handle
        # is back out of memory rather than silently resident.
        assert any(
            isinstance(p, SpilledPartition)
            for p in handle.bag.partitions
        )

    def test_unlimited_budget_never_spills(self):
        eng, _, _ = self._cached_sum(0)
        assert eng.metrics.partitions_spilled == 0
        assert eng.metrics.budget_evictions == 0
        assert eng.dfs.spill_file_count() == 0

    def test_spill_files_live_on_the_spill_tier(self):
        eng, handle, _ = self._cached_sum(1024)
        assert eng.dfs.spill_file_count() > 0

    def test_mid_run_budget_squeeze_engages_instantly(self):
        eng = engine(memory_budget=0)
        handle = eng.cache(DataBag(list(range(400))))
        assert eng.metrics.partitions_spilled == 0
        eng.configure_memory(512)  # the MEMORY_SQUEEZE path
        assert eng.metrics.partitions_spilled > 0
        assert eng.run_scalar(sum_plan(), {"d": handle}) == sum(
            range(400)
        )

    def test_exclusive_list_ownership_on_shared_bags(self):
        # Caching the same records twice must not let one handle's
        # eviction plant sentinels in the other's partition lists.
        eng = engine(memory_budget=0)
        h1 = eng.cache(DataBag(list(range(200))))
        assert eng.spill.tracks_any(h1.bag)
        h2 = eng.cache(DataBag(h1.bag.partitions[0]))
        assert h2.bag.partitions[0] is not h1.bag.partitions[0]


class TestExternalGroupMerge:
    def _grouping(self, budget, n=400):
        eng = engine(
            cost=CostModel(memory_per_worker=1024),
            memory_budget=budget,
        )
        plan = CGroupBy(
            key=ScalarFn(("x",), Attr(Ref("x"), "k")),
            input=CBagRef(name="xs"),
        )
        env = {"xs": DataBag([R(i % 5, i) for i in range(n)])}
        return eng, eng.collect(eng.defer(plan, env))

    def test_without_budget_the_hard_error_survives(self):
        with pytest.raises(SimulatedMemoryError) as info:
            self._grouping(0)
        err = info.value
        assert err.operator == "group_by"
        assert "group_by" in str(err)
        site = err.failure_site()
        assert "worker" in site and "partition" in site
        assert isinstance(err.metrics, Metrics)

    def test_budget_degrades_to_external_merge(self):
        eng, groups = self._grouping(1 << 20)
        by_key = {g.key: sorted(x.v for x in g.values) for g in groups}
        assert by_key == {
            k: [i for i in range(400) if i % 5 == k] for k in range(5)
        }
        m = eng.metrics
        assert m.external_merge_passes > 0
        assert m.spill_bytes_written > 0
        assert m.spill_bytes_read > 0

    def test_external_merge_charges_disk_not_memory(self):
        # The diverted partitions pay a sort+disk cost instead of
        # raising — simulated time must reflect that and stay
        # deterministic across runs.
        times = {self._grouping(1 << 20)[0].metrics.simulated_seconds
                 for _ in range(2)}
        assert len(times) == 1

    def test_fits_in_memory_never_merges_externally(self):
        eng = engine(memory_budget=1 << 20)
        plan = CGroupBy(
            key=ScalarFn(("x",), Attr(Ref("x"), "k")),
            input=CBagRef(name="xs"),
        )
        env = {"xs": DataBag([R(i % 3, i) for i in range(30)])}
        eng.collect(eng.defer(plan, env))
        assert eng.metrics.external_merge_passes == 0


def ship(eng, data):
    """``ship_task`` for one identity-chain task under ``eng``'s spill."""
    task = PartitionTask(0, KernelSpec([]), data, "t")
    return ship_task(task, {}, eng.spill)


#: a partition whose encoding reaches ``shuffle_file_min_bytes``
LARGE = [("pad%06d" % i * 8, i) for i in range(1000)]


class TestFileBackedShuffle:
    def test_small_payloads_ship_inline(self):
        eng = engine(memory_budget=1 << 20)
        data = list(range(10))
        _, shipped = ship(eng, data)
        assert shipped == encode_payload(data)
        assert eng.dfs.spill_file_count() == 0

    def test_large_payloads_ship_as_refs(self):
        eng = engine(memory_budget=1 << 20)
        _, ref = ship(eng, LARGE)
        assert isinstance(ref, SpillFileRef)
        assert ref.codec == CODEC_PICKLE
        assert ref.nbytes >= eng.spill.shuffle_file_min_bytes
        # Only the tiny ref crosses the pipe.
        assert len(pickle.dumps(ref)) < 1024
        assert load_payload_file(ref) == LARGE
        eng.spill.count_ref(ref)
        assert eng.metrics.spill_bytes_written == ref.nbytes
        assert eng.metrics.spill_bytes_read == ref.nbytes
        eng.spill.delete_ref(ref)
        assert eng.dfs.spill_file_count() == 0

    def test_refs_are_deleted_after_the_fan_out(self):
        eng = engine(memory_budget=1 << 20)
        tasks = [PartitionTask(i, KernelSpec([]), LARGE) for i in range(3)]
        scheduler = TaskScheduler("processes", 2, spill=eng.spill)
        metrics = Metrics()
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == TaskScheduler("serial").run_stage(tasks)
        assert metrics.serial_fallbacks == 0
        assert eng.metrics.spill_bytes_written > 0
        assert eng.dfs.spill_file_count() == 0

    def test_a_fan_out_that_falls_back_leaves_no_ref(self):
        # The refs written for the first two tasks are deleted and
        # never counted: the third cannot be shipped.
        eng = engine(memory_budget=1 << 20)
        tasks = [PartitionTask(i, KernelSpec([]), LARGE) for i in range(2)]
        tasks.append(PartitionTask(2, KernelSpec([]), [threading.Lock()]))
        scheduler = TaskScheduler("processes", 2, spill=eng.spill)
        metrics = Metrics()
        scheduler.run_stage(tasks, metrics=metrics)
        assert metrics.serial_fallbacks == 1
        assert eng.metrics.spill_bytes_written == 0
        assert eng.dfs.spill_file_count() == 0

    def test_vanished_file_raises_engine_error(self):
        eng = engine(memory_budget=1 << 20)
        _, ref = ship(eng, LARGE)
        eng.spill.delete_ref(ref)
        with pytest.raises(EngineError, match="vanished"):
            load_payload_file(ref)


class TestSpillMetricsSurface:
    def test_summary_is_quiet_without_spills(self):
        eng = engine(memory_budget=0)
        eng.cache(DataBag([1, 2, 3]))
        assert "spill" not in eng.metrics.summary()

    def test_summary_reports_spill_counters(self):
        eng = engine(memory_budget=1024)
        handle = eng.cache(DataBag(list(range(400))))
        eng.run_scalar(sum_plan(), {"d": handle})
        s = eng.metrics.summary()
        assert "spill_w=" in s and "spill_r=" in s
        assert "ext_merges=" in s and "evictions=" in s

    def test_spill_events_attach_to_trace(self):
        eng = engine(memory_budget=1024)
        tracer = eng.enable_tracing()
        handle = eng.cache(DataBag(list(range(400))))
        eng.run_scalar(sum_plan(), {"d": handle})
        events = [e for s in tracer.spans() for e in s.events]
        evicts = [e for e in events if e.name == "spill:evict"]
        reloads = [e for e in events if e.name == "spill:reload"]
        assert evicts and evicts[0].attrs["kind"] == "cache-partition"
        assert reloads and "bytes" in reloads[0].attrs

    def test_squeeze_event_attaches_to_trace(self):
        from repro.engines.faults import FaultEvent, MEMORY_SQUEEZE, FaultPlan

        eng = engine(
            fault_plan=FaultPlan(
                events=(FaultEvent(MEMORY_SQUEEZE, task=1, budget=2048),)
            )
        )
        tracer = eng.enable_tracing()
        handle = eng.cache(DataBag(list(range(400))))
        eng.run_scalar(sum_plan(), {"d": handle})
        events = [e for s in tracer.spans() for e in s.events]
        squeezes = [
            e for e in events if e.name == "fault:memory_squeeze"
        ]
        assert squeezes and squeezes[0].attrs["budget"] == 2048
        assert eng.spill.limit == 2048

    def test_explain_mentions_the_budget(self):
        from repro.api import parallelize
        from repro.optimizer.pipeline import EmmaConfig

        @parallelize
        def doubles(xs):
            return [x * 2 for x in xs]

        text = doubles.explain(
            config=EmmaConfig(memory_budget=4096)
        )
        assert "budget=4096B" in text
        assert "spill=lru-to-disk" in text
