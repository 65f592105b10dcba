"""Memory-budgeted out-of-core execution: the driver's spill layer.

The simulated engines keep every partition of every cached bag, hoisted
shuffle input, and columnar batch resident in *host* memory.  This
module bounds that residency with a driver-wide byte budget
(``EmmaConfig(memory_budget=...)`` / ``REPRO_MEMORY_BUDGET``): when
resident bytes exceed the budget, the least-recently-used entries are
**spilled** to real temp files on the simulated DFS's spill tier
(:meth:`~repro.engines.dfs.SimulatedDFS.spill_put_bytes`) and lazily
reloaded on the next access.

The one invariant everything here is built around: **spilling is a
host-resource mechanism, invisible to the simulation**.  Evictions and
reloads charge zero simulated seconds, never advance the fault-injector
task counter, and never change results — so ``simulated_seconds``,
fault schedules, and outputs are bit-identical spill-on vs spill-off
(only wall clock and the ``spill_*`` metrics move).  Eviction order is
itself deterministic: entries are ranked by a monotone touch counter,
never by wall-clock time.

Three owner kinds are tracked, all charged through the
:mod:`repro.engines.sizes` estimators:

* ``cache`` — individual partitions of memory-tier
  :class:`~repro.engines.base.BagHandle` bags.  Eviction pickles the
  partition list to a spill file and leaves a loud
  :class:`SpilledPartition` sentinel in its slot; the next cache read
  reloads every spilled partition before the bag is handed out.
* ``hoist`` — whole bags in the per-engine loop-invariant hoist cache.
  Eviction dumps the partitions and replaces the cache value with a
  :class:`SpilledBag` stub; a hoist hit on the stub reloads it.
* ``batch`` — columnar at-rest batch-cache entries.  These are pure
  packing caches, so eviction simply drops them (rebuilt on demand).

The module also provides the **file-backed shuffle service** for the
process-pool backend: large task payloads are written once to the
spill tier and a small :class:`SpillFileRef` crosses the process
boundary instead, with IPC byte accounting counting only the ref.
Row payloads travel as pickles; :class:`~repro.engines.columnar.
ColumnBatch` payloads travel as typed buffer dumps (dtype + raw
buffer per column).
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.engines.columnar import (
    ColumnBatch,
    pack_column,
    unpack_column,
)
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import BagHandle, Engine
    from repro.engines.cluster import PartitionedBag
    from repro.engines.metrics import JobRun


def default_memory_budget() -> int:
    """The driver memory budget from ``REPRO_MEMORY_BUDGET`` (bytes).

    ``0`` (the default) disables eviction entirely: residency is still
    tracked (so a mid-run budget squeeze can engage instantly) but
    nothing ever spills, which keeps the default behaviour byte-for-
    byte identical to an engine without the spill layer.
    """
    raw = os.environ.get("REPRO_MEMORY_BUDGET", "").strip()
    if not raw:
        return 0
    try:
        budget = int(raw)
    except ValueError as exc:
        raise EngineError(
            f"REPRO_MEMORY_BUDGET={raw!r} is not an integer byte count"
        ) from exc
    if budget < 0:
        raise EngineError(
            f"REPRO_MEMORY_BUDGET={budget} must be >= 0 (0 = unlimited)"
        )
    return budget


# -- payload codecs ----------------------------------------------------------

#: codec names used in spill files and shuffle refs
CODEC_PICKLE = "pickle"
CODEC_BATCH = "batch"
#: a tuple payload mixing :class:`ColumnBatch` elements with plain
#: values — the shape of a columnar join-probe's ``(left, right)``
#: pair; each batch element takes the typed buffer dump
CODEC_BLOCKS = "blocks"


def dump_batch(batch: ColumnBatch) -> bytes:
    """Serialize a :class:`ColumnBatch` as packed typed buffers.

    Delegates to :func:`repro.engines.columnar.pack_column` — the same
    compact form batches pickle as across the process-pool boundary
    (raw buffers for numeric columns, string tuples for fixed-width
    unicode) — so spill files and shuffle blocks share one codec.
    """
    return pickle.dumps(
        (
            batch.schema,
            tuple(pack_column(c) for c in batch.columns),
            batch.nrows,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_batch(buf: bytes) -> ColumnBatch:
    """Rebuild a :class:`ColumnBatch` from :func:`dump_batch` output."""
    schema, cols, nrows = pickle.loads(buf)
    try:
        rebuilt = tuple(unpack_column(*c) for c in cols)
    except RuntimeError as exc:  # pragma: no cover - cross-host guard
        raise EngineError(str(exc)) from exc
    return ColumnBatch(schema, rebuilt, nrows)


def encode_payload(data: Any) -> tuple[str, bytes]:
    """Serialize spillable data: ``(codec, bytes)``.

    Row partitions (and any other Python value) pickle; column batches
    take the typed buffer dump; tuples containing batches (a columnar
    join pair, possibly with one row-mode side) dump each batch element
    as typed buffers and pickle the rest.
    """
    if isinstance(data, ColumnBatch):
        return CODEC_BATCH, dump_batch(data)
    if isinstance(data, tuple) and any(
        isinstance(el, ColumnBatch) for el in data
    ):
        parts = tuple(
            ("batch", dump_batch(el))
            if isinstance(el, ColumnBatch)
            else ("obj", pickle.dumps(el, protocol=pickle.HIGHEST_PROTOCOL))
            for el in data
        )
        return CODEC_BLOCKS, pickle.dumps(
            parts, protocol=pickle.HIGHEST_PROTOCOL
        )
    return CODEC_PICKLE, pickle.dumps(
        data, protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_payload(codec: str, buf: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    if codec == CODEC_BATCH:
        return load_batch(buf)
    if codec == CODEC_BLOCKS:
        return tuple(
            load_batch(raw) if tag == "batch" else pickle.loads(raw)
            for tag, raw in pickle.loads(buf)
        )
    return pickle.loads(buf)


@dataclass(frozen=True)
class SpillFileRef:
    """A pointer to one spill file, shipped in place of its contents.

    In the file-backed shuffle, a task payload above the size threshold
    is written once to the spill tier and this small ref crosses the
    process boundary instead; the worker resolves it with
    :func:`load_payload_file`.
    """

    path: str
    codec: str
    nbytes: int


def load_payload_file(ref: SpillFileRef) -> Any:
    """Worker-side resolution of a shipped :class:`SpillFileRef`.

    Reads the host file directly (workers share the host filesystem
    with the driver); raises :class:`~repro.errors.EngineError` if the
    file disappeared, which the scheduler's serial fallback absorbs.
    """
    try:
        with open(ref.path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise EngineError(
            f"shuffle spill file vanished: {ref.path!r} ({exc})"
        ) from exc
    return decode_payload(ref.codec, buf)


# -- spilled-slot placeholders ----------------------------------------------


class SpilledPartition:
    """The sentinel left in a bag slot whose partition was evicted.

    Keeps the record count (so ``PartitionedBag.count()`` stays cheap
    and correct) and the byte estimate of the records it stands for (so
    the bag's size stays known), but fails loudly on any attempt to
    read records — a spilled partition must be reloaded through the
    :class:`SpillManager` before use; touching the sentinel directly
    is always an engine bug, never silent data loss.
    """

    __slots__ = ("count", "nbytes")

    def __init__(self, count: int, nbytes: int) -> None:
        self.count = count
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.count

    def _refuse(self) -> EngineError:
        return EngineError(
            "attempted to read a spilled partition without reloading "
            "it; cached bags must be accessed through the engine's "
            "cache-read path"
        )

    def __iter__(self) -> Iterator[Any]:
        raise self._refuse()

    def __getitem__(self, index: Any) -> Any:
        raise self._refuse()

    def __repr__(self) -> str:
        return f"SpilledPartition(count={self.count})"


class SpilledBag:
    """The stub left in the hoist cache for an evicted shuffled bag.

    Holds everything needed to rebuild the entry on the next hoist hit
    — spill file path plus the original partitioner object (kept in
    memory: partitioner identity and key IR drive shuffle elision and
    must survive the round trip exactly).
    """

    __slots__ = ("path", "file_nbytes", "partitioner", "num_partitions")

    def __init__(
        self,
        path: str,
        file_nbytes: int,
        partitioner: Any,
        num_partitions: int,
    ) -> None:
        self.path = path
        self.file_nbytes = file_nbytes
        self.partitioner = partitioner
        self.num_partitions = num_partitions

    def __repr__(self) -> str:
        return (
            f"SpilledBag(partitions={self.num_partitions}, "
            f"file_bytes={self.file_nbytes})"
        )


class _Entry:
    """One tracked residency unit (a partition, hoist bag, or batch set)."""

    __slots__ = (
        "key",
        "group",
        "kind",
        "nbytes",
        "seq",
        "spilled",
        "path",
        "file_nbytes",
        "ref",
        "index",
    )

    def __init__(
        self,
        key: tuple,
        group: tuple,
        kind: str,
        nbytes: int,
        seq: int,
        ref: Any = None,
        index: int = -1,
    ) -> None:
        self.key = key
        self.group = group
        self.kind = kind
        self.nbytes = nbytes
        self.seq = seq
        self.spilled = False
        self.path: str | None = None
        self.file_nbytes = 0
        self.ref = ref
        self.index = index


class SpillManager:
    """Driver-wide memory budget with deterministic LRU spill-to-disk.

    One manager per :class:`~repro.engines.base.Engine`.  Residency is
    *always* tracked (even with ``limit == 0``) so a mid-run budget
    squeeze — the :data:`~repro.engines.faults.MEMORY_SQUEEZE` chaos
    event — can start evicting immediately; with the default unlimited
    budget nothing ever spills and the engine behaves exactly as it
    did without this layer.

    Entries in use by the current job are **pinned** (per job, cleared
    by :meth:`end_job`) so an eviction triggered mid-job can never pull
    a partition out from under an operator that already holds the bag.
    """

    #: payloads below this many serialized bytes ship inline over IPC
    #: rather than through a shuffle spill file
    shuffle_file_min_bytes = 16 * 1024

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.limit = 0
        self._entries: dict[tuple, _Entry] = {}
        self._usage = 0
        self._seq = 0
        self._uid = 0
        self._handle_uids: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        #: ids of partition lists currently tracked as resident — used
        #: to give every registered handle exclusive list ownership
        self._tracked_ids: set[int] = set()
        #: groups pinned by the current job (cleared per job)
        self._pinned: set[tuple] = set()
        #: the job whose trace clock spill events are stamped with
        self._job: "JobRun | None" = None

    # -- configuration -----------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether a finite budget is in force."""
        return self.limit > 0

    def usage(self) -> int:
        """Tracked resident bytes across all owners."""
        return self._usage

    def configure(self, limit: int) -> None:
        """Set the budget (bytes; 0 = unlimited) and evict to fit."""
        if limit < 0:
            raise EngineError(
                f"memory_budget={limit} must be >= 0 (0 = unlimited)"
            )
        self.limit = limit
        self.evict_to_budget()

    # -- job lifecycle -----------------------------------------------------

    def begin_job(self, job: "JobRun") -> None:
        """Adopt the job whose clock stamps spill trace events."""
        self._job = job

    def end_job(self) -> None:
        """Release per-job pins and enforce the budget at the boundary.

        Jobs are serial on the driver, so the job boundary is a
        deterministic point in the operation sequence — the natural
        moment to evict entries the finished job was pinning.
        """
        self._pinned.clear()
        self.evict_to_budget()
        self._job = None

    # -- shared internals --------------------------------------------------

    def _touch(self, entry: _Entry) -> None:
        self._seq += 1
        entry.seq = self._seq

    def _metrics(self) -> Any:
        return self.engine.metrics

    def _trace(self, name: str, **attrs: Any) -> None:
        tracer = self.engine.tracer
        if tracer is None:
            return
        ts = (
            self._job.trace_ts()
            if self._job is not None
            else self.engine.metrics.simulated_seconds
        )
        tracer.event(name, ts=ts, **attrs)

    def _discard(self, entry: _Entry) -> None:
        """Forget one entry (deleting its spill file if it has one)."""
        self._entries.pop(entry.key, None)
        if entry.spilled:
            if entry.path is not None:
                self.engine.dfs.spill_delete(entry.path)
        else:
            self._usage -= entry.nbytes

    def _release_group(self, group: tuple) -> None:
        """Drop every entry of one group (handle death, hoist clear)."""
        for entry in [
            e for e in self._entries.values() if e.group == group
        ]:
            if not entry.spilled and entry.kind == "cache":
                handle = entry.ref() if entry.ref is not None else None
                if handle is not None and entry.index >= 0:
                    parts = handle.bag.partitions
                    if entry.index < len(parts):
                        self._tracked_ids.discard(id(parts[entry.index]))
            self._discard(entry)

    # -- eviction ----------------------------------------------------------

    def evict_to_budget(self) -> None:
        """Spill LRU entries until usage fits the budget.

        Deterministic: candidates are ranked by the monotone touch
        counter (oldest first); pinned groups are skipped.  Runs at
        driver-side registration/reload points only — never from a
        worker, never on a wall-clock trigger — so the spill schedule
        is a pure function of the operation sequence.
        """
        if self.limit <= 0:
            return
        while self._usage > self.limit:
            victim: _Entry | None = None
            for entry in self._entries.values():
                if entry.spilled or entry.group in self._pinned:
                    continue
                if victim is None or entry.seq < victim.seq:
                    victim = entry
            if victim is None:
                return  # everything left is pinned: soft budget
            self._evict(victim)

    def _evict(self, entry: _Entry) -> None:
        metrics = self._metrics()
        if entry.kind == "cache":
            handle = entry.ref() if entry.ref is not None else None
            if handle is None:
                self._discard(entry)
                return
            parts = handle.bag.partitions
            i = entry.index
            if i >= len(parts) or not isinstance(parts[i], list):
                # The slot was already replaced (recovery tombstone,
                # a sibling's spill): stop tracking, do not touch it.
                self._discard(entry)
                return
            records = parts[i]
            codec, buf = encode_payload(records)
            path = self.engine.dfs.spill_put_bytes(buf, tag="cache")
            self._tracked_ids.discard(id(records))
            parts[i] = SpilledPartition(len(records), entry.nbytes)
            entry.spilled = True
            entry.path = path
            entry.file_nbytes = len(buf)
            self._usage -= entry.nbytes
            metrics.partitions_spilled += 1
            metrics.spill_bytes_written += len(buf)
            metrics.budget_evictions += 1
            self._trace(
                "spill:evict",
                kind="cache-partition",
                partition=i,
                bytes=len(buf),
            )
        elif entry.kind == "hoist":
            hoist = self.engine._hoist_cache
            bag = hoist.get(entry.ref)
            if bag is None or isinstance(bag, SpilledBag):
                self._discard(entry)
                return
            codec, buf = encode_payload(bag.partitions)
            path = self.engine.dfs.spill_put_bytes(buf, tag="hoist")
            hoist[entry.ref] = SpilledBag(
                path, len(buf), bag.partitioner, bag.num_partitions
            )
            entry.spilled = True
            entry.path = path
            entry.file_nbytes = len(buf)
            self._usage -= entry.nbytes
            metrics.partitions_spilled += bag.num_partitions
            metrics.spill_bytes_written += len(buf)
            metrics.budget_evictions += 1
            self._trace(
                "spill:evict",
                kind="hoist-bag",
                partitions=bag.num_partitions,
                bytes=len(buf),
            )
        else:  # batch: a pure cache — dropping it is the eviction
            source = entry.ref() if entry.ref is not None else None
            if source is not None:
                self.engine._batch_cache.pop(source, None)
            self._discard(entry)
            metrics.budget_evictions += 1
            self._trace("spill:evict", kind="batch-cache")

    # -- cached bag handles ------------------------------------------------

    def _handle_group(self, handle: "BagHandle") -> tuple:
        uid = self._handle_uids.get(handle)
        if uid is None:
            self._uid += 1
            uid = self._uid
            self._handle_uids[handle] = uid
            weakref.finalize(handle, self._release_group, ("cache", uid))
        return ("cache", uid)

    def tracks_any(self, bag: "PartitionedBag") -> bool:
        """Whether any of the bag's partition lists is already tracked.

        Used by the cache-store path to give each registered handle
        exclusive ownership of its lists: spilling mutates the list
        slot in place, so two handles must never share one.
        """
        return any(id(p) in self._tracked_ids for p in bag.partitions)

    def register_cache_partitions(
        self, handle: "BagHandle", indexes: list[int] | None = None
    ) -> None:
        """Track (or re-track) a memory-tier handle's partitions.

        Called when a handle is stored and again after lineage recovery
        rebuilds lost partitions (``indexes``).  Charges nothing — the
        store path already paid its simulated cost.  A partial
        re-registration (``indexes``) of a handle that was never
        tracked is a no-op: handles created outside the engine's
        cache-store path (e.g. stateful-update deltas) are accessed
        directly and must never grow spill sentinels.
        """
        if indexes is not None and self._handle_uids.get(handle) is None:
            return
        group = self._handle_group(handle)
        handle_ref = weakref.ref(handle)
        parts = handle.bag.partitions
        sizes = handle.bag.partition_bytes()
        todo = range(len(parts)) if indexes is None else sorted(indexes)
        for i in todo:
            if not isinstance(parts[i], list):
                continue
            key = (*group, i)
            old = self._entries.get(key)
            if old is not None:
                self._discard(old)
            nbytes = sizes[i]
            entry = _Entry(
                key, group, "cache", nbytes, 0, ref=handle_ref, index=i
            )
            self._touch(entry)
            self._entries[key] = entry
            self._tracked_ids.add(id(parts[i]))
            self._usage += nbytes
        self.evict_to_budget()

    def pin_handle(self, handle: "BagHandle") -> None:
        """Protect a handle's partitions from eviction for this job."""
        if handle.storage == "memory":
            self._pinned.add(self._handle_group(handle))

    def unspill_handle(self, handle: "BagHandle") -> None:
        """Reload every spilled partition of a handle, in index order.

        The lazy-reload point: the engine's cache read calls this
        before handing out the bag, so sentinels never escape.  Reloads
        charge zero simulated time; only wall clock and the
        ``spill_bytes_read``/``partitions_reloaded`` counters move.
        """
        group = self._handle_group(handle)
        metrics = self._metrics()
        parts = handle.bag.partitions
        for i in range(len(parts)):
            entry = self._entries.get((*group, i))
            if entry is None or not entry.spilled:
                if entry is not None:
                    self._touch(entry)
                continue
            buf = self.engine.dfs.spill_get_bytes(entry.path)
            records = decode_payload(CODEC_PICKLE, buf)
            self.engine.dfs.spill_delete(entry.path)
            parts[i] = records
            self._tracked_ids.add(id(records))
            entry.spilled = False
            entry.path = None
            self._usage += entry.nbytes
            self._touch(entry)
            metrics.partitions_reloaded += 1
            metrics.spill_bytes_read += entry.file_nbytes
            self._trace(
                "spill:reload",
                kind="cache-partition",
                partition=i,
                bytes=entry.file_nbytes,
            )
            entry.file_nbytes = 0
        self._pinned.add(group)
        self.evict_to_budget()

    def on_partitions_lost(
        self, handle: "BagHandle", lost: list[int]
    ) -> None:
        """Worker loss hit a handle: drop tracking for lost partitions.

        A spilled partition of a dead worker is treated as living on
        that worker's local disk: its spill file is deleted (it can
        never be reloaded) and the partition recovers through the
        exact same lineage path as the spill-off run — which is what
        keeps fault schedules and recovery accounting bit-identical.
        The tombstoned slots re-register after recovery via
        :meth:`register_cache_partitions`.
        """
        group = self._handle_group(handle)
        for i in lost:
            entry = self._entries.pop((*group, i), None)
            if entry is None:
                continue
            if entry.spilled:
                if entry.path is not None:
                    self.engine.dfs.spill_delete(entry.path)
            else:
                parts = handle.bag.partitions
                if i < len(parts):
                    self._tracked_ids.discard(id(parts[i]))
                self._usage -= entry.nbytes

    # -- the hoist cache ---------------------------------------------------

    def register_hoist(self, hkey: tuple, nbytes: int) -> None:
        """Track one freshly stored hoist-cache bag."""
        key = ("hoist", hkey)
        old = self._entries.get(key)
        if old is not None:
            self._discard(old)
        entry = _Entry(key, key, "hoist", nbytes, 0, ref=hkey)
        self._touch(entry)
        self._entries[key] = entry
        self._usage += nbytes
        self._pinned.add(key)
        self.evict_to_budget()

    def resolve_hoist(self, hkey: tuple, hit: Any) -> Any:
        """Serve a hoist hit, reloading it first if it was spilled.

        Returns the resident :class:`~repro.engines.cluster.
        PartitionedBag` (or ``None`` for a miss).  The caller then
        charges the exact same hit accounting as a never-spilled hit,
        so the simulation cannot tell the difference.
        """
        key = ("hoist", hkey)
        entry = self._entries.get(key)
        if isinstance(hit, SpilledBag):
            from repro.engines.cluster import PartitionedBag

            buf = self.engine.dfs.spill_get_bytes(hit.path)
            partitions = decode_payload(CODEC_PICKLE, buf)
            self.engine.dfs.spill_delete(hit.path)
            bag = PartitionedBag(partitions, hit.partitioner)
            self.engine._hoist_cache[hkey] = bag
            metrics = self._metrics()
            metrics.partitions_reloaded += hit.num_partitions
            metrics.spill_bytes_read += hit.file_nbytes
            self._trace(
                "spill:reload",
                kind="hoist-bag",
                partitions=hit.num_partitions,
                bytes=hit.file_nbytes,
            )
            if entry is not None:
                entry.spilled = False
                entry.path = None
                entry.file_nbytes = 0
                self._usage += entry.nbytes
            hit = bag
        if entry is not None:
            self._touch(entry)
            self._pinned.add(key)
            self.evict_to_budget()
        return hit

    def drop_hoist_entries(self) -> None:
        """Forget all hoist entries (run boundary / worker loss)."""
        for entry in [
            e for e in self._entries.values() if e.kind == "hoist"
        ]:
            self._discard(entry)

    # -- the columnar batch cache ------------------------------------------

    def register_batches(
        self, source: "PartitionedBag", nbytes: int
    ) -> None:
        """Track the batch-cache footprint of one source bag."""
        self._uid += 1
        key = ("batch", self._uid)
        entry = _Entry(
            key, key, "batch", nbytes, 0, ref=weakref.ref(source)
        )
        self._touch(entry)
        self._entries[key] = entry
        self._usage += nbytes
        weakref.finalize(source, self._release_group, key)
        self.evict_to_budget()

    # -- the file-backed shuffle service -----------------------------------

    def ship_task_payload(
        self, spec: Any, data: Any, label: str = ""
    ) -> tuple[bytes, SpillFileRef | None]:
        """Serialize one process-pool task, file-backing large data.

        Payloads whose serialized data exceeds
        :attr:`shuffle_file_min_bytes` are written to the spill tier
        and shipped as ``(spec, SpillFileRef)``; the IPC counters see
        only the small ref pickle, while the file traffic lands in
        ``spill_bytes_written`` (and ``spill_bytes_read`` when the
        worker resolves it).  Small payloads ship inline exactly as
        without the shuffle service.
        """
        from repro.engines.scheduler import ship_task

        try:
            codec, buf = encode_payload(data)
        except Exception:
            # Unpicklable data: let ship_task produce the canonical
            # EngineError (and the scheduler its serial fallback).
            return ship_task(spec, data, label), None
        if len(buf) < self.shuffle_file_min_bytes:
            return ship_task(spec, data, label), None
        path = self.engine.dfs.spill_put_bytes(buf, tag="shuffle")
        ref = SpillFileRef(path, codec, len(buf))
        try:
            payload = pickle.dumps(
                (spec, ref), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            self.engine.dfs.spill_delete(path)
            raise EngineError(
                f"task {label or getattr(spec, 'kind', '?')!r} cannot "
                f"cross a process boundary: its kernel/UDF closure is "
                f"not picklable ({type(exc).__name__}: {exc}); falling "
                f"back to in-process execution"
            ) from exc
        self._metrics().spill_bytes_written += len(buf)
        return payload, ref

    def count_ref_read(self, ref: SpillFileRef) -> None:
        """Account one worker-side resolution of a shuffle file ref."""
        self._metrics().spill_bytes_read += ref.nbytes

    def delete_ref(self, ref: SpillFileRef) -> None:
        """Remove one shuffle spill file after its stage completed."""
        self.engine.dfs.spill_delete(ref.path)
