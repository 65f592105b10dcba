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

The ledger is :class:`BudgetedStore`: keyed values with byte counts,
one touch counter, per-job pins and the one eviction loop.  It has two
clients, each telling it per entry how that entry leaves memory:

* :class:`SpillManager` (one per engine) — **spill entries**: eviction
  writes the value to a new spill file, the next access reads it back
  and deletes the file.  Three kinds, all charged through the
  :mod:`repro.engines.sizes` estimators: partitions of memory-tier
  :class:`~repro.engines.base.BagHandle` bags (eviction leaves a loud
  :class:`SpilledPartition` sentinel in the slot), whole bags of the
  per-run loop-invariant hoist cache (the partitioner stays in memory
  beside the file), and the footprint of columnar at-rest batches (a
  pure packing cache: eviction simply drops it).
* :class:`~repro.engines.plancache.PlanCache` — **write-through
  entries**: the file exists from the moment of the store, so eviction
  only drops the blob and a reload keeps the file.
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

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


# -- the budgeted store ------------------------------------------------------


@dataclass(eq=False, slots=True)
class Stored:
    """One keyed entry of a :class:`BudgetedStore`.

    ``value`` is the resident object, ``None`` while only the file at
    ``path`` holds it.  ``keep`` marks a write-through file (given at
    :meth:`BudgetedStore.put`): a reload keeps it, where a file the
    store wrote at eviction is deleted once read back.  ``how`` says
    how the entry leaves memory and comes back (see
    :class:`BudgetedStore`).
    """

    key: tuple
    group: tuple
    nbytes: int
    value: Any
    path: str | None
    how: Any
    keep: bool
    seq: int = 0


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class BudgetedStore:
    """Keyed values under one byte budget, evicted least recently used.

    ``usage`` is the byte count of the resident entries; while it
    exceeds ``limit`` (``0`` = unlimited) the entry with the oldest
    touch is evicted, skipping pinned groups — if everything left is
    pinned the budget is soft.  Touches come from a monotone counter,
    so the eviction order is a pure function of the operation
    sequence.

    Each entry's ``how`` tells the store how it leaves memory:
    ``how.evict(entry)`` takes the value out and returns the bytes to
    write to a new file — stored by ``write(buf, key)``, which returns
    the file's path — or ``None`` when nothing needs writing (a
    write-through entry has its file already; an entry with no file is
    forgotten).  ``how.load(entry, buf)`` rebuilds the value from the
    file; ``None`` means unusable, and the entry is forgotten with its
    file, as when the file has vanished.

    Not thread-safe: a client shared between threads holds its own
    lock around every call.
    """

    def __init__(
        self, write: Callable[[bytes, tuple], str] | None = None
    ) -> None:
        self.limit = 0
        self.usage = 0
        self._write = write
        self._entries: dict[tuple, Stored] = {}
        self._seq = 0
        self._pinned: set[tuple] = set()

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entries(self, prefix: tuple = ()) -> list[Stored]:
        """The entries whose key starts with ``prefix``."""
        n = len(prefix)
        return [e for k, e in self._entries.items() if k[:n] == prefix]

    def put(
        self,
        key: tuple,
        value: Any,
        nbytes: int,
        how: Any,
        group: tuple | None = None,
        path: str | None = None,
        pin: bool = False,
    ) -> None:
        """Add (or replace) an entry, touch it, and evict to fit.

        ``value=None`` indexes a file without loading it; ``path``
        makes the entry write-through.  A replaced entry's file is
        deleted unless the new entry reuses it.
        """
        old = self._entries.get(key)
        if old is not None:
            self._forget(old, delete=old.path != path)
        entry = Stored(
            key, group or key, nbytes, value, path, how, path is not None
        )
        self._entries[key] = entry
        self._touch(entry)
        if value is not None:
            self.usage += nbytes
        if pin:
            self._pinned.add(entry.group)
        self.evict()

    def get(self, key: tuple, pin: bool = False) -> Any:
        """The entry's value (reloaded from its file if evicted), or
        ``None`` when absent or its file is gone or unusable."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._touch(entry)
        value = entry.value
        if value is None:
            value = self._reload(entry)
            if value is None:
                return None
        if pin:
            self._pinned.add(entry.group)
        self.evict()
        return value

    def pin(self, group: tuple) -> None:
        """Protect a group from eviction until :meth:`end_job`."""
        self._pinned.add(group)

    def end_job(self) -> None:
        """Release every pin and enforce the budget."""
        self._pinned.clear()
        self.evict()

    def set_limit(self, limit: int) -> None:
        """Set the budget (bytes; 0 = unlimited) and evict to fit."""
        self.limit = limit
        self.evict()

    def discard(self, key: tuple) -> None:
        """Forget one entry and remove its file."""
        entry = self._entries.get(key)
        if entry is not None:
            self._forget(entry)

    def drop(self, prefix: tuple = ()) -> None:
        """Forget every entry whose key starts with ``prefix``."""
        for entry in self.entries(prefix):
            self._forget(entry)

    def evict(self) -> None:
        """Evict least recently touched entries until usage fits."""
        if self.limit <= 0:
            return
        while self.usage > self.limit:
            victim: Stored | None = None
            for entry in self._entries.values():
                if entry.value is None or entry.group in self._pinned:
                    continue
                if victim is None or entry.seq < victim.seq:
                    victim = entry
            if victim is None:
                return  # everything left is pinned: soft budget
            buf = victim.how.evict(victim)
            victim.value = None
            self.usage -= victim.nbytes
            if buf is not None:
                victim.path = self._write(buf, victim.key)
            elif victim.path is None:
                del self._entries[victim.key]

    def _touch(self, entry: Stored) -> None:
        self._seq += 1
        entry.seq = self._seq

    def _reload(self, entry: Stored) -> Any:
        try:
            with open(entry.path, "rb") as f:
                value = entry.how.load(entry, f.read())
        except OSError:
            value = None
        if value is None:
            self._forget(entry)
            return None
        if not entry.keep:
            _remove(entry.path)
            entry.path = None
        entry.value = value
        self.usage += entry.nbytes
        return value

    def _forget(self, entry: Stored, delete: bool = True) -> None:
        del self._entries[entry.key]
        if entry.value is not None:
            self.usage -= entry.nbytes
        if delete and entry.path is not None:
            _remove(entry.path)


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


# -- the spill client's three entry kinds ------------------------------------


class _Slot:
    """A cached partition: the records in one slot of a handle's bag."""

    __slots__ = ("spill", "handle", "index")

    def __init__(
        self, spill: "SpillManager", handle: Any, index: int
    ) -> None:
        self.spill = spill
        self.handle = handle
        self.index = index

    def evict(self, entry: Stored) -> bytes | None:
        handle = self.handle()
        parts = handle.bag.partitions if handle is not None else ()
        i, records = self.index, entry.value
        if i >= len(parts) or parts[i] is not records:
            # The slot was already replaced (recovery tombstone, a dead
            # handle): stop tracking, do not touch it.
            return None
        buf = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        parts[i] = SpilledPartition(len(records), entry.nbytes)
        self.spill._moved("evict", 1, len(buf), "cache-partition", partition=i)
        return buf

    def load(self, entry: Stored, buf: bytes) -> Any:
        records = pickle.loads(buf)
        self.handle().bag.partitions[self.index] = records
        self.spill._moved(
            "reload", 1, len(buf), "cache-partition", partition=self.index
        )
        return records


class _Hoisted:
    """A hoisted shuffled bag; its partitioner stays beside the file
    (partitioner identity and key IR drive shuffle elision)."""

    __slots__ = ("spill", "partitioner")

    def __init__(self, spill: "SpillManager", partitioner: Any) -> None:
        self.spill = spill
        self.partitioner = partitioner

    def evict(self, entry: Stored) -> bytes:
        bag = entry.value
        buf = pickle.dumps(bag.partitions, protocol=pickle.HIGHEST_PROTOCOL)
        self.spill._moved("evict", bag.num_partitions, len(buf), "hoist-bag")
        return buf

    def load(self, entry: Stored, buf: bytes) -> Any:
        from repro.engines.cluster import PartitionedBag

        bag = PartitionedBag(pickle.loads(buf), self.partitioner)
        self.spill._moved("reload", bag.num_partitions, len(buf), "hoist-bag")
        return bag


class _Batches:
    """The at-rest batch footprint of one source bag: eviction drops
    the engine's batch-cache entry (re-packed on demand)."""

    __slots__ = ("spill",)

    def __init__(self, spill: "SpillManager") -> None:
        self.spill = spill

    def evict(self, entry: Stored) -> None:
        source = entry.value()
        if source is not None:
            self.spill.engine._batch_cache.pop(source, None)
        self.spill._moved("evict", 0, 0, "batch-cache")
        return None


class SpillManager:
    """Driver-wide memory budget with deterministic LRU spill-to-disk.

    One manager per :class:`~repro.engines.base.Engine`, the spill
    client of a :class:`BudgetedStore` keyed ``("cache", uid, i)``,
    ``("hoist", hkey)`` and ``("batch", uid)``.  Residency is *always*
    tracked (even with ``limit == 0``) so a mid-run budget squeeze —
    the :data:`~repro.engines.faults.MEMORY_SQUEEZE` chaos event — can
    start evicting immediately; with the default unlimited budget
    nothing ever spills and the engine behaves exactly as it did
    without this layer.

    Entries in use by the current job are **pinned** (per job, cleared
    by :meth:`end_job`) so an eviction triggered mid-job can never pull
    a partition out from under an operator that already holds the bag.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.store = BudgetedStore(
            lambda buf, key: engine.dfs.spill_put_bytes(buf, tag=key[0])
        )
        self._uid = 0
        self._handle_uids: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        #: the job whose trace clock spill events are stamped with
        self._job: "JobRun | None" = None

    # -- configuration -----------------------------------------------------

    @property
    def limit(self) -> int:
        """The budget in bytes (0 = unlimited)."""
        return self.store.limit

    @property
    def active(self) -> bool:
        """Whether a finite budget is in force."""
        return self.store.limit > 0

    def configure(self, limit: int) -> None:
        """Set the budget (bytes; 0 = unlimited) and evict to fit."""
        if limit < 0:
            raise EngineError(
                f"memory_budget={limit} must be >= 0 (0 = unlimited)"
            )
        self.store.set_limit(limit)

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
        self.store.end_job()
        self._job = None

    def _moved(
        self, event: str, partitions: int, nbytes: int, kind: str, **attrs: Any
    ) -> None:
        """Count one eviction or reload and stamp its trace event."""
        metrics = self.engine.metrics
        if event == "evict":
            metrics.partitions_spilled += partitions
            metrics.spill_bytes_written += nbytes
            metrics.budget_evictions += 1
        else:
            metrics.partitions_reloaded += partitions
            metrics.spill_bytes_read += nbytes
        tracer = self.engine.tracer
        if tracer is not None:
            ts = (
                self._job.trace_ts()
                if self._job is not None
                else metrics.simulated_seconds
            )
            tracer.event(
                f"spill:{event}",
                ts=ts,
                kind=kind,
                partitions=partitions,
                bytes=nbytes,
                **attrs,
            )

    # -- cached bag handles ------------------------------------------------

    def _handle_group(self, handle: "BagHandle") -> tuple:
        uid = self._handle_uids.get(handle)
        if uid is None:
            self._uid += 1
            uid = self._uid
            self._handle_uids[handle] = uid
            weakref.finalize(handle, self.store.drop, ("cache", uid))
        return ("cache", uid)

    def tracks_any(self, bag: "PartitionedBag") -> bool:
        """Whether any of the bag's partition lists is already tracked.

        Used by the cache-store path to give each registered handle
        exclusive ownership of its lists: spilling mutates the list
        slot in place, so two handles must never share one.
        """
        tracked = {id(e.value) for e in self.store.entries(("cache",))}
        return any(id(p) in tracked for p in bag.partitions)

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
            if isinstance(parts[i], list):
                self.store.put(
                    (*group, i),
                    parts[i],
                    sizes[i],
                    _Slot(self, handle_ref, i),
                    group=group,
                )

    def pin_handle(self, handle: "BagHandle") -> None:
        """Protect a handle's partitions from eviction for this job."""
        if handle.storage == "memory":
            self.store.pin(self._handle_group(handle))

    def unspill_handle(self, handle: "BagHandle") -> None:
        """Reload every spilled partition of a handle, in index order,
        and pin the handle for the rest of the job.

        The lazy-reload point: the engine's cache read calls this
        before handing out the bag, so sentinels never escape.  Reloads
        charge zero simulated time; only wall clock and the
        ``spill_bytes_read``/``partitions_reloaded`` counters move.
        """
        group = self._handle_group(handle)
        self.store.pin(group)
        for i in range(len(handle.bag.partitions)):
            self.store.get((*group, i))

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
            self.store.discard((*group, i))

    # -- the hoist cache ---------------------------------------------------

    def hoist(self, hkey: tuple, bag: "PartitionedBag", nbytes: int) -> None:
        """Keep a loop-invariant shuffled bag for the rest of the run,
        pinned for this job.  Hits go through ``store.get(("hoist",
        hkey), pin=True)``, which reloads a spilled bag first."""
        self.store.put(
            ("hoist", hkey), bag, nbytes, _Hoisted(self, bag.partitioner), pin=True
        )

    # -- the columnar batch cache ------------------------------------------

    def register_batches(
        self, source: "PartitionedBag", nbytes: int
    ) -> None:
        """Track the batch-cache footprint of one source bag."""
        self._uid += 1
        key = ("batch", self._uid)
        self.store.put(key, weakref.ref(source), nbytes, _Batches(self))
        weakref.finalize(source, self.store.discard, key)
