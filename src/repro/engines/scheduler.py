"""The partition-task scheduler: one fan-out of per-partition work.

The simulated engines charge *modelled* seconds per partition; this
module runs the same per-partition work on the host.  Each physical
operator's per-partition work is one :class:`TaskSpec` subclass below
(its only implementation: ``run`` dispatches on a row-list or
``ColumnBatch`` payload), and a :class:`TaskScheduler` runs one flat
fan-out of partition tasks at a time in one of two modes, which differ
in dispatch only:

* ``serial`` — the default, and the mode to run programs in: tasks run
  inline, in order, in the driver process.
* ``processes`` — a differential-testing backend.  Tasks fan out on a
  shared spawn-context ``ProcessPoolExecutor``, so every spec, UDF and
  partition crosses a real process boundary, the paper's transparent
  data motion.  It is slower than ``serial`` on every shipped
  workload; it exists to prove that nothing a task needs is left
  behind in the driver.  :func:`ship_task` is the one doorway: it
  pickles each spec once per fan-out (a spec ships its UDFs as
  *source*, one :class:`~repro.engines.chainkernel.Udf` each: IR +
  bindings, never a compiled kernel or closure) and encodes each
  partition through :func:`~repro.engines.spill.encode_payload`.  A
  worker keys its memo of built artifacts on the SHA-256 of the spec's
  pickle bytes, so a loop that ships the same spec every iteration
  builds it once per worker process.  Bytes crossing the boundary are
  counted in ``Metrics.ipc_bytes_shipped`` / ``ipc_bytes_returned``.

Three invariants make the ``processes`` backend a faithful differential
test:

1. **Deterministic merge** — every task is a pure function of its
   payload, and stage results are merged by task index, so outputs are
   bit-identical to serial execution no matter the completion order.
2. **Driver-side accounting** — all simulated-cost charging (and the
   fault injector's ``on_task`` boundary, whose decisions are a pure
   function of the monotone task sequence number) happens in the
   driver *after* a stage returns, in deterministic partition order.
   ``Metrics.simulated_seconds`` and injected fault schedules are
   therefore identical in both modes; only wall-clock time changes.
3. **Serial fallback** — any failure of the parallel path (a UDF
   closure capturing an unpicklable object, a broken pool) falls back
   to inline serial execution of the same pure tasks, counted in
   ``Metrics.serial_fallbacks``.  A genuine task error reproduces and
   raises in the serial re-run, so the fallback can never mask a bug.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.comprehension.exprs import AlgebraSpec
from repro.core.databag import DataBag
from repro.core.grp import Grp
from repro.engines.chainkernel import (
    AggSink,
    ChainKernel,
    FoldSink,
    KernelStep,
    Udf,
    VectorKernel,
    build_chain_kernel,
    build_key_kernel,
    build_vector_kernel,
)
from repro.engines.columnar import (
    ColumnBatch,
    ColumnSchema,
    bucket_indices,
    hash_probe,
    probe_join,
    scatter_batch,
)
from repro.engines.cluster import stable_hash
from repro.engines.metrics import Metrics
from repro.engines.spill import (
    SpillFileRef,
    decode_payload,
    encode_payload,
    load_payload_file,
)
from repro.errors import EmmaError, EngineError
from repro.lowering.combinators import AggResult

#: the execution modes of an engine / ``EmmaConfig(execution_mode=...)``
EXECUTION_MODES = ("serial", "processes")


def default_execution_mode() -> str:
    """The execution mode of an engine constructed without one.

    The ``REPRO_EXECUTION_MODE`` environment variable overrides the
    built-in ``"serial"`` default, so a whole test suite or CI job can
    run under the parallel backend without touching any call site (the
    ``parallel-backend`` CI job sets it to ``"processes"``).  Read at
    engine construction only: an ``EmmaConfig`` that leaves the mode
    unset inherits it through the engine.
    """
    return os.environ.get("REPRO_EXECUTION_MODE", "serial")


def default_max_parallel_tasks() -> int:
    """Concurrent-task width adopted when a caller names none.

    ``REPRO_MAX_PARALLEL_TASKS`` overrides the built-in ``0`` (one slot
    per host CPU core); non-numeric and negative values fail loudly.
    """
    raw = os.environ.get("REPRO_MAX_PARALLEL_TASKS", "0")
    try:
        width = int(raw)
    except ValueError:
        width = -1
    if width < 0:
        raise EngineError(
            f"REPRO_MAX_PARALLEL_TASKS must be a non-negative integer, "
            f"got {raw!r}"
        )
    return width


# -- task specs -------------------------------------------------------------


class TaskSpec:
    """What a partition task *does* — shared by every task of a stage.

    A spec is the single implementation of one physical operator's
    per-partition work: :meth:`run` is what ``serial`` and
    ``processes`` mode all execute, over the artifact :meth:`build`
    constructs (a compiled kernel, a hash table).  In the driver
    :meth:`prepared` builds it on first use — or serves the
    ``prepared`` argument, for the one kind of artifact the driver has
    to build ahead of the spec: a vector kernel, attempted early so a
    fallback is counted once.  It never pickles; a worker process
    rebuilds it from the shipped :class:`Udf` values once per distinct
    pickle of the spec and memoizes it, so a loop that re-runs the same
    kernel every iteration re-hydrates it once per worker process, not
    once per task.
    """

    #: trace and error label
    kind = "abstract"
    #: what an unpickled spec reads: the artifact stays in the driver
    _prepared: Any = None

    def __init__(self, prepared: Any = None) -> None:
        self._prepared = prepared

    def build(self) -> Any:
        """Construct the executable artifact (subclass hook)."""
        raise NotImplementedError

    def run(self, prepared: Any, data: Any) -> Any:
        """One task: pure function of the artifact and one partition's
        payload (subclass hook)."""
        raise NotImplementedError

    def prepared(self) -> Any:
        """The driver-side artifact, built once per spec object."""
        if self._prepared is None:
            self._prepared = self.build()
        return self._prepared

    def __getstate__(self) -> dict[str, Any]:
        """Never ship the driver-side artifact (a worker only ever
        calls :meth:`build`)."""
        state = dict(self.__dict__)
        del state["_prepared"]
        return state


def _key_kernel_or_none(
    key: Udf, schema: ColumnSchema | None
) -> VectorKernel | None:
    """The key column's vector kernel when a spec has a columnar side."""
    return build_key_kernel(key, schema) if schema is not None else None


class KernelSpec(TaskSpec):
    """Run a fused chain kernel over a partition: ``(rows, counts)``.

    With a ``schema`` the spec also carries the chain's vector kernel:
    a partition handed over as a :class:`ColumnBatch` (typed column
    buffers) runs batch-at-a-time and returns ``(out_batch, counts)``,
    a row list streams through the row kernel.  The counts tuples are
    identical in shape and value, so the driver charges both planes
    through the same accounting path.
    """

    kind = "kernel"

    def __init__(
        self,
        steps: Sequence[KernelStep],
        schema: ColumnSchema | None = None,
        prepared: tuple | None = None,
    ) -> None:
        super().__init__(prepared)
        self.steps = tuple(steps)
        self.schema = schema

    def build(self) -> tuple:
        """(row kernel, vector kernel | None), regenerated from the
        step IR."""
        return (
            build_chain_kernel(self.steps),
            build_vector_kernel(self.steps, self.schema)
            if self.schema is not None
            else None,
        )

    def run(self, prepared: tuple, data: Any) -> tuple:
        kernel, vector_kernel = prepared
        if isinstance(data, ColumnBatch):
            return vector_kernel.run_batch(data)
        rows: list[Any] = []
        return rows, kernel.run(data, rows.append)


class AggMapSpec(TaskSpec):
    """Mapper-side partial aggregation, optionally fused with a chain.

    One generated kernel streams a partition through the chain (when
    one is fused in), the key and every fold of the banana-split
    product, and returns ``(pairs, counts)`` where ``pairs`` is the
    insertion-ordered ``[(key, accumulator_tuple), ...]`` list and
    ``counts`` the kernel counters (``None`` without a fused chain).
    """

    kind = "agg-map"

    def __init__(
        self,
        key: Udf,
        specs: Sequence[AlgebraSpec],
        bindings: dict[str, Any],
        steps: Sequence[KernelStep] | None = None,
    ) -> None:
        super().__init__()
        self.key = key
        self.specs = tuple(specs)
        self.bindings = bindings
        self.steps = tuple(steps) if steps is not None else None

    def build(self) -> ChainKernel:
        """The chain kernel with the aggregation as its sink."""
        return build_chain_kernel(
            self.steps or (), AggSink(self.specs, self.bindings, self.key)
        )

    def run(self, prepared: ChainKernel, data: list[Any]) -> tuple:
        pairs: list[tuple] = []
        counts = prepared.run(data, pairs.append)
        return pairs, counts if self.steps is not None else None


class AggMergeSpec(TaskSpec):
    """Reducer-side merge of shuffled partial aggregates."""

    kind = "agg-merge"

    def __init__(
        self, specs: Sequence[AlgebraSpec], bindings: dict[str, Any]
    ) -> None:
        super().__init__()
        self.specs = tuple(specs)
        self.bindings = bindings

    def build(self) -> ChainKernel:
        """The merge loop: the aggregation sink over ``(key, partials)``."""
        return build_chain_kernel((), AggSink(self.specs, self.bindings))

    def run(self, prepared: ChainKernel, data: list[Any]) -> list[Any]:
        merged: list[tuple] = []
        prepared.run(data, merged.append)
        return [AggResult(k, aggs) for k, aggs in merged]


#: marks "no previous key yet" in the run-detecting group loop
_NO_KEY = object()


def group_rows_by_keys(rows: list[Any], keys: list[Any]) -> dict:
    """Group records by their precomputed keys, detecting key runs.

    Exactly equivalent to ``groups.setdefault(key_fn(x), []).append(x)``
    over the same sequence — insertion order, value order, and the key
    objects stored in the dict all match — but adjacent equal keys
    append straight to the previous group without re-probing the hash
    table (the run-detection half of the columnar group-by).
    """
    groups: dict[Any, list[Any]] = {}
    last_key: Any = _NO_KEY
    last_list: list[Any] | None = None
    for x, k in zip(rows, keys):
        if last_list is not None and k == last_key:
            last_list.append(x)
            continue
        entry = groups.get(k)
        if entry is None:
            groups[k] = entry = [x]
        else:
            entry.append(x)
        last_key = k
        last_list = entry
    return groups


class GroupSpec(TaskSpec):
    """Materialize ``Grp`` records for one shuffled partition.

    A partition handed over as a full-width :class:`ColumnBatch`
    evaluates the grouping key as a column through the spec's key
    kernel and groups the reconstructed records with run detection
    (adjacent equal keys skip the hash probe — shuffled partitions
    cluster equal keys when the upstream scatter preserved source
    runs); a row list groups through the compiled key closure.
    """

    kind = "group"

    def __init__(
        self,
        key: Udf,
        schema: ColumnSchema | None = None,
        prepared: tuple | None = None,
    ) -> None:
        super().__init__(prepared)
        self.key = key
        self.schema = schema

    def build(self) -> tuple:
        """(key closure, key vector kernel | None)."""
        return self.key.closure, _key_kernel_or_none(self.key, self.schema)

    def run(self, prepared: tuple, data: Any) -> list[Any]:
        key_fn, kernel = prepared
        if isinstance(data, ColumnBatch):
            groups = group_rows_by_keys(
                data.to_records(), kernel.run_batch(data)[0].to_records()
            )
        else:
            groups = {}
            for x in data:
                groups.setdefault(key_fn(x), []).append(x)
        return [Grp(k, DataBag(vs)) for k, vs in groups.items()]


class BucketSpec(TaskSpec):
    """Hash-bucket one partition's records for a shuffle.

    Returns ``num_partitions`` destination buckets in source order; the
    driver merges buckets across tasks in partition order, which fixes
    the shuffle's record order in every execution mode.  A row list
    buckets into record lists through the per-record ``stable_hash``
    (process-independent by construction, so workers bucket exactly as
    the driver would); a :class:`ColumnBatch` evaluates the key as a
    column and scatters into destination *sub-batches*, with
    :func:`~repro.engines.columnar.bucket_indices` holding the
    assignment bit-identical to ``hash_partition_index``.
    """

    kind = "bucket"

    def __init__(
        self,
        key: Udf,
        num_partitions: int,
        schema: ColumnSchema | None = None,
        prepared: tuple | None = None,
    ) -> None:
        super().__init__(prepared)
        self.key = key
        self.num_partitions = num_partitions
        self.schema = schema

    def build(self) -> tuple:
        """(key closure, key vector kernel | None)."""
        return self.key.closure, _key_kernel_or_none(self.key, self.schema)

    def run(self, prepared: tuple, data: Any) -> list:
        key_fn, kernel = prepared
        n = self.num_partitions
        if isinstance(data, ColumnBatch):
            keys = kernel.run_batch(data)[0].columns[0]
            return scatter_batch(data, bucket_indices(keys, n), n)
        buckets: list[list[Any]] = [[] for _ in range(n)]
        keys = [key_fn(record) for record in data]
        for record, k in zip(data, keys):
            buckets[stable_hash(k) % n].append(record)
        return buckets


def _side_rows_and_keys(
    side: Any, kernel: Any, key_fn: Callable
) -> tuple[list[Any], Any]:
    """(records, keys) of one join side: batch or row-list payload."""
    if isinstance(side, ColumnBatch):
        return (
            side.to_records(),
            kernel.run_batch(side)[0].columns[0],
        )
    return side, [key_fn(x) for x in side]


class JoinProbeSpec(TaskSpec):
    """Co-partitioned hash join build/probe over a ``(left, right)``
    pair.

    Each side of the payload is either a row list (keys through the
    compiled closure) or, when the spec carries that side's schema, a
    full-width :class:`ColumnBatch` (keys evaluated as a column).
    Build and probe orders are the same either way, so the output pair
    order does not depend on how a side arrived.
    """

    kind = "join-probe"

    def __init__(
        self,
        kx: Udf,
        ky: Udf,
        x_schema: ColumnSchema | None = None,
        y_schema: ColumnSchema | None = None,
        prepared: tuple | None = None,
    ) -> None:
        super().__init__(prepared)
        self.kx = kx
        self.ky = ky
        self.x_schema = x_schema
        self.y_schema = y_schema

    def build(self) -> tuple:
        """(kx closure, ky closure, left key kernel, right key kernel)."""
        return (
            self.kx.closure,
            self.ky.closure,
            _key_kernel_or_none(self.kx, self.x_schema),
            _key_kernel_or_none(self.ky, self.y_schema),
        )

    def run(self, prepared: tuple, data: tuple) -> list[Any]:
        kx, ky, x_kernel, y_kernel = prepared
        lp, rp = data
        rrows, rkeys = _side_rows_and_keys(rp, y_kernel, ky)
        lrows, lkeys = _side_rows_and_keys(lp, x_kernel, kx)
        if isinstance(lp, ColumnBatch) or isinstance(rp, ColumnBatch):
            return probe_join(lrows, lkeys, rrows, rkeys)
        return hash_probe(lrows, lkeys, rrows, rkeys)


class BroadcastProbeSpec(TaskSpec):
    """Broadcast hash join probe: the small side rides in the spec.

    Like Spark's broadcast join, each worker builds the hash table
    from the shipped records — once per worker process thanks to the
    worker memo, mirroring a real broadcast variable.
    """

    kind = "broadcast-probe"

    def __init__(
        self,
        records: list[Any],
        key_small: Udf,
        key_big: Udf,
        small_first: bool,
    ) -> None:
        super().__init__()
        self.records = records
        self.key_small = key_small
        self.key_big = key_big
        self.small_first = small_first

    def build(self) -> tuple:
        """(hash table over the small side, big-side key closure)."""
        ks = self.key_small.closure
        table: dict[Any, list[Any]] = {}
        for r in self.records:
            table.setdefault(ks(r), []).append(r)
        return table, self.key_big.closure

    def run(self, prepared: tuple, data: list[Any]) -> list[Any]:
        table, kb = prepared
        matches = table.get
        if self.small_first:
            return [(m, x) for x in data for m in matches(kb(x), ())]
        return [(x, m) for x in data for m in matches(kb(x), ())]


class SemiProbeSpec(TaskSpec):
    """Co-partitioned (anti-)semi-join probe over a partition pair."""

    kind = "semi-probe"

    def __init__(self, kx: Udf, ky: Udf, anti: bool) -> None:
        super().__init__()
        self.kx = kx
        self.ky = ky
        self.anti = anti

    def build(self) -> tuple:
        """Both compiled key closures."""
        return self.kx.closure, self.ky.closure

    def run(self, prepared: tuple, data: tuple) -> list[Any]:
        kx, ky = prepared
        lp, rp = data
        keys = {ky(r) for r in rp}
        if self.anti:
            return [x for x in lp if kx(x) not in keys]
        return [x for x in lp if kx(x) in keys]


class BroadcastSemiSpec(TaskSpec):
    """Broadcast (anti-)semi-join filter: key set rides in the spec."""

    kind = "broadcast-semi"

    def __init__(self, keys: set[Any], kx: Udf, anti: bool) -> None:
        super().__init__()
        self.keys = keys
        self.kx = kx
        self.anti = anti

    def build(self) -> tuple:
        """(key set, probe-side key closure)."""
        return self.keys, self.kx.closure

    def run(self, prepared: tuple, data: list[Any]) -> list[Any]:
        keys, kx = prepared
        if self.anti:
            return [x for x in data if kx(x) not in keys]
        return [x for x in data if kx(x) in keys]


class FoldSpec(TaskSpec):
    """A structural fold over one partition: ``algebra(p)`` — or, with
    ``merge``, the union of partial results (``algebra.merge(p)``)."""

    kind = "fold"

    def __init__(
        self, spec: AlgebraSpec, bindings: dict[str, Any], merge: bool = False
    ) -> None:
        super().__init__()
        self.spec = spec
        self.bindings = bindings
        self.merge = merge

    def build(self) -> ChainKernel:
        """The fold loop: an empty chain into a fold sink."""
        return build_chain_kernel(
            (), FoldSink(self.spec, self.bindings, self.merge)
        )

    def run(self, prepared: ChainKernel, data: list[Any]) -> Any:
        out: list[Any] = []
        prepared.run(data, out.append)
        return out[0]


class StateUpdateSpec(TaskSpec):
    """Update one state partition: ``{key: new}`` for what changed.

    ``udfs`` is ``(u, key[, route])``; the payload a partition, or with a
    ``route`` a ``(partition, messages)`` pair.  ``u(element)`` runs per
    element, or ``u(current, m)`` per message to ``route(m)``, in order.
    """

    kind = "state-update"

    def __init__(self, u: Udf, key: Udf, route: Udf | None = None) -> None:
        super().__init__()
        self.udfs = (u, key) if route is None else (u, key, route)

    def build(self) -> tuple:
        """The compiled closures of ``udfs``."""
        return tuple(udf.closure for udf in self.udfs)

    def run(self, prepared: tuple, data: Any) -> dict[Any, Any]:
        u, key, *route = prepared
        changed: dict[Any, Any] = {}
        if not route:
            for k, element in data.items():
                new = u(element)
                if new is not None:
                    changed[k] = _same_key(key, k, new)
            return changed
        partition, messages = data
        (address,) = route
        for m in messages:
            k = address(m)
            current = changed[k] if k in changed else partition.get(k)
            if current is not None:
                new = u(current, m)
                if new is not None:
                    changed[k] = _same_key(key, k, new)
        return changed


def _same_key(key: Callable[[Any], Any], k: Any, new: Any) -> Any:
    if key(new) != k:
        raise EmmaError("point-wise updates must preserve element keys")
    return new


# -- tasks ------------------------------------------------------------------


@dataclass
class PartitionTask:
    """One schedulable unit: a spec applied to one partition's data."""

    index: int
    spec: TaskSpec
    data: Any
    label: str = ""


# -- worker-process side ----------------------------------------------------

#: per-worker-process memo: SHA-256 of a spec's pickle → (spec, artifact),
#: least recently used first
_WORKER_MEMO: dict[bytes, tuple[TaskSpec, Any]] = {}
#: the memo's bound: a long-lived pool drops its least recently used
#: artifact (and the broadcast bags it holds) beyond this many
_WORKER_MEMO_BOUND = 256


def _worker_init(paths: list[str]) -> None:
    """Process-pool initializer: mirror the driver's import path."""
    for p in paths:
        if p not in sys.path:
            sys.path.append(p)


def _process_entry(spec_bytes: bytes, data: Any) -> bytes:
    """Worker-side task body: rehydrate (or memo-serve), run, pickle back.

    The memo keys on the spec's own bytes.  Equal bytes unpickle to
    equal content (functions and classes pickle by qualified name), so
    a hit can never be stale, and it skips the unpickle as well; a
    pickle that differs for equal content only costs a rebuild, and so
    does a spec evicted as least recently used.
    ``data`` is the ``(codec, buffer)`` pair :func:`ship_task` encoded,
    or a :class:`~repro.engines.spill.SpillFileRef` the worker resolves
    against the shared host filesystem.
    """
    key = hashlib.sha256(spec_bytes).digest()
    hit = _WORKER_MEMO.pop(key, None)  # re-inserted as the newest
    if hit is None:
        if len(_WORKER_MEMO) >= _WORKER_MEMO_BOUND:
            del _WORKER_MEMO[next(iter(_WORKER_MEMO))]
        spec = pickle.loads(spec_bytes)
    spec, prepared = _WORKER_MEMO[key] = hit or (spec, spec.build())
    if isinstance(data, SpillFileRef):
        data = load_payload_file(data)
    else:
        data = decode_payload(*data)
    return pickle.dumps(
        (spec.run(prepared, data), hit is None),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


# -- the shared process pool ------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WIDTH = 0


def _shared_process_pool(width: int) -> ProcessPoolExecutor:
    """The module-wide spawn pool, grown (never shrunk) to ``width``.

    Spawning interpreters is expensive (each worker re-imports the
    package), so one pool is shared across engines, jobs, and tests
    for the life of the driver process.
    """
    global _POOL, _POOL_WIDTH
    if _POOL is not None and _POOL_WIDTH >= width:
        return _POOL
    import multiprocessing

    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = ProcessPoolExecutor(
        max_workers=width,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_worker_init,
        initargs=(list(sys.path),),
    )
    _POOL_WIDTH = width
    return _POOL


def _shutdown_pool() -> None:
    """Stop the shared pool's worker processes (at exit, and when a
    dead worker has broken the pool)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None


atexit.register(_shutdown_pool)


# -- serialization layer ----------------------------------------------------


def ship_task(
    task: PartitionTask, specs: dict[TaskSpec, bytes], spill: Any = None
) -> tuple[bytes, Any]:
    """Serialize one task for a worker: ``(spec bytes, data)``.

    This is the only doorway through which work leaves the driver.
    The spec pickles once per fan-out (``specs`` keeps the bytes of
    each spec object already shipped).  The partition is encoded once
    by :func:`~repro.engines.spill.encode_payload` and ships inline as
    ``(codec, buffer)``, or — given the engine's
    :class:`~repro.engines.spill.SpillManager` under a memory budget,
    and a buffer of at least ``shuffle_file_min_bytes`` — is written to
    the spill tier and ships as a small
    :class:`~repro.engines.spill.SpillFileRef`.  A UDF that captured an
    unpicklable object (an open file, a lock, a lambda) surfaces here
    as a clear :class:`EngineError` naming the task — never as a raw
    ``PicklingError`` from deep inside the pool.
    """
    spec = task.spec
    try:
        spec_bytes = specs.get(spec)
        if spec_bytes is None:
            spec_bytes = specs[spec] = pickle.dumps(
                spec, protocol=pickle.HIGHEST_PROTOCOL
            )
        codec, buf = encode_payload(task.data)
    except Exception as exc:
        raise EngineError(
            f"task {task.label or spec.kind!r} cannot cross a process "
            f"boundary: its kernel/UDF closure or partition data is "
            f"not picklable ({type(exc).__name__}: {exc}); falling "
            f"back to in-process execution"
        ) from exc
    if spill is not None and len(buf) >= spill.shuffle_file_min_bytes:
        return spec_bytes, spill.put_shuffle_file(codec, buf)
    return spec_bytes, (codec, buf)


# -- the scheduler ----------------------------------------------------------


class TaskScheduler:
    """Executes partition-task fan-outs in serial or processes mode.

    The public surface is :meth:`run_stage`: one flat list of tasks,
    all in flight together in the pooled mode, results merged by task
    position.  Tasks of one fan-out may carry different specs and
    labels (the two bucket sides of a repartition join go down as one
    list).  ``events`` collects (name, attrs) pairs for the tracer.
    """

    def __init__(
        self,
        mode: str = "serial",
        max_parallel_tasks: int = 0,
        spill: Any = None,
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise EngineError(
                f"unknown execution mode {mode!r}: expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        self.mode = mode
        #: concurrent task slots (0 → one per host CPU)
        self.width = max_parallel_tasks or (os.cpu_count() or 1)
        #: (name, attrs) pairs for the engine to drain into its tracer
        self.events: list[tuple[str, dict[str, Any]]] = []
        #: the engine's :class:`~repro.engines.spill.SpillManager` when
        #: a finite memory budget enables the file-backed shuffle —
        #: large processes-mode payloads then travel as spill-file refs
        self.spill = spill

    # -- public API --------------------------------------------------------

    def run_stage(
        self, tasks: list[PartitionTask], metrics: Any = None
    ) -> list[Any]:
        """Run one fan-out of tasks; results ordered by task position."""
        if self.mode == "serial":
            return self._run_serial(tasks)
        if metrics is None:
            metrics = Metrics()
        try:
            return self._run_parallel(tasks, metrics)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # Any parallel-path failure — unpicklable closures, a
            # broken pool — degrades to inline serial execution of the
            # same pure tasks.  A genuine task bug reproduces (and
            # raises) in the serial re-run, so nothing is masked.
            if isinstance(exc, BrokenProcessPool):
                # A dead worker breaks the shared pool for good: drop
                # it, so the next stage starts a fresh one.
                _shutdown_pool()
            metrics.serial_fallbacks += 1
            self.events.append(
                (
                    "serial-fallback",
                    {
                        "mode": self.mode,
                        "reason": f"{type(exc).__name__}: {exc}"[:300],
                    },
                )
            )
            return self._run_serial(tasks)

    # -- execution paths ---------------------------------------------------

    @staticmethod
    def _run_serial(tasks: list[PartitionTask]) -> list[Any]:
        """Inline execution, in order — the reference the parallel
        mode must reproduce."""
        return [t.spec.run(t.spec.prepared(), t.data) for t in tasks]

    def _run_parallel(
        self, tasks: list[PartitionTask], metrics: Metrics
    ) -> list[Any]:
        """One ordered fan-out: ship every task, submit them all, then
        read the results in task order.

        Every payload is built before the first submit, so a task that
        cannot cross the boundary falls back before anything ran or
        was counted.  Shuffle spill files shipped for the fan-out are
        deleted when it ends; a file-backed partition counts in the
        ``spill_*`` counters, not in ``ipc_bytes_shipped``.
        """
        specs: dict[TaskSpec, bytes] = {}
        payloads: list[tuple[bytes, Any]] = []
        try:
            for task in tasks:
                payloads.append(ship_task(task, specs, self.spill))
            pool = _shared_process_pool(self.width)
            futures = [
                pool.submit(_process_entry, spec_bytes, data)
                for spec_bytes, data in payloads
            ]
            if futures:
                metrics.parallel_stages += 1
            metrics.parallel_tasks += len(futures)
            for spec_bytes, data in payloads:
                metrics.ipc_bytes_shipped += len(spec_bytes)
                if isinstance(data, SpillFileRef):
                    self.spill.count_ref(data)
                else:
                    metrics.ipc_bytes_shipped += len(data[1])
            results = []
            for future in futures:
                raw = future.result()
                metrics.ipc_bytes_returned += len(raw)
                result, rehydrated = pickle.loads(raw)
                metrics.kernels_rehydrated += rehydrated
                results.append(result)
            return results
        finally:
            for _, data in payloads:
                if isinstance(data, SpillFileRef):
                    self.spill.delete_ref(data)
