"""The combinator-dataflow executor shared by the simulated engines.

A :class:`JobExecutor` runs one dataflow job: it evaluates a combinator
tree bottom-up over :class:`~repro.engines.cluster.PartitionedBag`
values, really applying the UDFs to every record, while charging
compute, network, disk, and broadcast costs into the job's per-worker
time accounts.  Partition ``i`` lives on worker ``i % num_workers``;
job time is the busiest worker's time, so key skew (the Pareto
distribution of Figure 5c) naturally produces the skewed runtimes the
paper reports.

Engine-specific behaviour is read off the engine's class attributes:
``broadcast_factor``, ``shuffle_via_disk``, ``group_spill_to_disk``,
``group_memory_bound``, ``group_materialize_factor``, ``task_overhead``,
and ``broadcast_join_threshold``.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    Call,
    Const,
    Env,
    Index,
    Ref,
    TupleExpr,
    fallback_reason,
)
from repro.core.databag import DataBag
from repro.core.grp import Grp
from repro.engines.chainkernel import (
    FILTER,
    FLATMAP,
    MAP,
    KernelStep,
    NotVectorizable,
    Udf,
    VectorKernel,
    build_chain_kernel,
    build_key_kernel,
    build_vector_kernel,
    entered_counts,
)
from repro.engines.columnar import (
    HAS_NUMPY,
    ColumnBatch,
    build_batch,
    concat_batches,
    normalize_batch,
    infer_schema,
)
from repro.engines.cluster import PartitionedBag, Partitioner
from repro.engines.metrics import JobRun
from repro.engines.scheduler import (
    AggMapSpec,
    AggMergeSpec,
    BroadcastProbeSpec,
    BroadcastSemiSpec,
    BucketSpec,
    FoldSpec,
    GroupSpec,
    JoinProbeSpec,
    KernelSpec,
    PartitionTask,
    SemiProbeSpec,
)
from repro.engines.sizes import (
    estimate_bag_bytes,
    estimate_blocks_bytes,
    estimate_record_bytes,
)
from repro.errors import EngineError, SimulatedMemoryError
from repro.lowering.combinators import (
    GROUP_KEY,
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
    Combinator,
    PhysProps,
    ScalarFn,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import Engine


class JobExecutor:
    """Executes one dataflow job on a simulated engine."""

    def __init__(
        self,
        engine: "Engine",
        env: dict[str, Any],
        job: JobRun,
        shared_state: dict[str, Any] | None = None,
    ) -> None:
        self.engine = engine
        self.env = env
        self.job = job
        self.parallelism = engine.cluster.parallelism
        self.num_workers = engine.cluster.num_workers
        #: per-job broadcast memo, by value identity; the entry holds
        #: the value so its id cannot be reused within the job
        self._broadcast_memo: dict[int, tuple[Any, DataBag]] = {}
        self._worker_group_bytes = [0] * self.num_workers
        #: per-job DAG memo: a shared subplan (same combinator object
        #: consumed by several parents — diamond plans) executes once
        self._dag_memo: dict[int, PartitionedBag] = {}
        #: per-job UDF compilation memo (by ScalarFn identity)
        self._udf_memo: dict[int, tuple[ScalarFn, Udf]] = {}
        self._bindings_memo: dict[
            tuple[str, ...], tuple[dict[str, Any], int]
        ] = {}
        #: per-job vector-kernel memo (by chain identity): a compiled
        #: :class:`VectorKernel`, or ``None`` after a chain-level
        #: fallback so the reason is counted and traced only once
        self._vkernel_memo: dict[int, VectorKernel | None] = {}
        #: per-job exchange key-kernel memo, keyed by (key IR identity,
        #: input schema signature): the key column's ``VectorKernel``,
        #: or ``None`` after a once-counted unsupported-UDF fallback
        self._xkernel_memo: dict[tuple, VectorKernel | None] = {}
        # State shared with nested executors spawned for lazy lineages
        # within the *same* job (so one DeferredBag consumed twice in a
        # job — a self-join over a lazy bag — executes once).
        self._shared_state = (
            shared_state if shared_state is not None else {"deferred": {}}
        )

    # -- entry points ------------------------------------------------------

    def run(self, root: Combinator) -> Any:
        """Execute; returns a scalar for a fold root, else a bag."""
        if isinstance(root, CFold):
            return self._exec_fold(root)
        return self.run_bag(root)

    def run_bag(self, root: Combinator) -> PartitionedBag:
        """Execute a bag-typed dataflow; folds are rejected here."""
        if isinstance(root, CFold):
            raise EngineError("fold dataflow where a bag was expected")
        return self._exec(root)

    # -- recursion ------------------------------------------------------------

    def _exec(self, comb: Combinator) -> PartitionedBag:
        memo_key = id(comb)
        hit = self._dag_memo.get(memo_key)
        if hit is not None:
            self.engine.metrics.dag_memo_hits += 1
            return hit
        self.job.charge_driver(
            self.engine.task_overhead * self.parallelism
        )
        handler = self._HANDLERS.get(type(comb))
        if handler is None:
            raise EngineError(
                f"engine cannot execute combinator {type(comb).__name__}"
            )
        tracer = self.engine.tracer
        if tracer is None:
            bag = handler(self, comb)
            if comb.partition_hint is not None:
                bag = self.shuffle_by_key(bag, comb.partition_hint)
        else:
            span = tracer.begin(
                comb.label(),
                "operator",
                ts=self.job.trace_ts(),
                op=comb.describe(),
            )
            before_busy = self.job.total_seconds()
            bag = handler(self, comb)
            if comb.partition_hint is not None:
                bag = self.shuffle_by_key(bag, comb.partition_hint)
            tracer.end(
                span,
                end_ts=self.job.trace_ts(),
                compute_seconds=round(
                    self.job.total_seconds() - before_busy, 9
                ),
                **bag.trace_attrs(),
            )
        self._dag_memo[memo_key] = bag
        return bag

    def _worker_of(self, partition_index: int) -> int:
        worker = partition_index % self.num_workers
        faults = self.engine.faults
        if faults is not None and faults.blacklisted:
            # Blacklisted workers take no new tasks; their partitions'
            # work lands on the next healthy node.
            worker = faults.effective_worker(worker)
        return worker

    # -- task scheduling ----------------------------------------------------
    #
    # Operators hand their per-partition UDF work to the engine's
    # scheduler as ``TaskSpec`` tasks — the same tasks in either
    # execution mode, run inline in ``serial`` and fanned out in
    # ``processes`` — and do *all* cost charging and fault injection
    # afterwards in the driver, in ascending partition order.  That is
    # what keeps results, ``simulated_seconds`` and injected fault
    # schedules bit-identical across the two modes.

    def _run_stage(self, tasks: list[PartitionTask]) -> list[Any]:
        """One scheduler fan-out; results come back in task order, and
        the scheduler's events (fallbacks) become spans."""
        scheduler = self.engine.scheduler
        results = scheduler.run_stage(tasks, metrics=self.engine.metrics)
        if scheduler.events:
            tracer = self.engine.tracer
            if tracer is not None:
                for name, attrs in scheduler.events:
                    tracer.event(name, ts=self.job.trace_ts(), **attrs)
            scheduler.events.clear()
        return results

    # -- leaves ---------------------------------------------------------------

    def _exec_source(self, comb: CSource) -> PartitionedBag:
        path = comb.path.evaluate(Env.of(self.env))
        stored = self.engine.dfs.get(path)
        self.job.charge_spread(
            self.engine.cost.dfs_read_seconds(stored.nbytes)
        )
        self.engine.metrics.dfs_read_bytes += stored.nbytes
        return PartitionedBag.from_records(
            stored.records, self.parallelism
        )

    def _exec_parallelize(self, comb: CParallelize) -> PartitionedBag:
        value = comb.seq.evaluate(Env.of(self.env))
        records = value.fetch() if isinstance(value, DataBag) else list(value)
        return self.parallelize_local(records)

    def parallelize_local(self, records: list[Any]) -> PartitionedBag:
        """Ship driver-local records to the cluster."""
        nbytes = estimate_bag_bytes(records)
        self.job.charge_driver(self.engine.cost.driver_seconds(nbytes))
        self.engine.metrics.driver_ship_bytes += nbytes
        return PartitionedBag.from_records(records, self.parallelism)

    def _exec_bag_ref(self, comb: CBagRef) -> PartitionedBag:
        from repro.engines.base import BagHandle, DeferredBag

        if comb.name not in self.env:
            raise EngineError(
                f"dataflow references unbound driver name {comb.name!r}"
            )
        value = self.env[comb.name]
        if isinstance(value, BagHandle):
            return self.engine._read_cached(value, self.job)
        if isinstance(value, DeferredBag):
            if value.is_forced:
                # A forced thunk is driver-local data; ship it back.
                return self.parallelize_local(value.force_local())
            # Lazy lineage: inline the recipe into this job (Spark/Flink
            # lazy-evaluation semantics — recomputed per *job*, but a
            # thunk consumed several times within one job runs once).
            deferred_memo = self._shared_state["deferred"]
            hit = deferred_memo.get(id(value))
            if hit is not None:
                self.engine.metrics.dag_memo_hits += 1
                return hit
            nested = JobExecutor(
                self.engine,
                value.env,
                self.job,
                shared_state=self._shared_state,
            )
            bag = nested.run_bag(value.root)
            deferred_memo[id(value)] = bag
            return bag
        if isinstance(value, DataBag):
            return self.parallelize_local(value.fetch())
        if isinstance(value, (list, tuple)):
            return self.parallelize_local(list(value))
        if isinstance(value, PartitionedBag):
            return value
        from repro.engines.stateful import DistributedStatefulBag

        if isinstance(value, DistributedStatefulBag):
            return value.bag()
        from repro.core.stateful import StatefulBag

        if isinstance(value, StatefulBag):
            return self.parallelize_local(value.bag().fetch())
        raise EngineError(
            f"driver name {comb.name!r} is not a bag "
            f"(found {type(value).__name__})"
        )

    # -- element-wise operators and fused chains -------------------------------

    def _map_output_partitioner(
        self, comb: CMap, source: PartitionedBag
    ) -> Partitioner | None:
        """The map output's partitioner, when the key provably survives.

        A map over a hash-partitioned bag keeps records in place, so if
        the map body carries the partition-key expression through to a
        field of its output — the common reshaping pattern ``x ->
        Record(x.key, ...)`` or ``x -> (x.key, ...)`` — the output is
        hash-partitioned on that field/position.  Matched structurally:
        one constructor argument of a plain dataclass call (no
        ``__post_init__``) or one tuple component must equal the
        partition-key body applied to the map's parameter.  Only a map
        the physical-planning pass planned (``phys`` set) propagates.
        """
        if comb.phys is None:
            return None
        partitioner = source.partitioner
        if partitioner is None or len(partitioner.key.params) != 1:
            return None
        if len(comb.fn.params) != 1:
            return None
        key = partitioner.key
        param = comb.fn.params[0]
        key_body = key.body.substitute({key.params[0]: Ref(param)})
        body = comb.fn.body
        # Map each carried-through input expression to where it lands
        # in the output record, then re-express the key through it.
        mapping: dict[Any, Any] = {}
        if isinstance(body, Call) and isinstance(body.func, Ref):
            ctor = self.env.get(body.func.name)
            if not (
                isinstance(ctor, type)
                and dataclasses.is_dataclass(ctor)
                and not hasattr(ctor, "__post_init__")
            ):
                return None
            flds = dataclasses.fields(ctor)
            for pos, arg in enumerate(body.args):
                if pos < len(flds):
                    mapping[arg] = Attr(Ref("_r"), flds[pos].name)
            field_names = {f.name for f in flds}
            for kw_name, arg in body.kwargs:
                if kw_name in field_names:
                    mapping[arg] = Attr(Ref("_r"), kw_name)
        elif isinstance(body, TupleExpr):
            for pos, item in enumerate(body.items):
                mapping[item] = Index(Ref("_r"), Const(pos))
        else:
            return None

        def rewrite(expr):
            repl = mapping.get(expr)
            if repl is not None:
                return repl
            return expr.rebuild(rewrite)

        out_body = rewrite(key_body)
        if param in out_body.free_vars():
            # Some part of the key did not survive into the output.
            return None
        return Partitioner(
            ScalarFn(("_r",), out_body), source.num_partitions
        )

    _STEP_KINDS: dict[type, str] = {
        CMap: MAP,
        CFlatMap: FLATMAP,
        CFilter: FILTER,
    }

    def _kernel_steps(self, comb: Combinator) -> tuple[KernelStep, ...]:
        """The kernel steps of a chain or of a single narrow operator.

        A lone map/filter/flat-map runs through the same
        generated-kernel machinery chains use.
        """
        ops = comb.ops if isinstance(comb, CChain) else (comb,)
        return tuple(
            KernelStep(
                self._STEP_KINDS[type(op)],
                self._udf_compilation(
                    op.predicate if isinstance(op, CFilter) else op.fn
                ),
            )
            for op in ops
        )

    def _charge_kernel(
        self,
        steps: tuple[KernelStep, ...],
        partition_index: int,
        n_records: int,
        nbytes: int,
        counts: tuple,
    ) -> tuple[list[int], int]:
        """Charge one completed kernel task from its counters alone:
        exactly what the unfused operators would cost, minus the
        per-operator materialization (the input's byte-proportional
        processing cost, ``nbytes`` from the source bag's size memo, is
        paid once per chain)."""
        entered, emitted = entered_counts(steps, n_records, counts)
        ops = nbytes / self.engine.cost.cpu_bytes_per_op
        ci = 0
        for s, step in enumerate(steps):
            ops += entered[s] * (1 + step.udf.extra)
            if step.kind == FLATMAP:
                ops += counts[ci]
            if step.counted:
                ci += 1
        self._charge_cpu(partition_index, ops)
        return entered, emitted

    def _charge_chain_overheads(self, n_ops: int) -> None:
        """Task accounting for one executed chain of ``n_ops`` steps.

        A pipelining engine schedules the whole chain as one task wave
        (the single ``task_overhead`` charge already paid by ``_exec``);
        an engine without chaining still pays per operator.
        """
        self.engine.metrics.chained_operators += n_ops
        if self.engine.pipelined_chains:
            self.engine.metrics.tasks_saved += n_ops - 1
        else:
            self.job.charge_driver(
                self.engine.task_overhead
                * self.parallelism
                * (n_ops - 1)
            )

    # -- columnar batch execution -------------------------------------------

    def _columnar_active(self, comb: CChain) -> bool:
        """Whether this chain should attempt the columnar plane.

        Static selection (``comb.columnar``) comes from the optimizer;
        the engine knob gates it at runtime: ``off`` (the default)
        disables, ``on`` forces the attempt even on the pure-Python
        column fallback, and ``auto`` vectorizes only where numpy is
        available.
        """
        mode = self.engine.columnar_mode
        if not comb.columnar or mode == "off":
            return False
        return mode == "on" or HAS_NUMPY

    def _count_columnar_fallback(
        self, comb: Combinator, reason: str, category: str = "schema"
    ) -> None:
        """Count + trace one row-plane fallback with its reason.

        ``category`` breaks the aggregate counter down for
        ``summary()``: ``"udf"`` (key or chain UDF outside the
        vectorizable subset), ``"schema"`` (mixed or ragged record
        layout at batch-build time), ``"input"`` (records the schema
        sniffer cannot type at all).
        """
        metrics = self.engine.metrics
        metrics.columnar_fallbacks += 1
        if category == "udf":
            metrics.columnar_fallbacks_udf += 1
        elif category == "input":
            metrics.columnar_fallbacks_input += 1
        else:
            metrics.columnar_fallbacks_schema += 1
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.event(
                "columnar fallback",
                ts=self.job.trace_ts(),
                chain=comb.describe(),
                reason=reason,
                category=category,
            )

    def _vector_kernel(
        self,
        comb: CChain,
        steps: tuple[KernelStep, ...],
        sample: list[Any],
    ) -> VectorKernel | None:
        """The chain's compiled vector kernel, or ``None`` (once-counted
        fallback) when the observed record layout or a binding value is
        outside the vectorizable subset."""
        key = id(comb)
        if key in self._vkernel_memo:
            return self._vkernel_memo[key]
        vk: VectorKernel | None = None
        schema, reason = infer_schema(sample)
        if schema is None:
            self._count_columnar_fallback(comb, reason, "input")
        else:
            try:
                vk = build_vector_kernel(steps, schema)
            except NotVectorizable as exc:
                self._count_columnar_fallback(comb, str(exc), "udf")
            else:
                self.engine.metrics.columnar_kernels += 1
        self._vkernel_memo[key] = vk
        return vk

    def _trace_columnar_batches(
        self, comb: CChain, batches: list[ColumnBatch]
    ) -> None:
        """Per-column byte accounting for the batches of one chain."""
        tracer = self.engine.tracer
        if tracer is None or not batches:
            return
        per_column = [0] * len(batches[0].columns)
        rows = 0
        for b in batches:
            rows += b.nrows
            for j, n in enumerate(b.column_nbytes()):
                per_column[j] += n
        tracer.event(
            "columnar batches",
            ts=self.job.trace_ts(),
            chain=comb.describe(),
            batches=len(batches),
            rows=rows,
            column_bytes=per_column,
            total_bytes=sum(per_column),
        )

    def _source_batches(
        self,
        comb: Combinator,
        schema: Any,
        needed: Any,
        source: PartitionedBag,
    ) -> dict[int, ColumnBatch]:
        """Per-partition batches for one operator, cached per source bag.

        An operator re-scanning the same at-rest
        :class:`PartitionedBag` (loop-invariant inputs, repeated
        queries over a parallelized bag) packs its columns only once:
        the engine keeps a weak per-bag cache keyed by schema signature
        and projection, stamped with the partition lists' identities
        and lengths so that any partition replacement — lineage
        recovery rebuilds the list object — invalidates the entry.
        Hits change nothing observable; ``columnar_batches_built``
        counts actual packing work, and per-partition fallbacks are
        counted when discovered.  Chains project to their needed
        columns; exchange operators pass ``needed=None`` for full-width
        batches so the far side can reconstruct complete records.
        """
        key = (schema.signature(), needed)
        hit = self._cached_batches(source).get(key)
        if hit is not None:
            return hit
        metrics = self.engine.metrics
        batches: dict[int, ColumnBatch] = {}
        traced: list[ColumnBatch] = []
        for i, p in enumerate(source.partitions):
            if not p:
                continue
            batch, reason = build_batch(p, schema, needed)
            if batch is None:
                self._count_columnar_fallback(
                    comb, f"partition {i}: {reason}", "schema"
                )
                continue
            metrics.columnar_batches_built += 1
            batches[i] = batch
            traced.append(batch)
        self._trace_columnar_batches(comb, traced)
        self._store_batches(source, key, batches)
        return batches

    def _cached_batches(self, bag: PartitionedBag) -> dict:
        """``bag``'s batch-cache entry (``key -> batches``), emptied
        first if any partition list was replaced since it was stamped."""
        cache = self.engine._batch_cache
        stamp = bag.stamp()
        entry = cache.get(bag)
        if entry is None or entry[0] != stamp:
            entry = cache[bag] = (stamp, {})
        return entry[1]

    def _store_batches(
        self,
        bag: PartitionedBag,
        key: tuple,
        batches: dict[int, ColumnBatch],
    ) -> None:
        """Cache ``batches`` as the columnar image of ``bag`` at rest.

        The one writer of the engine's batch cache, and of
        :attr:`ColumnBatch.rows`: a full-width batch (``key[1] is
        None``) remembers the partition list it images, so an
        in-process consumer reads the records it already has instead of
        rebuilding them from columns.  The stamp invalidates the entry,
        ``rows`` with it, the moment a partition list is replaced.
        """
        if key[1] is None:
            for i, batch in batches.items():
                batch.rows = bag.partitions[i]
        self._cached_batches(bag)[key] = batches
        if batches and self.engine.spill.active:
            # Charge the at-rest batches against the driver budget; a
            # budget eviction simply drops the cache entry (batches are
            # re-packed on demand, a pure wall-clock cost).
            self.engine.spill.register_batches(
                bag,
                sum(
                    sum(b.column_nbytes()) for b in batches.values()
                ),
            )

    # -- columnar exchange plane -------------------------------------------

    def _exchange_active(self, comb: Combinator) -> bool:
        """Whether this exchange operator should attempt the columnar
        plane.

        Static selection (``comb.exchange == "columnar"``) comes from
        :func:`repro.optimizer.columnar_select.select_columnar`; the
        engine's ``columnar_exchange_mode`` knob gates it at runtime
        with the same semantics as the chain plane: ``off`` disables,
        ``on`` forces the attempt even on the pure-Python column
        fallback, ``auto`` engages only where numpy is available.
        """
        mode = self.engine.columnar_exchange_mode
        if mode == "off" or getattr(comb, "exchange", "") != "columnar":
            return False
        return mode == "on" or HAS_NUMPY

    def _count_blocks_shipped(self, blocks: int) -> None:
        """Batch payloads only *ship* across a process boundary."""
        if self.engine.execution_mode == "processes":
            self.engine.metrics.columnar_blocks_shipped += blocks

    def _key_kernel(
        self, comb: Combinator, key_ir: ScalarFn, schema: Any
    ) -> VectorKernel | None:
        """The vector kernel evaluating ``key_ir`` over ``schema``
        columns, or ``None`` after a once-counted unsupported-UDF
        fallback (memoized per key + schema pair)."""
        memo_key = (id(key_ir), schema.signature())
        if memo_key in self._xkernel_memo:
            return self._xkernel_memo[memo_key]
        vk: VectorKernel | None = None
        try:
            vk = build_key_kernel(self._udf_compilation(key_ir), schema)
        except NotVectorizable as exc:
            self._count_columnar_fallback(comb, f"key: {exc}", "udf")
        self._xkernel_memo[memo_key] = vk
        return vk

    def _exchange_prep(
        self,
        comb: Combinator | None,
        key_ir: ScalarFn,
        bag: PartitionedBag,
    ) -> tuple[VectorKernel | None, dict[int, ColumnBatch]]:
        """Key kernel + full-width batches for one exchange input.

        ``comb`` is the exchange operator when its columnar plane is
        active, else ``None``.  ``(None, {})`` means the whole input
        stays on the row plane (plane inactive, untyped records, or a
        key UDF outside the vectorizable subset — the latter two
        counted once each).  Batches are always full width — never
        projected to the key columns — so both driver and workers can
        reconstruct complete records from the same cached entry in
        every execution mode, keeping fallback and batch counters
        mode-invariant.
        """
        row_plane: tuple[None, dict[int, ColumnBatch]] = (None, {})
        sample = next((p for p in bag.partitions if p), None)
        if comb is None or sample is None:
            return row_plane
        schema, reason = infer_schema(sample)
        if schema is None:
            self._count_columnar_fallback(comb, reason, "input")
            return row_plane
        vk = self._key_kernel(comb, key_ir, schema)
        if vk is None:
            return row_plane
        batches = self._source_batches(comb, schema, None, bag)
        return (vk, batches) if batches else row_plane

    def _exec_narrow(self, comb: Combinator) -> PartitionedBag:
        """Maps, flat-maps, filters and fused chains: one kernel stage.

        A chain the optimizer selected for the columnar plane hands
        each partition that packs into a :class:`ColumnBatch` to the
        spec as typed buffers; the vector kernel returns the same
        counts tuple as the row kernel and is charged through the same
        :meth:`_charge_kernel`, in the same partition order, so results,
        simulated accounting and fault schedules do not depend on the
        plane.  Partitions whose records do not fit the inferred schema
        take the row kernel individually (counted in
        ``columnar_fallbacks``), as does everything else.
        """
        source = self._exec(comb.input)
        steps = self._kernel_steps(comb)
        vk = None
        batches: dict[int, ColumnBatch] = {}
        if isinstance(comb, CChain):
            self._charge_chain_overheads(len(steps))
            sample = next((p for p in source.partitions if p), None)
            if sample is not None and self._columnar_active(comb):
                vk = self._vector_kernel(comb, steps, sample)
            if vk is not None:
                batches = self._source_batches(
                    comb, vk.schema, vk.needed, source
                )
        spec = KernelSpec(
            steps,
            vk.schema if vk is not None else None,
            prepared=(
                build_chain_kernel(steps, node=comb, role="chain"),
                vk,
            ),
        )
        results = self._run_stage(
            [
                PartitionTask(i, spec, batches.get(i, p), comb.label())
                for i, p in enumerate(source.partitions)
            ]
        )
        invocations = 0
        out: list[list[Any]] = []
        out_batches: dict[int, ColumnBatch] = {}
        row_out = False
        sizes = source.partition_bytes()
        for i, (p, (payload, counts)) in enumerate(
            zip(source.partitions, results)
        ):
            if isinstance(payload, ColumnBatch):
                rows = payload.to_records()
                if rows:
                    out_batches[i] = payload
            else:
                rows = payload
                row_out = row_out or bool(rows)
            entered, _emitted = self._charge_kernel(
                steps, i, len(p), sizes[i], counts
            )
            out.append(rows)
            invocations += sum(entered)
        self.engine.metrics.udf_invocations += invocations
        if isinstance(comb, CMap):
            partitioner = self._map_output_partitioner(comb, source)
        elif isinstance(comb, CFilter) or (
            isinstance(comb, CChain) and comb.preserves_partitioning()
        ):
            partitioner = source.partitioner
        else:
            partitioner = None
        result = PartitionedBag(out, partitioner)
        if out_batches and not row_out:
            # The chain's output is columnar-at-rest: keep it so.  A
            # row-kernel partition poisons the seed — a partial entry
            # would stop a later consumer from packing those rows.
            self._seed_batches(result, out_batches)
        return result

    # -- shuffles ---------------------------------------------------------------

    def _bucket_tasks(
        self,
        bag: PartitionedBag,
        key_ir: ScalarFn,
        n_parts: int,
        exchange: Combinator | None,
        label: str,
    ) -> list[PartitionTask]:
        """Bucket tasks for every partition, columnar where possible.

        With an active columnar exchange, partitions that packed into a
        :class:`ColumnBatch` are handed over as typed buffers and
        bucket batch-at-a-time; the rest (and everything, when
        ``exchange`` is ``None``) go as row lists.  Either payload
        reproduces ``stable_hash`` bucketing bit-identically, so mixing
        them within one stage is invisible to results.
        """
        key = self._udf_compilation(key_ir)
        vk, batches = self._exchange_prep(exchange, key_ir, bag)
        spec = BucketSpec(
            key,
            n_parts,
            vk.schema if vk is not None else None,
            prepared=(key.closure, vk),
        )
        self._count_blocks_shipped(len(batches))
        return [
            PartitionTask(i, spec, batches[i], label + "-columnar")
            if i in batches
            else PartitionTask(i, spec, p, label)
            for i, p in enumerate(bag.partitions)
        ]

    def shuffle_by_key(
        self,
        bag: PartitionedBag,
        key_ir: ScalarFn,
        prebucketed: list[list[list[Any]]] | None = None,
        exchange: Combinator | None = None,
    ) -> PartitionedBag:
        """Hash-repartition ``bag`` on ``key_ir`` (no-op if already so).

        Bucketing is one :class:`BucketSpec` task per partition;
        merging the buckets in input-partition order fixes the record
        order.  ``prebucketed`` carries bucket lists computed ahead of
        time (the overlapped join-side scan of :meth:`_repartitioned_pair`).

        ``exchange`` is the shuffle-inducing combinator when its
        columnar exchange plane is active (:meth:`_exchange_active`,
        already checked by the caller): keys are then
        evaluated as a column and records scattered batch-at-a-time,
        with :func:`~repro.engines.columnar.bucket_indices` holding the
        bucket assignment bit-identical to ``hash_partition_index``.
        Bucket lists may therefore contain per-destination
        :class:`ColumnBatch` slices; the merge unpacks them in the same
        source order, so record order, every ``_charge_cpu`` call, and
        all byte accounting stay exactly the row plane's.
        """
        tracer = self.engine.tracer
        if bag.partitioned_on(key_ir):
            self.engine.metrics.shuffles_elided += 1
            if tracer is not None:
                tracer.event(
                    "shuffle-elided",
                    ts=self.job.trace_ts(),
                    key=key_ir.describe(),
                )
            return bag
        span = None
        if tracer is not None:
            span = tracer.begin(
                "Shuffle",
                "stage",
                ts=self.job.trace_ts(),
                key=key_ir.describe(),
            )
        extra = self._udf_compilation(key_ir).extra
        n_parts = self.parallelism
        buckets = prebucketed
        if buckets is None:
            buckets = self._run_stage(
                self._bucket_tasks(
                    bag, key_ir, n_parts, exchange, "shuffle-bucket"
                )
            )
        new_partitions: list[list[Any]] = [[] for _ in range(n_parts)]
        total_moved = 0
        columnar_parts = 0
        row_contrib = False
        dest_blocks: list[list[ColumnBatch]] = [
            [] for _ in range(n_parts)
        ]
        trace_blocks: list[ColumnBatch] = []
        sent_sizes = bag.partition_bytes()
        for i, p in enumerate(bag.partitions):
            if not p:
                continue
            part_bytes = sent_sizes[i]
            bucketed = buckets[i]
            if isinstance(bucketed[0], ColumnBatch):
                columnar_parts += 1
                for idx, sub in enumerate(bucketed):
                    if sub.nrows:
                        new_partitions[idx].extend(sub.to_records())
                        dest_blocks[idx].append(sub)
                if tracer is not None:
                    trace_blocks.extend(bucketed)
            else:
                row_contrib = True
                for idx, records in enumerate(bucketed):
                    new_partitions[idx].extend(records)
            self._charge_cpu(i, len(p) * (1 + extra))
            # Send side: assume an even spread of destinations.
            locality = (self.num_workers - 1) / max(self.num_workers, 1)
            sent = part_bytes * locality
            total_moved += int(sent)
            seconds = self.engine.cost.network_seconds(sent)
            if self.engine.shuffle_via_disk:
                seconds += self.engine.cost.disk_seconds(part_bytes)
            self.job.charge_worker(self._worker_of(i), seconds)
        # Receive side: charged exactly from the skew of new partitions,
        # sized through the result bag's memo (so a later ``nbytes()``
        # of the shuffled bag is free).
        result = PartitionedBag(
            new_partitions, Partitioner(key_ir, n_parts)
        )
        locality = (self.num_workers - 1) / max(self.num_workers, 1)
        for j, (p, nbytes) in enumerate(
            zip(result.partitions, result.partition_bytes())
        ):
            if not p:
                continue
            recv = nbytes * locality
            seconds = self.engine.cost.network_seconds(recv)
            if self.engine.shuffle_via_disk:
                seconds += self.engine.cost.disk_seconds(recv)
            self.job.charge_worker(self._worker_of(j), seconds)
        self.engine.metrics.shuffle_bytes += total_moved
        self.engine.metrics.records_shuffled += bag.count()
        if columnar_parts:
            self.engine.metrics.columnar_shuffles += 1
            if tracer is not None:
                tracer.event(
                    "columnar shuffle blocks",
                    ts=self.job.trace_ts(),
                    key=key_ir.describe(),
                    partitions=columnar_parts,
                    blocks=len(trace_blocks),
                    block_bytes=estimate_blocks_bytes(trace_blocks),
                )
        self.job.add_stage()
        if span is not None:
            tracer.end(
                span,
                end_ts=self.job.trace_ts(),
                shuffle_bytes=total_moved,
                records=bag.count(),
                columnar_parts=columnar_parts,
            )
        if columnar_parts and not row_contrib:
            self._seed_shuffled_batches(result, dest_blocks)
        return result

    def _seed_shuffled_batches(
        self,
        bag: PartitionedBag,
        dest_blocks: list[list[ColumnBatch]],
    ) -> None:
        """Keep an all-columnar shuffle's output columnar-at-rest.

        Each destination's scatter sub-batches concatenate (in the
        same source order the row merge used, so ``to_records`` of the
        cached batch is exactly the partition's record list) into a
        pre-seeded entry of the per-bag batch cache; a downstream
        exchange operator over the shuffled bag then hits the cache
        instead of re-packing columns from rows.  Driver-side in every
        execution mode, so batch and fallback counters stay
        mode-invariant; a budget eviction just drops the entry again.
        """
        self._seed_batches(
            bag,
            {
                j: concat_batches(blocks)
                for j, blocks in enumerate(dest_blocks)
                if blocks
            },
        )

    def _seed_batches(
        self, bag: PartitionedBag, batches: dict[int, ColumnBatch]
    ) -> None:
        """Pre-seed ``bag``'s at-rest batch cache with known batches.

        The entry is stored under the full-width key exchange
        operators look up, so a consumer hits it instead of re-packing
        columns from rows.  Purely a wall-clock shortcut: a budget
        eviction (or any partition replacement, via the stamp) drops
        the entry and the consumer re-packs on demand.
        """
        if not batches:
            return
        batches = {
            i: normalize_batch(b) for i, b in batches.items()
        }
        schema = next(iter(batches.values())).schema
        self._store_batches(bag, (schema.signature(), None), batches)

    # -- broadcast ----------------------------------------------------------------

    def broadcast_value(self, value: Any) -> DataBag:
        """Make a driver/bag value available on all workers as a DataBag."""
        from repro.engines.base import BagHandle, DeferredBag

        cached = self._broadcast_memo.get(id(value))
        if cached is not None and cached[0] is value:
            return cached[1]
        if isinstance(value, DeferredBag):
            records = value.force_local()
        elif isinstance(value, BagHandle):
            records = self.engine.collect(value)
        elif isinstance(value, DataBag):
            records = value.fetch()
        elif isinstance(value, (list, tuple)):
            records = list(value)
        else:
            raise EngineError(
                f"cannot broadcast a {type(value).__name__}"
            )
        nbytes = estimate_bag_bytes(records)
        factor = self.engine.broadcast_factor
        tracer = self.engine.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "Broadcast", "stage", ts=self.job.trace_ts()
            )
        per_worker = self.engine.cost.network_seconds(nbytes * factor)
        self.job.charge_all_workers(per_worker)
        self.engine.metrics.broadcast_bytes += int(
            nbytes * self.num_workers * factor
        )
        self.engine.metrics.records_broadcast += (
            len(records) * self.num_workers
        )
        self.job.add_stage()
        if span is not None:
            tracer.end(
                span,
                end_ts=self.job.trace_ts(),
                broadcast_bytes=int(nbytes * self.num_workers * factor),
                records=len(records),
            )
        local = DataBag(records)
        self._broadcast_memo[id(value)] = (value, local)
        return local

    # -- UDF compilation -------------------------------------------------------------

    def _udf_compilation(self, fn: ScalarFn) -> Udf:
        """Close a UDF over the driver env (memoized by UDF identity,
        per job), broadcasting its free bag values and the bags its
        hoisted subplans compute.

        The same ``ScalarFn`` object commonly appears in several
        operators of one job (chained steps, a join key reused by a
        partitioner probe); resolving its bindings and compiling it once
        also means its broadcasts are counted once.  ``extra`` on the
        result is the *extra per-element op weight*: a UDF that scans a
        broadcast bag per element (the paper's nearest-centroid or
        blacklist-scan patterns) costs ``1 + |bag|`` ops per invocation.
        """
        cached = self._udf_memo.get(id(fn))
        if cached is not None and cached[0] is fn:
            return cached[1]
        # Deliberate cyclic garbage that refers to this executor, as the
        # run-time hoisting visitor once built here did: the executor,
        # and every bag it memoizes, is freed by the young-generation
        # collection after its last UDF miss, not at refcount zero
        # inside the job (+6 % ``q4_join`` ``job_wall_rel_p50``) nor at
        # the next full collection (``self._cycle = self``: +10 %
        # ``pagerank_iter`` ``peak_rss_mb``), both measured.  When to
        # free it is a decision of its own (ROADMAP item 10(vi)).
        cycle: list = [self]
        cycle.append(cycle)
        hoisted = {
            name: self.broadcast_value(
                JobExecutor(
                    self.engine, self.env, self.job, self._shared_state
                ).run_bag(plan).collect()
            )
            for name, plan in fn.hoisted
        }
        bindings, extra = self._udf_bindings(fn.free)
        bindings.update(hoisted)
        extra += sum(map(len, hoisted.values()))
        udf = Udf(fn.params, fn.body, bindings, extra, fn)
        self.count_udf(udf, fn)
        self._udf_memo[id(fn)] = (fn, udf)
        return udf

    def count_udf(self, udf: Udf, fn: ScalarFn | None = None) -> None:
        """Count a compiled UDF, or trace why it (``fn``) is interpreted."""
        reason = udf.fallback
        if reason is None:
            self.engine.metrics.udfs_compiled += 1
        else:
            fn = fn or udf.fn or ScalarFn(udf.params, udf.body)
            self._trace_interpreted(fn.describe(), reason)

    def _trace_interpreted(self, what: str, reason: str) -> None:
        """Point event: ``what`` runs on the tree-walking interpreter."""
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.event(
                "udf-interpreted",
                ts=self.job.trace_ts(),
                udf=what,
                reason=reason,
            )

    def _trace_interpreted_folds(
        self, specs: tuple[AlgebraSpec, ...], bindings: dict[str, Any]
    ) -> None:
        """The same event for each fold component (argument, fused head,
        guard) that the kernel has to call through an interpreting
        closure."""
        if self.engine.tracer is None:
            return
        for spec in specs:
            for params, body in spec.components():
                reason = fallback_reason(params, body, bindings)
                if reason is not None:
                    self._trace_interpreted(
                        f"{spec.alias}: {ScalarFn(params, body).describe()}",
                        reason,
                    )

    def _udf_bindings(
        self, names: tuple[str, ...]
    ) -> tuple[dict[str, Any], int]:
        """The values of the sorted free ``names`` in the driver env,
        each bag among them broadcast, and their per-element scan
        weight."""
        from repro.engines.base import BagHandle, DeferredBag

        cached = self._bindings_memo.get(names)
        if cached is not None:
            # Callers extend the dict with hoisted values; hand out a copy.
            return dict(cached[0]), cached[1]
        bindings: dict[str, Any] = {}
        extra = 0
        for name in names:
            if name not in self.env:
                raise EngineError(
                    f"UDF references unbound driver name {name!r}"
                )
            value = self.env[name]
            if isinstance(
                value, (DeferredBag, BagHandle, DataBag)
            ):
                local = self.broadcast_value(value)
                bindings[name] = local
                extra += len(local)
            else:
                bindings[name] = value
        self._bindings_memo[names] = (dict(bindings), extra)
        return bindings, extra

    def _charge_cpu(self, partition_index: int, ops: float) -> None:
        self.engine.metrics.element_ops += int(ops)
        self.charge_task(partition_index, self.engine.cost.cpu_seconds(ops))

    def charge_task(self, partition_index: int, seconds: float) -> None:
        """Charge one partition task to its worker.

        Every per-partition charge is one task attempt completing — the
        natural boundary at which the simulated scheduler would observe
        a crash, a lost heartbeat, or a straggler.
        """
        worker = self._worker_of(partition_index)
        self.job.charge_worker(worker, seconds)
        faults = self.engine.faults
        if faults is not None and faults.active:
            faults.on_task(
                self.engine, self.job, partition_index, worker, seconds
            )

    # -- hoisted shuffles --------------------------------------------------------------

    def _hoist_key(self, child: Combinator, key_ir: ScalarFn) -> tuple | None:
        """Cache key for a loop-invariant shuffled input, or ``None``.

        Only inputs the physical-properties pass marked ``hoistable``
        qualify, and only while every invariant leaf still resolves to
        the *same* cached bag handle — rebinding a name to a new handle
        (a re-cache) naturally invalidates the entry via ``id()``.
        """
        props = child.phys
        if props is None or props.motion != "hoistable":
            return None
        from repro.engines.base import BagHandle

        ref_ids = []
        for name in props.invariant_refs:
            value = self.env.get(name)
            if not isinstance(value, BagHandle):
                return None
            ref_ids.append(id(value))
        return (
            child.node_id,
            key_ir.canonical(),
            self.parallelism,
            tuple(ref_ids),
        )

    def _resolve_side(
        self, child: Combinator, key_ir: ScalarFn
    ) -> tuple[PartitionedBag, bool]:
        """Execute a shuffle-feeding input, serving hoisted hits.

        Returns ``(bag, hoisted)``; when ``hoisted`` the bag is already
        shuffled on ``key_ir`` and the whole subtree was skipped.
        """
        hkey = self._hoist_key(child, key_ir)
        if hkey is not None:
            # A budget eviction may have spilled the bag; the store
            # reloads it first (host mechanics only), so the hit
            # accounting below is identical either way.
            hit = self.engine.spill.store.get(("hoist", hkey), pin=True)
            if hit is not None:
                self.engine.metrics.shuffles_hoisted += 1
                self.engine.metrics.cache_read_bytes += hit.nbytes()
                tracer = self.engine.tracer
                if tracer is not None:
                    tracer.event(
                        "shuffle-hoisted",
                        ts=self.job.trace_ts(),
                        key=key_ir.describe(),
                    )
                return hit, True
        return self._exec(child), False

    def _repartitioned_pair(
        self,
        comb: CEqJoin | CSemiJoin,
        left: PartitionedBag,
        lhoisted: bool,
        right: PartitionedBag,
        rhoisted: bool,
        exchange: Combinator | None,
    ) -> tuple[PartitionedBag, PartitionedBag]:
        """Both inputs of a repartition join, shuffled on their keys.

        When *both* sides genuinely need motion — i.e. the physical
        planner left them ``required`` rather than elidable or
        hoistable — their bucket tasks have no dependency on each
        other, so they go to the scheduler as one fan-out (left tasks,
        then right, all in flight together) and the result splits by
        position.  A hoisted side arrives shuffled; an aligned side's
        shuffle elides inside :meth:`shuffle_by_key`.  The bucket lists
        live only in this frame: they are garbage before the probe
        allocates its output.
        """
        lpre = rpre = None
        if not (
            lhoisted
            or rhoisted
            or left.partitioned_on(comb.kx)
            or right.partitioned_on(comb.ky)
        ):
            n_parts = self.parallelism
            ltasks = self._bucket_tasks(
                left, comb.kx, n_parts, exchange, "bucket-left"
            )
            rtasks = self._bucket_tasks(
                right, comb.ky, n_parts, exchange, "bucket-right"
            )
            buckets = self._run_stage(ltasks + rtasks)
            lpre, rpre = buckets[: len(ltasks)], buckets[len(ltasks) :]
        if not lhoisted:
            left = self._shuffled_side(
                comb.left, left, comb.kx, lpre, exchange
            )
        if not rhoisted:
            right = self._shuffled_side(
                comb.right, right, comb.ky, rpre, exchange
            )
        return left, right

    def _shuffled_side(
        self,
        child: Combinator,
        bag: PartitionedBag,
        key_ir: ScalarFn,
        prebucketed: list | None = None,
        exchange: Combinator | None = None,
    ) -> PartitionedBag:
        """Shuffle a join/group input; store it when loop-invariant."""
        shuffled = self.shuffle_by_key(bag, key_ir, prebucketed, exchange)
        hkey = self._hoist_key(child, key_ir)
        if hkey is not None and ("hoist", hkey) not in self.engine.spill.store:
            # Memory-resident, like the memory cache tier: one local
            # pass to lay the partitions down, counted as cache traffic.
            self.job.charge_spread(
                self.engine.cost.cpu_seconds(shuffled.count())
            )
            nbytes = shuffled.nbytes()
            self.engine.metrics.cache_write_bytes += nbytes
            self.engine.spill.hoist(hkey, shuffled, nbytes)
        return shuffled

    def _shuffled_input(
        self,
        child: Combinator,
        key_ir: ScalarFn,
        exchange: Combinator | None = None,
    ) -> PartitionedBag:
        """Execute *and* shuffle an input, hoist-cache aware."""
        bag, hoisted = self._resolve_side(child, key_ir)
        if hoisted:
            return bag
        return self._shuffled_side(child, bag, key_ir, exchange=exchange)

    # -- join strategy -----------------------------------------------------------------

    def _broadcasts(
        self, phys: PhysProps | None, build_bytes: int, moved_bytes: int
    ) -> bool:
        """Whether a join broadcasts its build side (else repartitions).

        The threshold is a hard allowance: build sides above it never
        broadcast (they would not fit the simulated workers' memory
        budget).  Without a plan annotation (``phys`` None) that is
        the whole rule.  A planned ``repartition`` strategy stands,
        since some side's shuffle is already free; otherwise the cost
        model compares shipping the build side everywhere against
        moving the ``moved_bytes`` that are not motion-free.
        """
        if build_bytes > self.engine.broadcast_join_threshold:
            return False
        if phys is None:
            return True
        if phys.strategy == "repartition":
            return False
        cost = self.engine.cost
        return cost.broadcast_join_seconds(
            build_bytes, self.engine.broadcast_factor
        ) < cost.repartition_join_seconds(moved_bytes, self.num_workers)

    def _join_sides(
        self,
        comb: CEqJoin | CSemiJoin,
        build: Callable[[int, int], int],
    ) -> tuple:
        """Resolve and key both join inputs, then choose the strategy.

        Returns ``(left, lhoisted, right, rhoisted, cx, cy, lbytes,
        rbytes, broadcast)``.  ``build`` maps the two sides' bytes to
        the build side's; a plan compiled without physical planning
        carries no ``phys`` to honour.
        """
        left, lhoisted = self._resolve_side(comb.left, comb.kx)
        right, rhoisted = self._resolve_side(comb.right, comb.ky)
        cx = self._udf_compilation(comb.kx)
        cy = self._udf_compilation(comb.ky)
        lbytes, rbytes = left.nbytes(), right.nbytes()
        phys = comb.phys
        moved = 0
        if phys is not None:
            # A side moves for free when it was served from the hoist
            # cache, already carries the key's layout, or is loop-
            # invariant (its one shuffle amortizes over the iterations).
            for child, bag, key, hoisted, nbytes in (
                (comb.left, left, comb.kx, lhoisted, lbytes),
                (comb.right, right, comb.ky, rhoisted, rbytes),
            ):
                if not (
                    hoisted
                    or bag.partitioned_on(key)
                    or self._hoist_key(child, key) is not None
                ):
                    moved += nbytes
        broadcast = self._broadcasts(phys, build(lbytes, rbytes), moved)
        return (
            left, lhoisted, right, rhoisted, cx, cy, lbytes, rbytes, broadcast
        )

    # -- joins -------------------------------------------------------------------------

    def _exec_eq_join(self, comb: CEqJoin) -> PartitionedBag:
        # The smaller side is the build side.
        left, lhoisted, right, rhoisted, cx, cy, lbytes, rbytes, broadcast = (
            self._join_sides(comb, min)
        )
        if broadcast:
            # Broadcast join: ship the small side everywhere.
            self.engine.metrics.broadcast_joins += 1
            if rbytes <= lbytes:
                small, big = right, left
                cs, cb = cy, cx
                small_first = False
            else:
                small, big = left, right
                cs, cb = cx, cy
                small_first = True
            small_records = small.collect()
            self.broadcast_value(small_records)
            # Every worker builds the hash table (the spec's artifact).
            self.job.charge_all_workers(
                self.engine.cost.cpu_seconds(len(small_records))
            )
            spec = BroadcastProbeSpec(small_records, cs, cb, small_first)
            out = self._run_stage(
                [
                    PartitionTask(i, spec, p, "broadcast-join")
                    for i, p in enumerate(big.partitions)
                ]
            )
            for i, (p, rows) in enumerate(zip(big.partitions, out)):
                self._charge_cpu(i, len(p) + len(rows))
            return PartitionedBag(
                out, big.pair_partitioner(1 if small_first else 0)
            )
        # Repartition join.
        self.engine.metrics.repartition_joins += 1
        exchange = comb if self._exchange_active(comb) else None
        left, right = self._repartitioned_pair(
            comb, left, lhoisted, right, rhoisted, exchange
        )
        # Columnar probe: both sides' keys evaluate as columns over
        # the shuffled partitions' batches; a side of a pair that
        # failed to batch goes as a row list inside the same task, so
        # output pair order and every charge match the row probe.
        lvk, lbatches = self._exchange_prep(exchange, comb.kx, left)
        rvk, rbatches = self._exchange_prep(exchange, comb.ky, right)
        if lvk is None or rvk is None:
            lvk = rvk = None
            lbatches = rbatches = {}
        else:
            self.engine.metrics.columnar_joins += 1
        spec = JoinProbeSpec(
            cx,
            cy,
            lvk.schema if lvk is not None else None,
            rvk.schema if rvk is not None else None,
            prepared=(cx.closure, cy.closure, lvk, rvk),
        )
        self._count_blocks_shipped(len(lbatches) + len(rbatches))
        label = "join-probe-columnar" if lvk is not None else "join-probe"
        pairs = list(zip(left.partitions, right.partitions))
        out = self._run_stage(
            [
                PartitionTask(
                    i, spec, (lbatches.get(i, lp), rbatches.get(i, rp)), label
                )
                for i, (lp, rp) in enumerate(pairs)
            ]
        )
        for i, ((lp, rp), rows) in enumerate(zip(pairs, out)):
            self._charge_cpu(i, len(lp) + len(rp) + len(rows))
        return PartitionedBag(out, left.pair_partitioner(0))

    def _exec_semi_join(self, comb: CSemiJoin) -> PartitionedBag:
        # The right side's key set is the build side.
        left, lhoisted, right, rhoisted, cx, cy, _, _, broadcast = (
            self._join_sides(comb, lambda _lbytes, rbytes: rbytes)
        )
        if broadcast:
            self.engine.metrics.broadcast_joins += 1
            # Broadcast strategy: ship the (small) right side's key set;
            # the left side never moves and keeps its partitioning.
            ky = cy.closure
            keys = {ky(r) for r in right.records()}
            self.broadcast_value(list(keys))
            for i, p in enumerate(right.partitions):
                self._charge_cpu(i, len(p))
            spec = BroadcastSemiSpec(keys, cx, comb.anti)
            out = self._run_stage(
                [
                    PartitionTask(i, spec, p, "broadcast-semi")
                    for i, p in enumerate(left.partitions)
                ]
            )
            for i, p in enumerate(left.partitions):
                self._charge_cpu(i, len(p))
            return PartitionedBag(out, left.partitioner)
        self.engine.metrics.repartition_joins += 1
        # Repartition strategy: both sides shuffle *full records* on the
        # key (the target engines of the paper had no key-projected
        # semi-join — the unnested existential runs as a repartition
        # join whose probe side is deduplicated per key).  A side that
        # already carries the matching partitioning is not moved, which
        # is what partition pulling exploits.
        exchange = comb if self._exchange_active(comb) else None
        left, right = self._repartitioned_pair(
            comb, left, lhoisted, right, rhoisted, exchange
        )
        spec = SemiProbeSpec(cx, cy, comb.anti)
        pairs = list(zip(left.partitions, right.partitions))
        out = self._run_stage(
            [
                PartitionTask(i, spec, pair, "semi-probe")
                for i, pair in enumerate(pairs)
            ]
        )
        for i, (lp, rp) in enumerate(pairs):
            self._charge_cpu(i, len(lp) + len(rp))
        return PartitionedBag(out, left.partitioner)

    def _exec_cross(self, comb: CCross) -> PartitionedBag:
        left = self._exec(comb.left)
        right = self._exec(comb.right)
        # Broadcast the smaller side.
        if right.nbytes() <= left.nbytes():
            small_records = right.collect()
            big, small_on_right = left, True
        else:
            small_records = left.collect()
            big, small_on_right = right, False
        self.broadcast_value(small_records)
        out: list[list[Any]] = []
        for i, p in enumerate(big.partitions):
            if small_on_right:
                rows = [(x, y) for x in p for y in small_records]
            else:
                rows = [(y, x) for x in p for y in small_records]
            out.append(rows)
            # The nested loop touches every (row, small-record) pair
            # once and scans the partition once.
            self._charge_cpu(i, len(p) + len(rows))
        return PartitionedBag(out)

    # -- grouping / aggregation ------------------------------------------------------

    def _exec_group_by(self, comb: CGroupBy) -> PartitionedBag:
        key = self._udf_compilation(comb.key)
        key_fn, extra = key.closure, key.extra
        exchange = comb if self._exchange_active(comb) else None
        shuffled = self._shuffled_input(comb.input, comb.key, exchange)
        factor = self.engine.group_materialize_factor
        # Columnar grouping: the key evaluates as one column over each
        # shuffled partition's batch, and group boundaries come from
        # run detection over that column — insertion and value order
        # match the row dict's first-occurrence semantics exactly.
        gvk, gbatches = self._exchange_prep(exchange, comb.key, shuffled)
        if gvk is not None:
            self.engine.metrics.columnar_groups += 1
        # Graceful degradation: partitions whose in-memory group
        # materialization would blow the simulated worker memory limit
        # group through external run-merge instead of aborting — but
        # only when a driver memory budget opted the run into the
        # out-of-core layer, so budget-less runs keep the paper's hard
        # failure mode bit-for-bit.
        sizes = shuffled.partition_bytes()
        external = self._plan_external_groups(sizes)
        spec = GroupSpec(
            key,
            gvk.schema if gvk is not None else None,
            prepared=(key_fn, gvk),
        )
        tasks = [
            PartitionTask(i, spec, gbatches[i], "group-columnar")
            if i in gbatches
            else PartitionTask(i, spec, p, "group")
            for i, p in enumerate(shuffled.partitions)
            if i not in external
        ]
        self._count_blocks_shipped(
            sum(isinstance(t.data, ColumnBatch) for t in tasks)
        )
        group_rows = dict(
            zip((t.index for t in tasks), self._run_stage(tasks))
        )
        out: list[list[Any]] = []
        for i, p in enumerate(shuffled.partitions):
            if i in external:
                out.append(
                    self._external_group_partition(i, p, sizes[i], key_fn)
                )
                ops = len(p) * (1 + extra) * factor
                if len(p) > 1:
                    # External grouping sorts runs: n log n, like the
                    # Flink-style sort-based grouping it degrades to.
                    ops *= math.log2(len(p))
                self._charge_cpu(i, ops)
                # The run-merge streams through disk twice (write +
                # read), charged exactly like ``group_spill_to_disk``;
                # nothing lands in ``_worker_group_bytes``.
                self.job.charge_worker(
                    self._worker_of(i),
                    self.engine.cost.disk_seconds(2 * sizes[i]),
                )
                continue
            out.append(group_rows[i])
            ops = len(p) * (1 + extra) * factor
            if self.engine.group_spill_to_disk and len(p) > 1:
                # Sort-based grouping costs n log n, not n.
                ops *= math.log2(len(p))
            self._charge_cpu(i, ops)
            self._account_group_memory(i, sizes[i])
        return PartitionedBag(out, _grp_partitioner(shuffled))

    def _plan_external_groups(self, sizes: list[int]) -> set[int]:
        """Partition indexes that must group externally, or empty.

        Mirrors :meth:`_account_group_memory` exactly: walking the
        partitions in index order against the live per-worker residency
        counters, any partition whose materialization would push its
        worker over ``cost.memory_per_worker`` — i.e. precisely where
        the budget-less engine raises ``SimulatedMemoryError`` — is
        diverted to the external path (and its bytes never become
        resident).  Empty whenever the engine is unbounded, streams
        groups through disk anyway, or has no memory budget set.
        """
        engine = self.engine
        if (
            not engine.spill.active
            or not engine.group_memory_bound
            or engine.group_spill_to_disk
        ):
            return set()
        limit = engine.cost.memory_per_worker
        projected = list(self._worker_group_bytes)
        external: set[int] = set()
        for i, nbytes in enumerate(sizes):
            worker = self._worker_of(i)
            if projected[worker] + nbytes > limit:
                external.add(i)
            else:
                projected[worker] += nbytes
        return external

    def _external_group_partition(
        self, partition_index: int, p: list, nbytes: int, key_fn: Any
    ) -> list[Any]:
        """Group one partition through spill-file runs + merge.

        Run generation: the partition is cut into bounded-size runs,
        each grouped in memory and spilled to one file.  Merge: runs
        stream back in generation order, folding into the result map —
        ``setdefault`` + ``extend`` in run order reproduces the
        in-memory dict's key-first-occurrence and value-encounter order
        *exactly*, so the output is indistinguishable from the
        all-in-memory grouping.  File traffic is host mechanics,
        counted only in the spill metrics.
        """
        engine = self.engine
        dfs = engine.dfs
        metrics = engine.metrics
        # Runs sized to a quarter of the worker's allowance, so the
        # merge keeps at most one run plus the result map in flight.
        run_budget = max(1, engine.cost.memory_per_worker // 4)
        avg = max(1, nbytes // len(p)) if p else 1
        run_records = max(1, run_budget // avg)
        paths: list[str] = []
        try:
            for start in range(0, len(p), run_records):
                run = p[start : start + run_records]
                run_groups: dict[Any, list[Any]] = {}
                for x in run:
                    run_groups.setdefault(key_fn(x), []).append(x)
                buf = pickle.dumps(
                    list(run_groups.items()),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                paths.append(dfs.spill_put_bytes(buf, tag="extgroup"))
                metrics.spill_bytes_written += len(buf)
            merged: dict[Any, list[Any]] = {}
            for path in paths:
                buf = dfs.spill_get_bytes(path)
                metrics.spill_bytes_read += len(buf)
                for k, vs in pickle.loads(buf):
                    merged.setdefault(k, []).extend(vs)
        finally:
            for path in paths:
                dfs.spill_delete(path)
        metrics.external_merge_passes += 1
        if engine.tracer is not None:
            engine.tracer.event(
                "spill:external-merge",
                ts=self.job.trace_ts(),
                partition=partition_index,
                runs=len(paths),
                records=len(p),
            )
        return [Grp(k, DataBag(vs)) for k, vs in merged.items()]

    def _account_group_memory(self, partition_index: int, nbytes: int) -> None:
        if self.engine.group_spill_to_disk:
            # Streaming/sort-based grouping spills through local disk.
            seconds = self.engine.cost.disk_seconds(2 * nbytes)
            self.job.charge_worker(
                self._worker_of(partition_index), seconds
            )
            return
        worker = self._worker_of(partition_index)
        self._worker_group_bytes[worker] += nbytes
        used = self._worker_group_bytes[worker]
        if used > self.engine.metrics.peak_worker_bytes:
            self.engine.metrics.peak_worker_bytes = used
        if (
            self.engine.group_memory_bound
            and used > self.engine.cost.memory_per_worker
        ):
            raise SimulatedMemoryError(
                worker,
                used,
                self.engine.cost.memory_per_worker,
                partition=partition_index,
                operator="group_by",
                metrics=self.engine.metrics.snapshot(),
            )

    def _exec_agg_by(self, comb: CAggBy) -> PartitionedBag:
        # Map-side chain fusion: a private (unshared, unannotated)
        # chain feeding the aggregation streams straight into the
        # partial-aggregation accumulators — the chain's intermediate
        # result is never materialized at all.
        chain: CChain | None = None
        if (
            isinstance(comb.input, CChain)
            and not comb.input.shared
            and not comb.input.cache
            and comb.input.partition_hint is None
        ):
            chain = comb.input
            source = self._exec(chain.input)
            steps = self._kernel_steps(chain)
        else:
            source = self._exec(comb.input)
            steps = None
        key = self._udf_compilation(comb.key)
        bindings, spec_extra = self._udf_bindings(
            _spec_names(comb, comb.specs)
        )
        self._trace_interpreted_folds(comb.specs, bindings)
        n_algebras = len(comb.specs)
        extra = key.extra + spec_extra

        # The chain's output partitioning decides shuffle alignment.
        effective_partitioner = source.partitioner
        if chain is not None and not chain.preserves_partitioning():
            effective_partitioner = None
        aligned = effective_partitioner is not None and (
            effective_partitioner.matches(comb.key, source.num_partitions)
        )
        if steps is not None:
            self._charge_chain_overheads(len(steps))
            # The whole chain collapses into the aggregation's mapper
            # phase, so even its own task charge is saved.
            if self.engine.pipelined_chains:
                self.engine.metrics.tasks_saved += 1
        # Phase 1: mapper-side partial aggregation.
        chain_invocations = 0
        partials: list[list[tuple[Any, tuple]]] = []
        mspec = AggMapSpec(key, comb.specs, bindings, steps, node=comb)
        tasks = [
            PartitionTask(i, mspec, p, "agg-map")
            for i, p in enumerate(source.partitions)
        ]
        sizes = source.partition_bytes() if steps is not None else None
        for i, (p, (pairs, counts)) in enumerate(
            zip(source.partitions, self._run_stage(tasks))
        ):
            if steps is None:
                n_agg_inputs = len(p)
            else:
                entered, n_agg_inputs = self._charge_kernel(
                    steps, i, len(p), sizes[i], counts
                )
                chain_invocations += sum(entered)
            partials.append(pairs)
            self._charge_cpu(
                i,
                n_agg_inputs * (n_algebras + extra) + len(pairs),
            )
        if steps is not None:
            self.engine.metrics.udf_invocations += chain_invocations
        partial_bag = PartitionedBag(
            partials, effective_partitioner if aligned else None
        )
        if aligned:
            # The input already sits where the reducers need it; the
            # partial-aggregate shuffle disappears entirely.
            self.engine.metrics.shuffles_elided += 1
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.event(
                    "shuffle-elided",
                    ts=self.job.trace_ts(),
                    key=comb.key.describe(),
                )
        if not aligned:
            # Phase 2: only the partial aggregates are shuffled.
            partial_bag = self.shuffle_by_key(
                partial_bag,
                _PARTIAL_KEY,
                exchange=(
                    comb if self._exchange_active(comb) else None
                ),
            )
        # Phase 3: reducer-side merge.
        rspec = AggMergeSpec(comb.specs, bindings, node=comb)
        out = self._run_stage(
            [
                PartitionTask(i, rspec, p, "agg-merge")
                for i, p in enumerate(partial_bag.partitions)
            ]
        )
        for i, (p, rows) in enumerate(zip(partial_bag.partitions, out)):
            self._charge_cpu(i, len(p) * n_algebras + len(rows))
        return PartitionedBag(out, _grp_partitioner(partial_bag))

    def _exec_distinct(self, comb: CDistinct) -> PartitionedBag:
        source = self._exec(comb.input)
        shuffled = self.shuffle_by_key(source, _DISTINCT_KEY)
        out: list[list[Any]] = []
        for i, p in enumerate(shuffled.partitions):
            seen: set[Any] = set()
            rows: list[Any] = []
            for x in p:
                if x not in seen:
                    seen.add(x)
                    rows.append(x)
            out.append(rows)
            self._charge_cpu(i, len(p))
        return PartitionedBag(out, shuffled.partitioner)

    def _exec_union(self, comb: CUnion) -> PartitionedBag:
        left = self._exec(comb.left)
        right = self._exec(comb.right)
        n = max(left.num_partitions, right.num_partitions)
        out = [
            (left.partitions[i] if i < left.num_partitions else [])
            + (right.partitions[i] if i < right.num_partitions else [])
            for i in range(n)
        ]
        # Partition-wise concatenation of two bags hash-partitioned the
        # same way is still partitioned that way; keeping the
        # partitioner spares downstream joins/groupings a re-shuffle.
        partitioner = None
        if (
            right.partitioner is not None
            and left.num_partitions == right.num_partitions
            and left.partitioned_on(right.partitioner.key)
        ):
            partitioner = left.partitioner
        return PartitionedBag(out, partitioner)

    def _exec_minus(self, comb: CMinus) -> PartitionedBag:
        left = self._exec(comb.left)
        right = self._exec(comb.right)
        left = self.shuffle_by_key(left, _MINUS_KEY)
        right = self.shuffle_by_key(right, _MINUS_KEY)
        out: list[list[Any]] = []
        for i, (lp, rp) in enumerate(
            zip(left.partitions, right.partitions)
        ):
            remaining = Counter(rp)
            rows: list[Any] = []
            for x in lp:
                if remaining[x] > 0:
                    remaining[x] -= 1
                else:
                    rows.append(x)
            out.append(rows)
            self._charge_cpu(i, len(lp) + len(rp))
        return PartitionedBag(out, left.partitioner)

    # -- folds --------------------------------------------------------------------------

    def _exec_fold(self, comb: CFold) -> Any:
        tracer = self.engine.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                comb.label(),
                "operator",
                ts=self.job.trace_ts(),
                op=comb.describe(),
            )
        source = self._exec(comb.input)
        bindings, extra = self._udf_bindings(
            _spec_names(comb, (comb.spec,))
        )
        self._trace_interpreted_folds((comb.spec,), bindings)
        fspec = FoldSpec(comb.spec, bindings, node=comb)
        partial_values = self._run_stage(
            [
                PartitionTask(i, fspec, p, "fold")
                for i, p in enumerate(source.partitions)
            ]
        )
        for i, p in enumerate(source.partitions):
            self._charge_cpu(i, len(p) * (1 + extra))
        nbytes = sum(
            estimate_record_bytes(v) for v in partial_values
        )
        self.job.charge_driver(self.engine.cost.driver_seconds(nbytes))
        self.engine.metrics.driver_collect_bytes += nbytes
        self.job.charge_driver(
            self.engine.cost.cpu_seconds(len(partial_values))
        )
        if span is not None:
            tracer.end(
                span,
                end_ts=self.job.trace_ts(),
                rows_in=source.count(),
                partials=len(partial_values),
            )
        merge = FoldSpec(comb.spec, bindings, merge=True, node=comb)
        return merge.run(merge.prepared(), partial_values)

    # -- dispatch table -------------------------------------------------------------------

    _HANDLERS: dict[type, Callable] = {}


#: the shuffle keys the executor brings itself, one UDF each for the
#: life of the process, so their templates are built once
_PARTIAL_KEY = ScalarFn(("_p",), Index(Ref("_p"), Const(0)))
_DISTINCT_KEY = ScalarFn.identity("_d")
_MINUS_KEY = ScalarFn.identity("_m")


def _spec_names(
    comb: Combinator, specs: tuple[AlgebraSpec, ...]
) -> tuple[str, ...]:
    """The sorted free names of a fold node's algebras, once per node."""

    def names() -> tuple[str, ...]:
        out: frozenset[str] = frozenset()
        for spec in specs:
            out |= spec.free_vars()
        return tuple(sorted(out))

    return comb.artifact("spec-names", names)


def _grp_partitioner(shuffled: PartitionedBag) -> Partitioner | None:
    """Partitioner for keyed outputs (Grp/AggResult records).

    The data was just hash-partitioned on the grouping key, so the
    keyed output records are hash-partitioned on their ``.key``
    attribute — record that so downstream consumers can skip a shuffle.
    """
    if shuffled.partitioner is None:
        return None
    return Partitioner(GROUP_KEY, shuffled.num_partitions)


JobExecutor._HANDLERS = {
    CSource: JobExecutor._exec_source,
    CParallelize: JobExecutor._exec_parallelize,
    CBagRef: JobExecutor._exec_bag_ref,
    CMap: JobExecutor._exec_narrow,
    CFlatMap: JobExecutor._exec_narrow,
    CFilter: JobExecutor._exec_narrow,
    CChain: JobExecutor._exec_narrow,
    CEqJoin: JobExecutor._exec_eq_join,
    CSemiJoin: JobExecutor._exec_semi_join,
    CCross: JobExecutor._exec_cross,
    CGroupBy: JobExecutor._exec_group_by,
    CAggBy: JobExecutor._exec_agg_by,
    CDistinct: JobExecutor._exec_distinct,
    CUnion: JobExecutor._exec_union,
    CMinus: JobExecutor._exec_minus,
}
