"""Engine interface, lazy bag thunks, and cached bag handles.

Three kinds of driver-side bag values circulate between the driver
interpreter and an engine (mirroring Figure 3b's data-motion agents):

* :class:`DeferredBag` — a *thunk* [paper §4.3.2]: an unevaluated
  dataflow (combinator root plus an environment snapshot).  Consumed as
  a dataflow **input**, its lineage is inlined and recomputed within the
  consuming job — the lazy-evaluation semantics of Spark RDDs and Flink
  DataSets.  **Forced** (for a broadcast, a fetch, or a driver scalar),
  it executes once and memoizes the collected result, exactly like the
  paper's ``Thunk.force``.
* :class:`BagHandle` — a cached, materialized distributed bag.  The
  engine's cache policy decides the medium: the Spark-like engine keeps
  partitions in worker memory (cheap to re-read); the Flink-like engine
  has no in-memory cache and spills to the simulated DFS, paying
  read/write I/O on every use (the paper's Section 5.2 observation).
* a plain host collection / ``DataBag`` — driver-local data, shipped to
  the cluster (``parallelize``) on use.

Engines are deterministic simulators: they execute the dataflow on real
partitioned Python data while charging every byte and element operation
to the :class:`~repro.engines.costmodel.CostModel`.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig, PartitionedBag
from repro.engines.costmodel import CostModel
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.engines.metrics import JobRun, Metrics, counters_moved_by
from repro.engines.tracing import RuntimeTracer
from repro.errors import EngineError, SimulatedTimeout
from repro.lowering.combinators import Combinator, ScalarFn

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.scheduler import TaskScheduler
    from repro.optimizer.pipeline import EmmaConfig

#: the counters whose per-job deltas a job span reports: those the
#: planes or the memory budget move
_SPAN_COUNTERS = counters_moved_by("plane", "budget")


class DeferredBag:
    """A lazy dataflow thunk (see module docstring)."""

    __slots__ = ("engine", "root", "env", "_forced")

    def __init__(
        self, engine: "Engine", root: Combinator, env: dict[str, Any]
    ) -> None:
        self.engine = engine
        self.root = root
        self.env = env
        self._forced: list[Any] | None = None

    @property
    def is_forced(self) -> bool:
        return self._forced is not None

    def force_local(self) -> list[Any]:
        """Execute once and memoize the driver-collected records."""
        if self._forced is None:
            self._forced = self.engine.collect(self)
        return self._forced

    def __repr__(self) -> str:
        state = "forced" if self.is_forced else "lazy"
        return f"DeferredBag({self.root.describe()}, {state})"


@dataclass(eq=False)
class BagHandle:
    """A cached, materialized distributed bag.

    For recovery, a memory-cached handle records how to rebuild lost
    partitions: either its **lineage** (the combinator subtree plus the
    environment snapshot it was materialized from — a worker loss
    re-executes that subtree, stopping at upstream cached/DFS-backed
    bags, the recovery barriers) or a **driver replica** of the
    partition lists (for driver-originated data such as parallelized
    collections and stateful-update deltas, whose "lineage" is the
    driver itself).  DFS-backed handles need neither: the simulated
    DFS survives worker loss by construction.
    """

    engine: "Engine"
    bag: PartitionedBag
    storage: str  # "memory" | "dfs"
    dfs_path: str | None = None
    #: lineage for recomputation (combinator root + env snapshot)
    lineage_root: Combinator | None = None
    lineage_env: dict[str, Any] | None = None
    #: the partitioning enforced when the bag was cached (re-enforced
    #: on recomputation so recovered partitions line up exactly)
    partition_key: ScalarFn | None = None
    #: driver-side replica of the partition lists (recovery barrier
    #: for driver-originated data with no dataflow lineage)
    recovery_partitions: list[list[Any]] | None = None
    #: partition indexes currently lost to a worker failure
    lost_partitions: set[int] = field(default_factory=set)

    def count(self) -> int:
        """Number of records in the cached bag."""
        return self.bag.count()

    def mark_lost(self, worker: int, num_workers: int) -> list[int]:
        """Tombstone this handle's partitions resident on a dead worker.

        The stale lists are left in place so jobs that already hold the
        bag keep a consistent snapshot (a running task's input blocks
        are already fetched); the next cache *read* rebuilds every
        tombstoned partition and overwrites it — so an incorrect
        recomputation surfaces in downstream results rather than being
        masked by the stale copy.
        """
        if self.storage != "memory":
            return []  # DFS-backed caches survive worker loss.
        lost = [
            i
            for i in range(self.bag.num_partitions)
            if i % num_workers == worker and i not in self.lost_partitions
        ]
        self.lost_partitions.update(lost)
        return lost

    def __repr__(self) -> str:
        return f"BagHandle({self.bag!r}, storage={self.storage})"


class Engine:
    """Base simulated engine: configuration plus the driver-facing API.

    Subclasses set the class attributes that differentiate the execution
    models; all dataflow mechanics live in
    :class:`repro.engines.executor.JobExecutor`.
    """

    #: engine display name
    name = "abstract"
    #: broadcast cost multiplier (Flink's broadcast handling re-
    #: materializes per task and is substantially more expensive)
    broadcast_factor = 1.0
    #: where cached bags live: "memory" or "dfs"
    cache_storage = "memory"
    #: whether shuffles spill through local disk (Spark-style)
    shuffle_via_disk = True
    #: per-task driver-side scheduling overhead, seconds (centralized
    #: scheduling makes this grow with the number of partitions)
    task_overhead = 0.0
    #: whether the engine runs fused operator chains as one physical
    #: task (Flink's pipelined chains, Spark's fused narrow stages);
    #: when False a CChain still streams records through one kernel but
    #: is charged the per-operator scheduling overhead it would have
    #: paid unfused
    pipelined_chains = True
    #: extra element-op factor for materializing groups (groupBy)
    group_materialize_factor = 1.0
    #: whether groupBy materialization is bounded by worker memory
    group_memory_bound = False
    #: whether grouping streams through sorted disk spills instead of
    #: materializing groups in memory (Flink's sort-based grouping)
    group_spill_to_disk = False
    #: max estimated bytes of a build side for broadcast join strategy
    broadcast_join_threshold = 4 * 1024 * 1024
    #: partitioning-aware physical planning at runtime: cost-based join
    #: strategy choice on annotated plans, loop-invariant shuffle
    #: hoisting, and partitioner propagation through maps (toggled per
    #: run by ``EmmaConfig.physical_planning``)
    physical_planning = True

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        cost: CostModel | None = None,
        dfs: SimulatedDFS | None = None,
        time_budget: float | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint_interval: int = 0,
        execution_mode: str | None = None,
        max_parallel_tasks: int | None = None,
        columnar: str | None = None,
        columnar_exchange: str | None = None,
        memory_budget: int | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        self.cost = cost or CostModel()
        self.dfs = dfs or SimulatedDFS()
        self.time_budget = time_budget
        self.metrics = Metrics()
        self._cache_seq = 0
        #: every N stateful-bag updates, checkpoint the state to the
        #: DFS (0 = only the initial driver snapshot is kept)
        self.checkpoint_interval = checkpoint_interval
        self.faults: FaultInjector | None = None
        #: hierarchical span collector; None (the default) keeps every
        #: tracing call site a single attribute check
        self.tracer: RuntimeTracer | None = None
        self.retry_policy = retry_policy or RetryPolicy()
        if fault_plan is not None:
            self.configure_faults(fault_plan, retry_policy)
        #: live cached bags / stateful bags, notified on worker loss
        self._cached_handles: "weakref.WeakSet[BagHandle]" = (
            weakref.WeakSet()
        )
        self._stateful_bags: "weakref.WeakSet[Any]" = weakref.WeakSet()
        #: columnar-at-rest batch cache: per source bag (weak, so
        #: batches die with the bag), keyed by schema + projection and
        #: stamped with the partition-list identities/lengths so any
        #: partition replacement (e.g. lineage recovery) invalidates.
        #: Purely a packing-cost cache — hits change no observable.
        self._batch_cache: "weakref.WeakKeyDictionary[PartitionedBag, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        #: lazily built host-parallel task scheduler (see ``scheduler``)
        self._scheduler: "TaskScheduler | None" = None
        # ``None`` adopts the (environment-overridable) defaults so CI
        # can flip every engine to the parallel backend at once.
        from repro.engines.scheduler import (
            default_execution_mode,
            default_max_parallel_tasks,
        )

        self.configure_execution(
            execution_mode
            if execution_mode is not None
            else default_execution_mode(),
            max_parallel_tasks
            if max_parallel_tasks is not None
            else default_max_parallel_tasks(),
        )
        from repro.engines.columnar import (
            default_columnar_exchange,
            default_columnar_mode,
        )

        self.configure_columnar(
            columnar if columnar is not None else default_columnar_mode()
        )
        self.configure_columnar_exchange(
            columnar_exchange
            if columnar_exchange is not None
            else default_columnar_exchange()
        )
        #: optional cross-run plan/result cache; ``None`` falls back to
        #: the ``REPRO_PLAN_CACHE_DIR`` environment default (see
        #: :func:`repro.engines.plancache.default_plan_cache`)
        self.plan_cache = None
        from repro.engines.spill import SpillManager, default_memory_budget

        #: the driver's out-of-core layer: residency tracking, LRU
        #: spill-to-disk, and the per-run hoist cache for
        #: loop-invariant shuffled inputs — keys ``("hoist", (node id,
        #: canonical key, parallelism, input handle identities))`` of
        #: ``spill.store``, dropped by :meth:`begin_run` and on worker
        #: loss
        self.spill = SpillManager(self)
        self.configure_memory(
            memory_budget
            if memory_budget is not None
            else default_memory_budget()
        )

    def attach_plan_cache(self, cache) -> None:
        """Serve this engine's compiles from a shared fingerprint cache.

        If the cache has no memory limit of its own but this engine
        runs under a memory budget — set now or later, through
        :meth:`configure_memory` — the budget bounds the cache's
        resident bytes too: cold entries drop to their disk tier like
        any other spillable state.
        """
        self.plan_cache = cache
        if cache is not None and not cache.memory_limit and self.spill.limit:
            cache.set_memory_limit(self.spill.limit, metrics=self.metrics)

    def configure_memory(self, budget: int) -> None:
        """Set the driver memory budget (bytes; 0 = unlimited).

        Lowering the budget mid-run evicts immediately — the mechanism
        behind the ``MEMORY_SQUEEZE`` chaos event.  Spilling is host-
        resource mechanics only: results, ``simulated_seconds``, and
        fault schedules are bit-identical under any budget.
        """
        self.spill.configure(budget)
        self.attach_plan_cache(self.plan_cache)

    def configure_columnar(self, mode: str) -> None:
        """Select the columnar data plane mode (``auto``/``on``/``off``)."""
        from repro.engines.columnar import check_columnar_mode

        self.columnar_mode = check_columnar_mode(mode)

    def configure_columnar_exchange(self, mode: str) -> None:
        """Select the columnar exchange plane (``auto``/``on``/``off``)."""
        from repro.engines.columnar import check_columnar_mode

        self.columnar_exchange_mode = check_columnar_mode(
            mode, "columnar exchange"
        )

    # -- host-parallel execution backend ----------------------------------

    def configure_execution(
        self,
        mode: str | None = None,
        max_parallel_tasks: int | None = None,
    ) -> None:
        """Select how partition tasks are dispatched.

        ``mode`` is ``"serial"`` (tasks run inline, in order, in the
        driver) or ``"processes"`` (a spawn-context
        ``ProcessPoolExecutor`` with source-shipped chain kernels; a
        differential-testing backend, slower than serial).  A negative
        ``max_parallel_tasks`` is rejected.  An argument left at
        ``None`` keeps its current setting.  Any existing scheduler is
        dropped so the next job builds one with the new settings.
        """
        from repro.engines.scheduler import EXECUTION_MODES

        if max_parallel_tasks is not None and max_parallel_tasks < 0:
            raise EngineError(
                f"max_parallel_tasks must be non-negative, got "
                f"{max_parallel_tasks!r}"
            )
        if mode is not None:
            if mode not in EXECUTION_MODES:
                raise EngineError(
                    f"unknown execution_mode {mode!r}: expected one of "
                    f"{', '.join(EXECUTION_MODES)}"
                )
            self.execution_mode = mode
        if max_parallel_tasks is not None:
            self.max_parallel_tasks = max_parallel_tasks
        self._scheduler = None

    @property
    def scheduler(self) -> "TaskScheduler":
        """The engine's task scheduler, built on first use.

        Pools are created on a mode's first task, so a serial-mode
        scheduler costs nothing; it is rebuilt after every
        :meth:`configure_execution` so mode and width changes take
        effect immediately.
        """
        if self._scheduler is None:
            from repro.engines.scheduler import TaskScheduler

            self._scheduler = TaskScheduler(
                mode=self.execution_mode,
                max_parallel_tasks=self.max_parallel_tasks,
            )
        return self._scheduler

    # -- fault configuration ----------------------------------------------

    def configure_faults(
        self,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        """Install (or clear, with ``plan=None``) a fault schedule."""
        if policy is not None:
            self.retry_policy = policy
        if plan is None:
            self.faults = None
            return
        self.faults = FaultInjector(
            plan, self.retry_policy, self.cluster.num_workers
        )

    def apply_runtime_config(self, config: "EmmaConfig") -> None:
        """Adopt what an :class:`EmmaConfig` sets for the engine.

        Called by :meth:`Algorithm.run <repro.frontend.parallelize.
        Algorithm.run>`.  Every config field declares in its metadata
        what takes its value here — an attribute of the engine, or a
        (method, keyword) pair; fields that share a method go down in
        one call.  A field left at ``None`` changes nothing: an engine
        keeps what it was constructed with.
        """
        calls: dict[str, dict[str, Any]] = {}
        for f in dataclasses.fields(config):
            target, value = f.metadata["engine"], getattr(config, f.name)
            if target is None or value is None:
                continue
            if isinstance(target, str):
                setattr(self, target, value)
            else:
                method, keyword = target
                calls.setdefault(method, {})[keyword] = value
        for method, kwargs in calls.items():
            getattr(self, method)(**kwargs)

    def begin_run(self) -> None:
        """Reset per-run planner state (the hoist cache).

        Called at the start of every compiled driver-program run so
        runs are deterministic in isolation: nothing hoisted in an
        earlier run leaks into the next one.
        """
        self.spill.store.drop(("hoist",))

    def enable_tracing(self, on: bool = True) -> RuntimeTracer | None:
        """Install (idempotently) and return the engine's span tracer;
        ``on=False`` installs nothing and removes nothing."""
        if on and self.tracer is None:
            self.tracer = RuntimeTracer(engine=self.name)
        return self.tracer

    def disable_tracing(self) -> None:
        """Stop collecting spans (already-collected spans are kept by
        whoever holds the tracer)."""
        self.tracer = None

    # -- worker loss and recovery -----------------------------------------

    def on_worker_lost(self, worker: int, job: JobRun) -> None:
        """Process a worker death: cached memory partitions on the dead
        node are tombstoned (rebuilt lazily from lineage on the next
        cache read), and stateful bags restore their lost partitions
        from the last checkpoint plus the update log immediately."""
        num_workers = self.cluster.num_workers
        # Hoisted shuffled inputs live in worker memory without
        # tombstone bookkeeping: drop them all and let the next
        # iteration recompute (and re-hoist) from the cached sources.
        self.spill.store.drop(("hoist",))
        for handle in list(self._cached_handles):
            lost = handle.mark_lost(worker, num_workers)
            if lost:
                # A spilled partition of a dead worker lived on that
                # worker's local disk: its spill file is unusable and
                # the partition goes through the same lineage recovery
                # as a resident one (identical fault schedules).
                self.spill.on_partitions_lost(handle, lost)
        for bag in list(self._stateful_bags):
            bag.on_worker_lost(worker, job)

    def _recover_handle(self, handle: BagHandle, job: JobRun) -> None:
        """Rebuild a handle's tombstoned partitions.

        Lineage-backed handles re-execute their combinator subtree —
        upstream cached bags and DFS sources act as recovery barriers,
        so the recomputation is as narrow as the surviving ancestry
        allows — and re-enforce the cached partitioning, which makes
        the rebuilt layout identical to the lost one.  Driver-backed
        handles re-ship the replica.  Recovery work is charged into
        the consuming job and never triggers further fault injection.
        """
        from repro.engines.executor import JobExecutor

        lost = sorted(handle.lost_partitions)
        if not lost:
            return
        before = job.total_seconds()
        guard = self.faults.suspend() if self.faults else nullcontext()
        with guard:
            if handle.lineage_root is not None:
                executor = JobExecutor(
                    self, dict(handle.lineage_env or {}), job
                )
                bag = executor.run_bag(handle.lineage_root)
                key = handle.partition_key
                if key is not None and not bag.partitioned_on(key):
                    bag = executor.shuffle_by_key(bag, key)
                if bag.num_partitions != handle.bag.num_partitions:
                    raise EngineError(
                        "lineage recomputation produced "
                        f"{bag.num_partitions} partitions where the "
                        f"cached bag had {handle.bag.num_partitions}",
                        partition=lost[0],
                        metrics=self.metrics.snapshot(),
                    )
                rebuilt = bag.partitions
            elif handle.recovery_partitions is not None:
                from repro.engines.sizes import estimate_bag_bytes

                rebuilt = handle.recovery_partitions
                nbytes = sum(
                    estimate_bag_bytes(rebuilt[i]) for i in lost
                )
                job.charge_driver(self.cost.driver_seconds(nbytes))
                self.metrics.driver_ship_bytes += nbytes
            else:
                raise EngineError(
                    f"cached partitions {lost} were lost with neither "
                    "lineage nor a driver replica to rebuild them from",
                    partition=lost[0],
                    metrics=self.metrics.snapshot(),
                )
            for i in lost:
                handle.bag.partitions[i] = list(rebuilt[i])
        handle.lost_partitions.clear()
        self.spill.register_cache_partitions(handle, lost)
        self.metrics.partitions_recomputed += len(lost)
        self.metrics.recovery_seconds += job.total_seconds() - before
        if self.tracer is not None:
            self.tracer.event(
                "recover:partitions",
                ts=job.trace_ts(),
                partitions=len(lost),
                source="lineage"
                if handle.lineage_root is not None
                else "driver-replica",
                seconds=round(job.total_seconds() - before, 9),
            )

    # -- driver-facing API -------------------------------------------------

    def defer(
        self, root: Combinator, env: Mapping[str, Any]
    ) -> DeferredBag:
        """Wrap a bag-typed dataflow as a lazy thunk (no execution)."""
        return DeferredBag(self, root, dict(env))

    def run_scalar(self, root: Combinator, env: Mapping[str, Any]) -> Any:
        """Execute a fold/write dataflow now and return its result."""
        from repro.engines.executor import JobExecutor

        job = self._new_job()
        result = JobExecutor(self, dict(env), job).run(root)
        self._finish_job(job)
        return result

    def collect(self, value: Any) -> list[Any]:
        """Materialize any bag value on the driver (``fetch``)."""
        if isinstance(value, DataBag):
            return value.fetch()
        if isinstance(value, list):
            return list(value)
        if isinstance(value, DeferredBag):
            if value.is_forced:
                return value.force_local()
            from repro.engines.executor import JobExecutor

            job = self._new_job()
            bag = JobExecutor(self, value.env, job).run_bag(value.root)
            nbytes = bag.nbytes()
            job.charge_driver(self.cost.driver_seconds(nbytes))
            self.metrics.driver_collect_bytes += nbytes
            self._finish_job(job)
            return bag.collect()
        if isinstance(value, BagHandle):
            job = self._new_job()
            bag = self._read_cached(value, job)
            nbytes = bag.nbytes()
            job.charge_driver(self.cost.driver_seconds(nbytes))
            self.metrics.driver_collect_bytes += nbytes
            self._finish_job(job)
            return bag.collect()
        raise EngineError(
            f"cannot collect a {type(value).__name__} as a bag"
        )

    def cache(
        self, value: Any, partition_key: ScalarFn | None = None
    ) -> BagHandle:
        """Materialize ``value`` per the engine's cache policy.

        With ``partition_key``, the bag is hash-partitioned on that key
        *before* being stored (the partition-pulling optimization pays
        its one shuffle here, amortized over later uses).
        """
        from repro.engines.executor import JobExecutor

        job = self._new_job()
        executor = JobExecutor(self, {}, job)
        lineage_root: Combinator | None = None
        lineage_env: dict[str, Any] | None = None
        if isinstance(value, DeferredBag):
            executor.env = value.env
            bag = executor.run_bag(value.root)
            lineage_root, lineage_env = value.root, dict(value.env)
        elif isinstance(value, BagHandle):
            bag = self._read_cached(value, job)
            lineage_root = value.lineage_root
            if value.lineage_env is not None:
                lineage_env = dict(value.lineage_env)
        elif isinstance(value, DataBag):
            bag = executor.parallelize_local(value.fetch())
        elif isinstance(value, list):
            bag = executor.parallelize_local(value)
        else:
            raise EngineError(
                f"cannot cache a {type(value).__name__} as a bag"
            )
        if partition_key is not None and not bag.partitioned_on(partition_key):
            bag = executor.shuffle_by_key(bag, partition_key)
        handle = self._store_cached(
            bag,
            job,
            lineage_root=lineage_root,
            lineage_env=lineage_env,
            partition_key=partition_key,
        )
        self._finish_job(job)
        return handle

    # -- cache policy ------------------------------------------------------

    def _store_cached(
        self,
        bag: PartitionedBag,
        job: JobRun,
        lineage_root: Combinator | None = None,
        lineage_env: dict[str, Any] | None = None,
        partition_key: ScalarFn | None = None,
    ) -> BagHandle:
        nbytes = bag.nbytes()
        if self.cache_storage == "memory":
            # Writing to the in-memory store costs one local pass.
            job.charge_spread(self.cost.cpu_seconds(bag.count()))
            self.metrics.cache_write_bytes += nbytes
            if self.spill.tracks_any(bag):
                # Spilling mutates partition-list slots in place, so a
                # registered handle must own its lists exclusively —
                # re-caching a cached bag gets fresh copies (the
                # constructor copies every partition list).
                bag = PartitionedBag(bag.partitions, bag.partitioner)
            recovery = None
            if lineage_root is None:
                # Driver-originated data has no dataflow lineage; keep a
                # driver replica so worker loss remains recoverable.
                recovery = [list(p) for p in bag.partitions]
            handle = BagHandle(
                self,
                bag,
                "memory",
                lineage_root=lineage_root,
                lineage_env=lineage_env,
                partition_key=partition_key,
                recovery_partitions=recovery,
            )
            self._cached_handles.add(handle)
            self.spill.pin_handle(handle)
            self.spill.register_cache_partitions(handle)
            return handle
        # DFS-backed cache: pay a distributed write now ...
        self._cache_seq += 1
        path = f"__cache__/{self.name}/{self._cache_seq}"
        self.dfs.put(path, bag.collect())
        job.charge_spread(self.cost.dfs_write_seconds(nbytes))
        self.metrics.dfs_write_bytes += nbytes
        self.metrics.cache_write_bytes += nbytes
        handle = BagHandle(self, bag, "dfs", dfs_path=path)
        self._cached_handles.add(handle)
        return handle

    def _read_cached(self, handle: BagHandle, job: JobRun) -> PartitionedBag:
        """Access a cached bag, charging per the storage medium."""
        if handle.lost_partitions:
            self._recover_handle(handle, job)
        if handle.storage == "memory":
            # Reload any spilled partitions before the bag escapes (and
            # pin the handle for the rest of the job).  Reloads charge
            # no simulated time, so the accounting below is identical
            # whether or not the bag ever left memory.
            self.spill.unspill_handle(handle)
        nbytes = handle.bag.nbytes()
        if handle.storage == "memory":
            self.metrics.cache_read_bytes += nbytes
            return handle.bag
        # ... and a distributed read on every use.
        job.charge_spread(self.cost.dfs_read_seconds(nbytes))
        self.metrics.dfs_read_bytes += nbytes
        self.metrics.cache_read_bytes += nbytes
        # A DFS round-trip loses the in-memory partitioning only if the
        # engine does not track it; partitioning survives because the
        # cache stores partition boundaries with the file.
        return handle.bag

    # -- job lifecycle -------------------------------------------------------

    def _new_job(self) -> JobRun:
        job = JobRun(
            self.cluster.num_workers,
            self.metrics,
            start_ts=self.metrics.simulated_seconds,
        )
        if self.tracer is not None:
            index = self.tracer.next_job_index()
            job.span = self.tracer.begin(
                f"job {index}",
                "job",
                ts=job.start_ts,
                job_index=index,
                workers=self.cluster.num_workers,
            )
            job.counters_start = self.metrics.snapshot()
        self.spill.begin_job(job)
        job.wall_started = time.perf_counter()
        return job

    def _finish_job(self, job: JobRun) -> float:
        job_time = job.finish(
            fixed_overhead=self.cost.job_overhead,
            stage_overhead=self.cost.stage_overhead,
        )
        # Wall clock is measured, not simulated: it is the one metric
        # allowed to differ between execution modes.
        wall = time.perf_counter() - job.wall_started
        self.metrics.wall_clock_seconds += wall
        self.spill.end_job()
        if self.tracer is not None and job.span is not None:
            # Per-job deltas of the plane and budget counters, under
            # their own names, where the job moved them.
            now, start = self.metrics, job.counters_start
            extra = {
                name: getattr(now, name) - getattr(start, name)
                for name in _SPAN_COUNTERS
                if getattr(now, name) != getattr(start, name)
            }
            self.tracer.end_at_duration(
                job.span,
                job_time,
                stages=job.stages,
                busy_seconds=round(max(job.worker_seconds, default=0.0), 9),
                driver_seconds=round(job.driver_seconds, 9),
                wall_clock_seconds=round(wall, 6),
                **extra,
            )
        if (
            self.time_budget is not None
            and self.metrics.simulated_seconds > self.time_budget
        ):
            raise SimulatedTimeout(
                self.metrics.simulated_seconds,
                self.time_budget,
                metrics=self.metrics.snapshot(),
            )
        return job_time

    def reset_metrics(self) -> None:
        """Start a fresh metrics accumulation (between experiments)."""
        self.metrics = Metrics()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.cluster.num_workers})"
        )
