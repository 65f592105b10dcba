"""Execution metrics for simulated engines.

A :class:`Metrics` object accumulates, over a whole driver-program run:

* ``simulated_seconds`` — the modelled wall-clock time.  Each submitted
  dataflow job contributes ``max`` over the workers of their busy time
  (compute + I/O + network), plus fixed job/stage overheads; jobs are
  serial from the driver's perspective, so job times add up.
* byte counters — shuffled, broadcast, DFS read/written, driver
  collected/shipped;
* element operation counters per operator family.

Per-job accounting goes through :class:`JobRun`: operators charge
per-worker busy seconds into the job; ``finish()`` folds the job into
the engine metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


def _moved_by(axis: str, default: Any = 0) -> Any:
    """A counter that the physical knob ``axis`` may move without
    changing the program's meaning: ``mode`` (it measures the host —
    wall clock, the scheduler's own accounting — so it is never
    compared), ``plane`` (the columnar chain and exchange planes),
    ``budget`` (the driver memory budget) or ``cache`` (plan/result
    cache state).  Every undeclared counter must be identical across
    all of them; the physical-lattice harness compares
    :meth:`Metrics.invariant` over exactly the axes a run varies."""
    return field(default=default, metadata={"axis": axis})


@dataclass
class Metrics:
    """Aggregate counters for one engine over one program run."""

    simulated_seconds: float = 0.0
    jobs_submitted: int = 0
    stages_run: int = 0

    shuffle_bytes: int = 0
    broadcast_bytes: int = 0
    dfs_read_bytes: int = 0
    dfs_write_bytes: int = 0
    driver_collect_bytes: int = 0
    driver_ship_bytes: int = 0
    cache_write_bytes: int = 0
    cache_read_bytes: int = 0

    element_ops: int = 0
    udf_invocations: int = 0
    records_shuffled: int = 0
    records_broadcast: int = 0

    #: physical join strategy decisions (the paper's JIT choice between
    #: a broadcast and a repartition realization, Section 4.2.1)
    broadcast_joins: int = 0
    repartition_joins: int = 0

    # -- partitioning-aware physical planning ------------------------------
    #: shuffles skipped because the producer already delivered the
    #: required hash partitioning (interesting-properties elision)
    shuffles_elided: int = 0
    #: loop-invariant shuffle inputs served from the per-run hoist
    #: cache instead of being recomputed and re-shuffled
    shuffles_hoisted: int = 0

    #: operators executed inside fused chains (physical pipelining)
    chained_operators: int = 0
    #: per-operator task-overhead charges eliminated by chaining
    tasks_saved: int = 0
    #: UDFs compiled to native Python closures (vs interpreter fallback)
    udfs_compiled: int = 0
    #: shared subplans reused from the per-job DAG memo instead of
    #: re-executed (diamond plans, repeated lazy lineages)
    dag_memo_hits: int = 0

    #: peak bytes materialized on any single worker (group building etc.)
    peak_worker_bytes: int = 0

    # -- fault injection and recovery accounting --------------------------
    #: task attempts re-run after an injected crash or worker loss
    tasks_retried: int = 0
    #: cached in-memory partitions rebuilt from lineage after worker loss
    partitions_recomputed: int = 0
    #: workers lost (and replaced by fresh nodes) during the run
    workers_lost: int = 0
    #: workers blacklisted after repeated task failures
    workers_blacklisted: int = 0
    #: straggler delays injected into task attempts
    stragglers_injected: int = 0
    #: periodic stateful-bag checkpoints written to the DFS
    checkpoints_written: int = 0
    #: stateful-bag restores performed after a worker loss
    checkpoint_restores: int = 0
    #: logged state updates replayed on top of restored checkpoints
    state_updates_replayed: int = 0
    #: simulated seconds spent on retries, recomputation, and restores
    recovery_seconds: float = 0.0

    # -- host-parallel execution backend -----------------------------------
    #: *measured* host wall-clock seconds across jobs — the one metric
    #: that may legitimately differ between execution modes (and between
    #: runs); everything else above stays bit-identical
    wall_clock_seconds: float = _moved_by("mode", 0.0)
    #: partition tasks executed through the task scheduler
    parallel_tasks: int = _moved_by("mode")
    #: scheduler stage launches (one per fan-out of partition tasks)
    parallel_stages: int = _moved_by("mode")
    #: pickled bytes shipped to worker processes (task specs + data)
    ipc_bytes_shipped: int = _moved_by("mode")
    #: pickled bytes returned from worker processes (task results)
    ipc_bytes_returned: int = _moved_by("mode")
    #: kernels/UDFs rebuilt from source in a worker process (memo miss)
    kernels_rehydrated: int = _moved_by("mode")
    #: parallel stages that fell back to in-process serial execution
    serial_fallbacks: int = _moved_by("mode")

    # -- columnar batch data plane ------------------------------------------
    #: partitions converted to ColumnBatch form for a vector kernel
    columnar_batches_built: int = _moved_by("plane")
    #: vectorized (batch-at-a-time) chain kernels compiled
    columnar_kernels: int = _moved_by("plane")
    #: chains or partitions that fell back to the row kernel at runtime
    #: (unsupported record layout, binding values, mixed partitions)
    columnar_fallbacks: int = _moved_by("plane")
    # Fallbacks broken down by reason family (they sum to
    # ``columnar_fallbacks``), so exchange fallbacks are diagnosable
    # from the summary line alone:
    #: ... because the UDF is outside the vectorizable scalar subset
    columnar_fallbacks_udf: int = _moved_by("plane")
    #: ... because the partition's record layout defeated the batch
    #: build (mixed record types, ragged tuples, column build errors)
    columnar_fallbacks_schema: int = _moved_by("plane")
    #: ... because the input was not columnar-at-rest (empty partition,
    #: unsupported record type, no batch available)
    columnar_fallbacks_input: int = _moved_by("plane")

    # -- columnar exchange plane --------------------------------------------
    #: shuffles that partitioned batch-at-a-time over a key column
    columnar_shuffles: int = _moved_by("plane")
    #: repartition joins that built/probed over key columns
    columnar_joins: int = _moved_by("plane")
    #: group-bys that grouped over a key column
    columnar_groups: int = _moved_by("plane")
    #: exchange payloads shipped to process-pool workers as typed
    #: column buffers instead of pickled row lists
    columnar_blocks_shipped: int = _moved_by("mode")

    # -- UDF-aware operator reordering --------------------------------------
    # Compile-time decisions copied from the OptimizationReport by
    # ``Algorithm.run`` so one metrics object tells the whole story;
    # identical across execution modes (compilation is mode-independent).
    #: UDF read/write-set analyses performed by the reordering pass
    udfs_analyzed: int = 0
    #: operator reorderings applied (filters pushed below joins,
    #: groupings, distincts; filters swapped before maps)
    reorders_applied: int = 0
    #: reorderings rejected on cost grounds (would invalidate a
    #: hoisted loop-invariant shuffle)
    reorders_rejected: int = 0

    # -- memory-budgeted out-of-core execution ------------------------------
    # Spill traffic is host-resource mechanics: these counters (and wall
    # clock) are the only things a finite memory budget is allowed to
    # move — results, simulated_seconds, and fault schedules stay
    # bit-identical spill-on vs spill-off.
    #: real bytes written to the DFS spill tier (evictions, external
    #: merge runs)
    spill_bytes_written: int = _moved_by("budget")
    #: real bytes read back from the spill tier (reloads, merges)
    spill_bytes_read: int = _moved_by("budget")
    #: resident partitions evicted to spill files under budget pressure
    partitions_spilled: int = _moved_by("budget")
    #: spilled partitions lazily reloaded on their next access
    partitions_reloaded: int = _moved_by("budget")
    #: group-by partitions grouped through external run-merge instead
    #: of all-in-memory materialization (graceful degradation)
    external_merge_passes: int = _moved_by("budget")
    #: budget-pressure evictions performed (any owner kind)
    budget_evictions: int = _moved_by("budget")

    # -- cross-run fingerprint caching --------------------------------------
    # Cache traffic is driver mechanics, like spill: hits skip host
    # work (compilation, whole executions) without moving results or
    # ``simulated_seconds`` of the runs that do execute.
    #: compiled plans served from the fingerprint plan cache
    plan_cache_hits: int = _moved_by("cache")
    #: plan-cache lookups that fell through to a fresh compile
    plan_cache_misses: int = _moved_by("cache")
    #: submissions answered from the memoized result cache (no job ran)
    result_cache_hits: int = _moved_by("cache")
    #: result-cache lookups that fell through to a real execution
    result_cache_misses: int = _moved_by("cache")
    #: host compile seconds skipped thanks to plan-cache hits
    compile_seconds_saved: float = _moved_by("cache", 0.0)
    #: batch-submission members executed to backfill a partial
    #: result-cache hit (the rest were served memoized)
    backfill_partitions: int = _moved_by("cache")
    #: cold cache entries dropped from driver memory to their disk tier
    cache_entries_evicted: int = _moved_by("cache")

    def snapshot(self) -> "Metrics":
        """A copy of the current counters (for before/after deltas)."""
        return Metrics(**vars(self))

    def invariant(self, *axes: str) -> dict[str, Any]:
        """The counters that must be identical between two runs of one
        program that differ only in the physical knobs ``axes`` (see
        :func:`_moved_by`); host measurements are never included."""
        skip = counters_moved_by("mode", *axes)
        return {
            name: value
            for name, value in vars(self).items()
            if name not in skip
        }

    def delta_since(self, earlier: "Metrics") -> "Metrics":
        """Counter-wise difference ``self - earlier``."""
        out = Metrics()
        for name, value in vars(self).items():
            setattr(out, name, value - getattr(earlier, name))
        # Peaks do not subtract meaningfully; report the later peak.
        out.peak_worker_bytes = self.peak_worker_bytes
        return out

    def merge(self, other: "Metrics") -> None:
        """Counter-wise accumulate ``other`` into this object.

        The aggregation the job service uses to roll per-job metrics
        up into service totals; peaks take the max rather than adding.
        """
        for name, value in vars(other).items():
            if name == "peak_worker_bytes":
                self.peak_worker_bytes = max(self.peak_worker_bytes, value)
            else:
                setattr(self, name, getattr(self, name) + value)

    def summary(self) -> str:
        """A compact human-readable summary line."""
        base = (
            f"t={self.simulated_seconds:.3f}s jobs={self.jobs_submitted} "
            f"shuffle={_fmt_bytes(self.shuffle_bytes)} "
            f"bcast={_fmt_bytes(self.broadcast_bytes)} "
            f"dfs_r={_fmt_bytes(self.dfs_read_bytes)} "
            f"dfs_w={_fmt_bytes(self.dfs_write_bytes)} "
            f"ops={self.element_ops}"
        )
        if self.shuffles_elided or self.shuffles_hoisted:
            base += (
                f" elided={self.shuffles_elided} "
                f"hoisted={self.shuffles_hoisted}"
            )
        if self.parallel_tasks:
            base += (
                f" | ptasks={self.parallel_tasks} "
                f"wall={self.wall_clock_seconds:.3f}s "
                f"ipc={_fmt_bytes(self.ipc_bytes_shipped)}/"
                f"{_fmt_bytes(self.ipc_bytes_returned)} "
                f"fallbacks={self.serial_fallbacks}"
            )
        if self.reorders_applied or self.reorders_rejected:
            base += (
                f" | reorders={self.reorders_applied}"
                f"(-{self.reorders_rejected} rejected) "
                f"udfs_analyzed={self.udfs_analyzed}"
            )
        if self.columnar_kernels or self.columnar_fallbacks:
            base += (
                f" | col_kernels={self.columnar_kernels} "
                f"col_batches={self.columnar_batches_built} "
                f"col_fallbacks={self.columnar_fallbacks}"
            )
            if self.columnar_fallbacks:
                base += (
                    f"(udf={self.columnar_fallbacks_udf}"
                    f" schema={self.columnar_fallbacks_schema}"
                    f" input={self.columnar_fallbacks_input})"
                )
        if (
            self.columnar_shuffles
            or self.columnar_joins
            or self.columnar_groups
        ):
            base += (
                f" | col_shuffles={self.columnar_shuffles} "
                f"col_joins={self.columnar_joins} "
                f"col_groups={self.columnar_groups} "
                f"col_blocks={self.columnar_blocks_shipped}"
            )
        if self.spill_happened:
            base += " | " + self.spill_summary()
        if self.cache_happened:
            base += " | " + self.cache_summary()
        if self.recovery_happened:
            base += " | " + self.recovery_summary()
        return base

    @property
    def cache_happened(self) -> bool:
        """Whether the fingerprint cache layer saw any traffic."""
        return bool(
            self.plan_cache_hits
            or self.plan_cache_misses
            or self.result_cache_hits
            or self.result_cache_misses
            or self.backfill_partitions
            or self.cache_entries_evicted
        )

    def cache_summary(self) -> str:
        """The fingerprint-cache accounting as one human-readable line."""
        return (
            f"plan_cache={self.plan_cache_hits}/"
            f"{self.plan_cache_hits + self.plan_cache_misses} "
            f"result_cache={self.result_cache_hits}/"
            f"{self.result_cache_hits + self.result_cache_misses} "
            f"compile_saved={self.compile_seconds_saved:.3f}s "
            f"backfill={self.backfill_partitions} "
            f"cache_evict={self.cache_entries_evicted}"
        )

    @property
    def spill_happened(self) -> bool:
        """Whether the out-of-core layer did any work this run."""
        return bool(
            self.spill_bytes_written
            or self.spill_bytes_read
            or self.partitions_spilled
            or self.partitions_reloaded
            or self.external_merge_passes
            or self.budget_evictions
        )

    def spill_summary(self) -> str:
        """The out-of-core accounting as one human-readable line."""
        return (
            f"spill_w={_fmt_bytes(self.spill_bytes_written)} "
            f"spill_r={_fmt_bytes(self.spill_bytes_read)} "
            f"spilled={self.partitions_spilled} "
            f"reloaded={self.partitions_reloaded} "
            f"ext_merges={self.external_merge_passes} "
            f"evictions={self.budget_evictions}"
        )

    @property
    def recovery_happened(self) -> bool:
        """Whether any fault was injected or any recovery performed."""
        return bool(
            self.tasks_retried
            or self.partitions_recomputed
            or self.workers_lost
            or self.workers_blacklisted
            or self.stragglers_injected
            or self.checkpoints_written
            or self.checkpoint_restores
        )

    def recovery_summary(self) -> str:
        """The fault/recovery accounting as one human-readable line."""
        return (
            f"retried={self.tasks_retried} "
            f"recomputed={self.partitions_recomputed} "
            f"lost={self.workers_lost} "
            f"blacklisted={self.workers_blacklisted} "
            f"stragglers={self.stragglers_injected} "
            f"ckpt_w={self.checkpoints_written} "
            f"ckpt_r={self.checkpoint_restores} "
            f"replayed={self.state_updates_replayed} "
            f"recovery_t={self.recovery_seconds:.3f}s"
        )


def counters_moved_by(*axes: str) -> tuple[str, ...]:
    """The :class:`Metrics` counters declared on any of ``axes``, in
    declaration order."""
    return tuple(
        f.name for f in fields(Metrics) if f.metadata.get("axis") in axes
    )


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024  # type: ignore[assignment]
    return f"{n}B"


class JobRun:
    """Per-worker busy-time accounting for a single dataflow job."""

    def __init__(
        self,
        num_workers: int,
        metrics: Metrics,
        start_ts: float = 0.0,
    ) -> None:
        self.num_workers = num_workers
        self.metrics = metrics
        self.worker_seconds = [0.0] * num_workers
        self.driver_seconds = 0.0
        self.stages = 0
        #: position of the job on the simulated clock (the engine's
        #: ``metrics.simulated_seconds`` when the job was created)
        self.start_ts = start_ts
        #: the job's trace span when tracing is enabled
        self.span = None
        #: host ``perf_counter`` at job start, for the *measured*
        #: ``wall_clock_seconds`` (distinct from the simulated clock)
        self.wall_started = 0.0
        #: the engine's counters at job start, taken only when the job
        #: is traced — the job span reports the per-job deltas
        self.counters_start: Metrics | None = None

    def charge_worker(self, worker: int, seconds: float) -> None:
        """Add busy time to one worker (index wraps)."""
        self.worker_seconds[worker % self.num_workers] += seconds

    def charge_all_workers(self, seconds_each: float) -> None:
        """Add the same busy time to every worker (e.g. a broadcast)."""
        for w in range(self.num_workers):
            self.worker_seconds[w] += seconds_each

    def charge_spread(self, total_seconds: float) -> None:
        """Charge work that parallelizes perfectly across workers."""
        self.charge_all_workers(total_seconds / self.num_workers)

    def charge_driver(self, seconds: float) -> None:
        """Add serial driver-side time to the job."""
        self.driver_seconds += seconds

    def add_stage(self) -> None:
        """Record a stage boundary (shuffle/broadcast) for overheads."""
        self.stages += 1

    def total_seconds(self) -> float:
        """Sum of all busy time charged so far (recovery deltas)."""
        return sum(self.worker_seconds) + self.driver_seconds

    def elapsed(self) -> float:
        """The job's critical path so far: its simulated clock.

        Monotone under every charge, so trace spans timestamped with it
        nest correctly (a child opened later never starts earlier).
        """
        busy = max(self.worker_seconds) if self.worker_seconds else 0.0
        return busy + self.driver_seconds

    def trace_ts(self) -> float:
        """Current absolute simulated time within this job."""
        return self.start_ts + self.elapsed()

    def finish(self, fixed_overhead: float, stage_overhead: float) -> float:
        """Fold this job into the metrics; return the job's time."""
        busy = max(self.worker_seconds) if self.worker_seconds else 0.0
        job_time = (
            fixed_overhead
            + self.stages * stage_overhead
            + busy
            + self.driver_seconds
        )
        self.metrics.simulated_seconds += job_time
        self.metrics.jobs_submitted += 1
        self.metrics.stages_run += self.stages
        return job_time
