"""Deterministic fault injection for the simulated cluster.

Real targets of the paper treat failure handling as an *engine* duty:
Spark recomputes lost partitions from lineage, Flink restores iterative
state from checkpoints.  This module gives the simulated engines the
same duty, deterministically, so that every recovery path can be
exercised under test and the chaos-differential suite can assert that a
faulty run is bit-identical to a fault-free one.

Three fault kinds, injected at task boundaries (every per-partition
unit of work the :class:`~repro.engines.executor.JobExecutor` charges,
plus each state-partition update of a
:class:`~repro.engines.stateful.DistributedStatefulBag`):

* **task crash** — the attempt fails; the scheduler retries it on the
  same worker with capped exponential backoff, re-charging the task's
  compute time per attempt (a fused chain kernel is *replayed* whole —
  the chain is one task).  A worker that accumulates failures is
  **blacklisted**: subsequent tasks for its partitions are charged to
  the next healthy worker.  A task that exhausts
  :attr:`RetryPolicy.max_attempts` fails the job with
  :class:`~repro.errors.TaskFailedError`.
* **worker loss** — the worker dies and is immediately replaced by a
  fresh node in the same slot (so the ``partition %% num_workers``
  placement is preserved).  Everything *cached in that worker's
  memory* is gone: in-memory :class:`~repro.engines.base.BagHandle`
  partitions are dropped (rebuilt lazily from lineage on next read)
  and stateful-bag partitions are restored from the last checkpoint
  plus the update log.  DFS-backed caches and checkpoints survive —
  they are the recovery barriers.
* **straggler** — the task completes but the worker is charged an
  extra delay, skewing the job's critical path.

Determinism: every decision is a pure function of the plan's ``seed``
and the injector's monotonically increasing task counter (via
:func:`~repro.engines.cluster.stable_hash`), so a given program on a
given engine sees the exact same fault schedule on every run.  This
holds under the host-parallel execution backend too: the
:class:`~repro.engines.executor.JobExecutor` fires ``on_task`` from its
driver-side charging loops, which walk partitions in ascending index
order *after* the :mod:`~repro.engines.scheduler` has collected the
(out-of-order, possibly multi-process) task results — the task counter
advances by logical task coordinate, never by wall-clock completion
order, so serial and process-pool runs draw identical fault schedules.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.engines.cluster import stable_hash
from repro.errors import EngineError, TaskFailedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import Engine
    from repro.engines.metrics import JobRun

#: fault kinds
CRASH = "crash"
WORKER_LOSS = "worker_loss"
STRAGGLER = "straggler"
#: chaos event for the out-of-core layer: shrink the driver memory
#: budget mid-run (forcing spills) without any simulated-time charge
MEMORY_SQUEEZE = "memory_squeeze"

_KINDS = frozenset({CRASH, WORKER_LOSS, STRAGGLER, MEMORY_SQUEEZE})


@dataclass(frozen=True)
class FaultEvent:
    """One explicitly targeted fault.

    Coordinates left as ``None`` are wildcards; the event fires (once)
    at the first task boundary matching every specified coordinate.
    ``attempts`` applies to crashes: how many consecutive attempts of
    the task fail before it succeeds (``attempts >=``
    :attr:`RetryPolicy.max_attempts` makes the task fail permanently).
    ``budget`` applies to memory squeezes: the new driver memory budget
    in bytes (spilling is host mechanics, so a squeeze changes no
    simulated observable — it just forces the spill machinery to work).
    """

    kind: str
    task: int | None = None
    job: int | None = None
    partition: int | None = None
    worker: int | None = None
    attempts: int = 1
    budget: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise EngineError(f"unknown fault kind {self.kind!r}")

    def matches(
        self, job: int, task: int, partition: int, worker: int
    ) -> bool:
        """Whether this event targets the given task coordinates."""
        return (
            (self.task is None or self.task == task)
            and (self.job is None or self.job == job)
            and (self.partition is None or self.partition == partition)
            and (self.worker is None or self.worker == worker)
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How the simulated scheduler reacts to task failures."""

    #: attempts per task (first run + retries) before permanent failure
    max_attempts: int = 4
    #: base scheduling backoff before a retry, seconds
    backoff_seconds: float = 0.01
    #: exponential backoff growth per consecutive retry
    backoff_factor: float = 2.0
    #: failures on one worker before it is blacklisted
    blacklist_after: int = 3
    #: cap on the fraction of workers that may be blacklisted
    max_blacklisted_fraction: float = 0.5

    def backoff_total(self, attempts: int) -> float:
        """Total backoff paid across ``attempts`` consecutive retries."""
        return sum(
            self.backoff_seconds * self.backoff_factor**i
            for i in range(attempts)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Probabilistic rates draw from a hash of ``(seed, kind, task)`` —
    reproducible and independent of wall-clock or interpreter state.
    ``events`` adds explicitly targeted one-shot faults on top.  The
    ``max_*`` budgets bound the probabilistic injections (explicit
    events are exempt) so aggressive rates cannot starve a long run.
    """

    seed: int = 17
    task_crash_prob: float = 0.0
    worker_loss_prob: float = 0.0
    straggler_prob: float = 0.0
    #: extra busy time charged to a straggling worker, seconds
    straggler_delay_seconds: float = 0.05
    #: consecutive failed attempts per probabilistically injected crash
    crash_attempts: int = 1
    max_task_crashes: int | None = None
    max_worker_losses: int | None = None
    max_stragglers: int | None = None
    events: tuple[FaultEvent, ...] = ()

    @staticmethod
    def aggressive(seed: int = 17) -> "FaultPlan":
        """The chaos-suite default: every fault kind, guaranteed.

        Explicit early events make at least one crash, one worker
        loss, and one straggler certain even in short runs; the
        probabilistic background keeps long runs under steady fire.
        """
        return FaultPlan(
            seed=seed,
            task_crash_prob=0.03,
            worker_loss_prob=0.01,
            straggler_prob=0.03,
            max_task_crashes=64,
            max_worker_losses=8,
            max_stragglers=64,
            events=(
                FaultEvent(CRASH, task=3),
                FaultEvent(STRAGGLER, task=5),
                FaultEvent(WORKER_LOSS, task=11),
            ),
        )

    @staticmethod
    def spill_pressure(
        seed: int = 29, budget: int = 64 * 1024
    ) -> "FaultPlan":
        """Spill-under-pressure chaos: squeeze the budget, then crash.

        The memory budget collapses to ``budget`` bytes early in the
        run (evicting resident partitions to spill files), then the
        aggressive-style fault mix fires *while* the engine is
        operating out of core — crashes retried mid-spill, a worker
        lost while its cached partitions sit in spill files.  Results
        must still be bit-identical to an unconstrained fault-free run.
        """
        return FaultPlan(
            seed=seed,
            task_crash_prob=0.03,
            worker_loss_prob=0.01,
            straggler_prob=0.03,
            max_task_crashes=64,
            max_worker_losses=8,
            max_stragglers=64,
            events=(
                FaultEvent(MEMORY_SQUEEZE, task=2, budget=budget),
                FaultEvent(CRASH, task=4),
                FaultEvent(STRAGGLER, task=6),
                FaultEvent(WORKER_LOSS, task=12),
            ),
        )

    def uniform(self, kind: str, task: int) -> float:
        """Deterministic draw in ``[0, 1)`` for one decision point."""
        h = stable_hash((self.seed, kind, task))
        # One multiplicative mix so neighbouring task indices decorrelate.
        return ((h * 2654435761) & 0xFFFFFFFF) / 2**32


class FaultInjector:
    """Per-engine runtime state for one :class:`FaultPlan`.

    The plan is immutable configuration; the injector tracks what has
    actually been injected (budgets, per-worker failure counts, the
    blacklist) and is consulted by the executor and the stateful bags
    at every task boundary.
    """

    def __init__(
        self, plan: FaultPlan, policy: RetryPolicy, num_workers: int
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.num_workers = num_workers
        self.task_seq = 0
        self.injected_crashes = 0
        self.injected_losses = 0
        self.injected_stragglers = 0
        self.worker_failures: Counter[int] = Counter()
        self.blacklisted: set[int] = set()
        self._fired_events: set[int] = set()
        self._suspended = 0

    # -- recovery re-entrancy guard ---------------------------------------

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """No injection inside recovery work (bounded recovery)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    @property
    def active(self) -> bool:
        return self._suspended == 0

    # -- worker placement --------------------------------------------------

    def effective_worker(self, worker: int) -> int:
        """Reroute a blacklisted worker's tasks to the next healthy one."""
        if not self.blacklisted:
            return worker
        w = worker % self.num_workers
        for _ in range(self.num_workers):
            if w not in self.blacklisted:
                return w
            w = (w + 1) % self.num_workers
        raise EngineError(
            "all simulated workers are blacklisted", worker=worker
        )

    # -- the task boundary -------------------------------------------------

    def on_task(
        self,
        engine: "Engine",
        job: "JobRun",
        partition: int,
        worker: int,
        task_seconds: float,
    ) -> None:
        """Consult the plan at one completed task attempt.

        May charge retry/straggler time into ``job``, blacklist the
        worker, trigger a worker loss on the engine, or raise
        :class:`TaskFailedError` for a permanently failing task.
        """
        if not self.active:
            return
        task = self.task_seq
        self.task_seq += 1
        job_index = engine.metrics.jobs_submitted
        plan = self.plan

        for idx, event in enumerate(plan.events):
            if idx in self._fired_events:
                continue
            if not event.matches(job_index, task, partition, worker):
                continue
            self._fired_events.add(idx)
            if event.kind == MEMORY_SQUEEZE:
                # Pure host-resource chaos: re-budget (and spill) now,
                # charging nothing — the simulation must not notice.
                if tracer := engine.tracer:
                    tracer.event(
                        f"fault:{MEMORY_SQUEEZE}",
                        ts=job.trace_ts(),
                        task=task,
                        budget=event.budget,
                    )
                engine.configure_memory(event.budget)
                continue
            self._apply(
                event.kind,
                engine,
                job,
                task,
                partition,
                worker,
                task_seconds,
                attempts=event.attempts,
            )

        if (
            plan.task_crash_prob
            and self._within(plan.max_task_crashes, self.injected_crashes)
            and plan.uniform(CRASH, task) < plan.task_crash_prob
        ):
            self._apply(
                CRASH,
                engine,
                job,
                task,
                partition,
                worker,
                task_seconds,
                attempts=plan.crash_attempts,
            )
        if (
            plan.worker_loss_prob
            and self._within(plan.max_worker_losses, self.injected_losses)
            and plan.uniform(WORKER_LOSS, task) < plan.worker_loss_prob
        ):
            self._apply(
                WORKER_LOSS, engine, job, task, partition, worker,
                task_seconds,
            )
        if (
            plan.straggler_prob
            and self._within(plan.max_stragglers, self.injected_stragglers)
            and plan.uniform(STRAGGLER, task) < plan.straggler_prob
        ):
            self._apply(
                STRAGGLER, engine, job, task, partition, worker,
                task_seconds,
            )

    @staticmethod
    def _within(budget: int | None, used: int) -> bool:
        return budget is None or used < budget

    # -- fault application -------------------------------------------------

    def _apply(
        self,
        kind: str,
        engine: "Engine",
        job: "JobRun",
        task: int,
        partition: int,
        worker: int,
        task_seconds: float,
        attempts: int = 1,
    ) -> None:
        tracer = engine.tracer
        if tracer is not None:
            tracer.event(
                f"fault:{kind}",
                ts=job.trace_ts(),
                task=task,
                partition=partition,
                worker=worker,
                attempts=attempts,
            )
        if kind == CRASH:
            self._crash(
                engine, job, task, partition, worker, task_seconds, attempts
            )
        elif kind == WORKER_LOSS:
            self._lose_worker(
                engine, job, partition, worker, task_seconds
            )
        elif kind == STRAGGLER:
            self.injected_stragglers += 1
            engine.metrics.stragglers_injected += 1
            job.charge_worker(worker, self.plan.straggler_delay_seconds)

    def _crash(
        self,
        engine: "Engine",
        job: "JobRun",
        task: int,
        partition: int,
        worker: int,
        task_seconds: float,
        attempts: int,
    ) -> None:
        metrics = engine.metrics
        if attempts >= self.policy.max_attempts:
            raise TaskFailedError(
                f"task {task} (partition {partition}, worker {worker}) "
                f"failed permanently after {attempts} attempts",
                job=metrics.jobs_submitted,
                task=task,
                partition=partition,
                worker=worker,
                metrics=metrics.snapshot(),
            )
        self.injected_crashes += 1
        metrics.tasks_retried += attempts
        # Each retry replays the task (for a fused chain: the whole
        # kernel) and pays the scheduler's backoff.
        extra = attempts * task_seconds + self.policy.backoff_total(attempts)
        job.charge_worker(worker, extra)
        metrics.recovery_seconds += extra
        self.worker_failures[worker] += attempts
        if (
            self.worker_failures[worker] >= self.policy.blacklist_after
            and worker not in self.blacklisted
            and (len(self.blacklisted) + 1)
            <= self.policy.max_blacklisted_fraction * self.num_workers
        ):
            self.blacklisted.add(worker)
            metrics.workers_blacklisted += 1

    def _lose_worker(
        self,
        engine: "Engine",
        job: "JobRun",
        partition: int,
        worker: int,
        task_seconds: float,
    ) -> None:
        self.injected_losses += 1
        metrics = engine.metrics
        metrics.workers_lost += 1
        with self.suspend():
            engine.on_worker_lost(worker, job)
        # A fresh node takes the dead worker's slot; the in-flight task
        # attempt is re-run there.
        metrics.tasks_retried += 1
        extra = task_seconds + self.policy.backoff_seconds
        job.charge_worker(worker, extra)
        metrics.recovery_seconds += extra
        # The replacement node starts with a clean failure record.
        self.worker_failures[worker] = 0
