"""Distributed keyed state — the engine-side StatefulBag (paper §3.1).

A :class:`DistributedStatefulBag` keeps one element per key,
hash-partitioned across the simulated workers (partitioned *by key*, so
downstream joins/groupings on the key reuse the partitioning — the
reason PageRank benefits more from caching than k-means in Section 5.2:
"PageRank stores the vertices and their ranks already partitioned by
the vertex ID in-memory in a form that is ready to be consumed by the
next iteration").

It mirrors the :class:`repro.core.stateful.StatefulBag` API so the
driver IR nodes (``StatefulUpdate`` etc.) work polymorphically over the
local and distributed implementations:

* ``bag()`` — a zero-copy snapshot as a partitioned bag;
* ``update(u)`` — per-partition point-wise update, returns the delta;
* ``update_with_messages(messages, u)`` — messages are shuffled to the
  state partitions by key and applied; returns the delta.

One key places the elements, must survive every update, and is the
partitioning snapshots and deltas claim when it has IR of its own.  The
partitions stay on the driver; an update is one pure
:class:`~repro.engines.scheduler.StateUpdateSpec` task per partition
through ``run_stage``, and the apply step (write, log, charge, fault
boundary) follows the stage in ascending partition order.

Fault tolerance (Flink-style iterative-state checkpointing): the bag
always holds a *checkpoint* — initially the construction-time snapshot,
which is free because the records came from the driver — plus a log of
per-partition update deltas.  Updates are keyed value replacements
(keys are never added or removed), so checkpoint + delta replay is an
exact reconstruction.  With ``engine.checkpoint_interval = N`` the
checkpoint rolls forward to the DFS every N updates and the log
truncates, bounding replay work; a worker loss restores only the dead
worker's partitions and replays only their logged deltas.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.comprehension.exprs import Attr, Call, Ref
from repro.core.databag import DataBag
from repro.core.stateful import KEY_ATTRS, _default_key
from repro.engines.chainkernel import Udf
from repro.engines.cluster import PartitionedBag, Partitioner, hash_partition_index
from repro.engines.scheduler import PartitionTask, StateUpdateSpec
from repro.engines.sizes import estimate_bag_bytes
from repro.errors import EmmaError
from repro.lowering.combinators import ScalarFn


def _as_udf(fn: Any, params: tuple[str, ...]) -> Udf:
    """``fn`` as a :class:`Udf`; a plain callable becomes a call of it."""
    if isinstance(fn, Udf):
        return fn
    return Udf(params, Call(Ref("_fn"), tuple(map(Ref, params))), {"_fn": fn})


def _default_key_udf(sample: Any) -> Udf:
    """The default key of elements like ``sample``: ``key``, else ``id``."""
    for attr in KEY_ATTRS:
        if hasattr(sample, attr):
            return Udf(("_s",), Attr(Ref("_s"), attr))
    raise EmmaError("stateful elements need a 'key' or 'id' attribute, or a key")


def _key_ir(key: Udf) -> ScalarFn | None:
    """The partitioning a key can claim: its IR, when it is closed."""
    return None if key.bindings else ScalarFn(key.params, key.body)


class DistributedStatefulBag:
    """Keyed state partitioned across simulated workers."""

    def __init__(
        self,
        engine: Any,
        records: list[Any],
        key: Udf | Callable[[Any], Any] | None = None,
    ) -> None:
        self.engine = engine
        parallelism = engine.cluster.parallelism
        self._partitions: list[dict] = [{} for _ in range(parallelism)]
        if key is None:
            key = _default_key_udf(records[0]) if records else _default_key
        self._key = _as_udf(key, ("_s",))
        key_ir = _key_ir(self._key)
        #: the partitioning snapshots and deltas claim
        self._partitioner = None if key_ir is None else Partitioner(key_ir, parallelism)
        place = self._key.closure
        for record in records:
            k = place(record)
            idx = hash_partition_index(k, parallelism)
            if k in self._partitions[idx]:
                raise EmmaError(
                    f"duplicate key {k!r} while constructing stateful bag"
                )
            self._partitions[idx][k] = record
        # Checkpoint 0: the initial state (driver-resident, free).
        self._checkpoint = [dict(p) for p in self._partitions]
        #: (update_seq, partition_index, {key: new}) since last checkpoint
        self._log: list[tuple[int, int, dict[Any, Any]]] = []
        self._update_seq = 0
        registry = getattr(engine, "_stateful_bags", None)
        if registry is not None:
            registry.add(self)

    # -- snapshot -----------------------------------------------------------

    def bag(self) -> PartitionedBag:
        """Snapshot as a partitioned bag (keeps the key partitioning)."""
        return PartitionedBag(
            [list(p.values()) for p in self._partitions], self._partitioner
        )

    def count(self) -> int:
        """Number of keyed elements currently held."""
        return sum(len(p) for p in self._partitions)

    def __len__(self) -> int:
        return self.count()

    # -- updates ---------------------------------------------------------------

    def update(self, u: Udf | Callable[[Any], Optional[Any]]) -> Any:
        """Point-wise update over all elements; returns the delta."""
        spec = StateUpdateSpec(_as_udf(u, ("_s",)), self._key)
        job = self.engine._new_job()
        return self._run(job, "StatefulUpdate", spec, None, keys=self.count())

    def update_with_messages(
        self,
        messages: Any,
        u: Udf | Callable[[Any, Any], Optional[Any]],
        message_key: Udf | Callable[[Any], Any] | None = None,
    ) -> Any:
        """Apply keyed messages to the state; returns the delta.

        ``messages`` may be a DeferredBag/BagHandle/DataBag/local list —
        it is executed/collected as needed and shuffled to the state
        partitions by ``message_key`` (default: ``key``, else ``id``).
        """
        job, message_bag = self._materialize_messages(messages)
        if message_key is None:
            sample = next(message_bag.records(), None)
            # With no message to route, any key routes them alike.
            route = self._key if sample is None else _default_key_udf(sample)
        else:
            route = _as_udf(message_key, ("_s",))
        spec = StateUpdateSpec(_as_udf(u, ("_s", "_m")), self._key, route)
        return self._run(
            job,
            "StatefulUpdateWithMessages",
            spec,
            message_bag,
            keys=self.count(),
            messages=message_bag.count(),
        )

    def _run(
        self,
        job: Any,
        label: str,
        spec: StateUpdateSpec,
        message_bag: PartitionedBag | None,
        **attrs: Any,
    ) -> Any:
        """One update job: a task per state partition, then the apply.

        A partition's changes are logged *before* its task boundary: a
        worker loss observed there restores the partition from
        checkpoint + log, which must include the update it absorbed.
        """
        from repro.engines.executor import JobExecutor

        tracer = self.engine.tracer
        if tracer is not None:
            span = tracer.begin(label, "operator", ts=job.trace_ts(), **attrs)
        executor = JobExecutor(self.engine, {}, job)
        for udf in spec.udfs:
            executor.count_udf(udf)
        if message_bag is None:
            payloads = list(self._partitions)
            ops = [len(p) for p in payloads]
        else:
            routed = self._route(job, message_bag, spec.udfs[2])
            payloads = list(zip(self._partitions, routed))
            ops = [len(m) for m in routed]
        self._update_seq += 1
        results = executor._run_stage(
            [PartitionTask(i, spec, p, spec.kind) for i, p in enumerate(payloads)]
        )
        delta_parts: list[list[Any]] = []
        for i, changed in enumerate(results):
            self._partitions[i].update(changed)
            delta_parts.append(list(changed.values()))
            if changed:
                self._log.append((self._update_seq, i, changed))
            executor.charge_task(i, self.engine.cost.cpu_seconds(ops[i]))
        self._maybe_checkpoint(job)
        if tracer is not None:
            updated = sum(len(p) for p in delta_parts)
            tracer.end(span, end_ts=job.trace_ts(), updated=updated)
        self.engine._finish_job(job)
        return self._delta_handle(delta_parts)

    def _route(
        self, job: Any, message_bag: PartitionedBag, route: Udf
    ) -> list[list[Any]]:
        """Each state partition's messages: shuffled there, unless the
        bag is already partitioned on the routing key."""
        parallelism = len(self._partitions)
        route_ir = _key_ir(route)
        partitioner = message_bag.partitioner
        if route_ir is not None and partitioner is not None and (
            partitioner.matches(route_ir, parallelism)
        ):
            self.engine.metrics.shuffles_elided += 1
            if self.engine.tracer is not None:
                self.engine.tracer.event(
                    "shuffle-elided", ts=job.trace_ts(), key=route_ir.describe()
                )
            return message_bag.partitions
        moved = estimate_bag_bytes(message_bag.collect())
        job.charge_spread(self.engine.cost.network_seconds(moved))
        self.engine.metrics.shuffle_bytes += moved
        job.add_stage()
        return PartitionedBag.by_key(
            message_bag.records(), route.closure, None, parallelism
        ).partitions

    # -- fault tolerance -------------------------------------------------------

    def _maybe_checkpoint(self, job: Any) -> None:
        """Roll the checkpoint forward and truncate the replay log."""
        interval = getattr(self.engine, "checkpoint_interval", 0)
        if not interval or self._update_seq % interval != 0:
            return
        self._checkpoint = [dict(p) for p in self._partitions]
        self._log.clear()
        nbytes = sum(estimate_bag_bytes(list(p.values())) for p in self._checkpoint)
        job.charge_spread(self.engine.cost.dfs_write_seconds(nbytes))
        self.engine.metrics.dfs_write_bytes += nbytes
        self.engine.metrics.checkpoints_written += 1
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.event(
                "checkpoint",
                ts=job.trace_ts(),
                bytes=nbytes,
                update_seq=self._update_seq,
            )

    def on_worker_lost(self, worker: int, job: Any) -> None:
        """Restore the dead worker's state partitions.

        Each lost partition is rebuilt from the checkpoint copy with its
        logged deltas replayed in order — an exact reconstruction, since
        updates only replace values under existing keys.  Called with
        fault injection suspended, so restoration cannot cascade.
        """
        num_workers = self.engine.cluster.num_workers
        lost = range(worker, len(self._partitions), num_workers)
        if not lost:
            return
        replayed = 0
        restored_bytes = 0
        for i in lost:
            restored = dict(self._checkpoint[i])
            for _seq, pi, delta in self._log:
                if pi == i:
                    restored.update(delta)
                    replayed += 1
            self._partitions[i] = restored
            restored_bytes += estimate_bag_bytes(list(restored.values()))
        cost = self.engine.cost
        seconds = cost.dfs_read_seconds(restored_bytes) + cost.cpu_seconds(replayed)
        job.charge_worker(worker, seconds)
        metrics = self.engine.metrics
        metrics.dfs_read_bytes += restored_bytes
        metrics.checkpoint_restores += 1
        metrics.state_updates_replayed += replayed
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.event(
                "recover:state-restore",
                ts=job.trace_ts(),
                partitions=len(lost),
                replayed=replayed,
                seconds=round(seconds, 9),
            )
        metrics.recovery_seconds += seconds

    # -- helpers ---------------------------------------------------------------

    def _materialize_messages(
        self, messages: Any
    ) -> tuple[Any, PartitionedBag]:
        """The update job, and the messages as a partitioned bag.

        A deferred bag runs as a job of its own first.  A cached bag is
        read inside the update job, through the engine's cache-read
        path: lost partitions recover, spilled ones reload, and the
        read is charged.
        """
        from repro.engines.base import BagHandle, DeferredBag
        from repro.engines.executor import JobExecutor

        if isinstance(messages, DeferredBag):
            job = self.engine._new_job()
            messages = JobExecutor(self.engine, messages.env, job).run_bag(
                messages.root
            )
            self.engine._finish_job(job)
        elif isinstance(messages, DataBag):
            messages = messages.fetch()
        if isinstance(messages, (list, tuple)):
            messages = PartitionedBag.from_records(
                list(messages), len(self._partitions)
            )
        elif not isinstance(messages, (PartitionedBag, BagHandle)):
            raise EmmaError(
                f"cannot use {type(messages).__name__} as update messages"
            )
        job = self.engine._new_job()
        if isinstance(messages, BagHandle):
            messages = self.engine._read_cached(messages, job)
        return job, messages

    def _delta_handle(self, delta_parts: list[list[Any]]) -> Any:
        from repro.engines.base import BagHandle

        bag = PartitionedBag(delta_parts, self._partitioner)
        # Deltas are driver-originated (no dataflow lineage): keep a
        # driver replica so a cached delta survives worker loss.
        handle = BagHandle(
            self.engine,
            bag,
            "memory",
            recovery_partitions=[list(p) for p in delta_parts],
        )
        registry = getattr(self.engine, "_cached_handles", None)
        if registry is not None:
            registry.add(handle)
        return handle
