"""An always-on job service over the fingerprint cache.

One driver process used to mean one run: lift, optimize, execute,
exit — paying full compilation even when the previous run was
identical.  :class:`JobService` inverts that: a long-running admission
loop owns the shared :class:`~repro.engines.plancache.PlanCache`, the
shared simulated DFS, and the process-wide worker pool, and *jobs* —
(algorithm, params, config) submissions from many tenants — come and
go:

* **Admission** is asynchronous and fair: each tenant has a FIFO
  queue, the dispatcher round-robins across tenants, a per-tenant
  quota bounds how many of one tenant's jobs run at once, and a global
  cap bounds total concurrency.  Everything above the cap waits in
  queue — admission latency is tracked per job and summarized as
  p50/p99 in :meth:`JobService.stats`.
* **Execution** is cache-first.  A warm submission (same plan
  fingerprint, same input snapshot) is answered from the result cache
  without executing anything; a plan-cache hit skips the optimizer and
  codegen pipeline and goes straight to execution; a cold job pays the
  full pipeline once and warms both levels for every later tenant.
  Batch submissions *backfill*: the hit members are served from cache
  and only the missing inputs execute
  (:meth:`~JobService.submit_batch`).
* **Isolation**: every executed job gets a fresh engine from the
  service's ``engine_factory``, but all engines share one DFS and —
  in ``processes`` mode — the single module-wide worker pool, so
  concurrent jobs contend for the same workers rather than forking
  pools per job.

A newline-delimited JSON TCP endpoint (:meth:`JobService.serve`)
exposes ``submit``/``wait``/``stats``/``ping`` so external drivers can
reach the warm cache without importing the repo.

Caching changes *when* work happens, never *what* it computes: served
results are repr-identical to executed ones, and executed jobs keep
bit-identical ``simulated_seconds`` and fault schedules.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.engines.dfs import SimulatedDFS
from repro.engines.metrics import Metrics
from repro.engines.plancache import PlanCache
from repro.errors import EmmaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.frontend.parallelize import Algorithm
    from repro.optimizer.pipeline import EmmaConfig


def _percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by nearest-rank, 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class JobHandle:
    """A submitted job: its identity, lifecycle stamps, and outcome.

    ``result()`` blocks until the job finishes (re-raising its error);
    ``cache`` records how each cache level treated this job — one of
    ``"hit"``, ``"miss"``, or ``"uncacheable"`` (no stable input
    identity) — and ``served_from_cache`` is true when the job never
    executed at all.
    """

    job_id: int
    tenant: str
    algorithm_name: str
    submitted_at: float
    admitted_at: float | None = None
    finished_at: float | None = None
    #: per-level outcome: {"plan": ..., "result": ...}
    cache: dict[str, str] = field(default_factory=dict)
    #: true when the result cache answered without executing
    served_from_cache: bool = False
    #: this job's own metrics (cache counters; plus the executing
    #: engine's full counters when the job actually ran)
    metrics: Metrics = field(default_factory=Metrics)
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    _value: Any = field(default=None, repr=False)
    _error: BaseException | None = field(default=None, repr=False)

    def done(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """Block for the job's value; re-raises the job's exception."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def admission_latency(self) -> float | None:
        """Seconds spent queued before dispatch (None while queued)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    def _finish(self, value: Any, error: BaseException | None) -> None:
        self._value = value
        self._error = error
        self.finished_at = time.perf_counter()
        self._done.set()


class JobService:
    """The always-on admission loop (see module docstring).

    ``engine_factory`` builds one fresh engine per executed job; it is
    called with the shared DFS (``engine_factory(dfs)``).  ``quotas``
    maps tenant name to its max concurrently-running jobs
    (``default_quota`` for everyone else); ``max_concurrent`` caps the
    service total.  The service starts its dispatcher thread on
    construction and runs until :meth:`shutdown`.
    """

    def __init__(
        self,
        engine_factory: Callable[[SimulatedDFS], Any],
        dfs: SimulatedDFS | None = None,
        cache: PlanCache | None = None,
        max_concurrent: int = 4,
        default_quota: int = 2,
        quotas: Mapping[str, int] | None = None,
    ) -> None:
        self.engine_factory = engine_factory
        self.dfs = dfs or SimulatedDFS()
        self.cache = cache or PlanCache()
        self.max_concurrent = max_concurrent
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        #: aggregate counters across all jobs (cache segment included)
        self.metrics = Metrics()
        #: admission/completion event log: (event, job_id, tenant, t)
        self.events: list[tuple[str, int, str, float]] = []
        #: named algorithms reachable through the TCP endpoint
        self._registry: dict[str, "Algorithm"] = {}
        self._jobs: dict[int, JobHandle] = {}
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        # Tenant queues live on the loop thread; OrderedDict gives the
        # round-robin a stable rotation order.
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._running: dict[str, int] = {}
        self._total_running = 0
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, max_concurrent),
            thread_name_prefix="repro-job",
        )
        self._loop = asyncio.new_event_loop()
        self._wake = asyncio.Event()
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-job-service", daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        algorithm: "Algorithm",
        params: Mapping[str, Any] | None = None,
        tenant: str = "default",
        config: "EmmaConfig | None" = None,
    ) -> JobHandle:
        """Queue one job; returns immediately with its handle."""
        if self._stopping:
            raise EmmaError("job service is shut down")
        params = dict(params or {})
        job = JobHandle(
            job_id=next(self._job_ids),
            tenant=tenant,
            algorithm_name=algorithm.name,
            submitted_at=time.perf_counter(),
        )
        with self._lock:
            self._jobs[job.job_id] = job
        self._loop.call_soon_threadsafe(
            self._enqueue, job, algorithm, params, config
        )
        return job

    def submit_batch(
        self,
        submissions: list[tuple["Algorithm", Mapping[str, Any]]],
        tenant: str = "default",
        config: "EmmaConfig | None" = None,
    ) -> list[JobHandle]:
        """Submit related jobs together, tracking cache *backfill*.

        When some members hit the result cache and others miss, the
        executed members are the batch's backfilled partitions — each
        one increments ``backfill_partitions`` — so the common
        incremental pattern (yesterday's inputs cached, today's delta
        new) executes exactly the delta.
        """
        handles = [
            self.submit(algorithm, params, tenant=tenant, config=config)
            for algorithm, params in submissions
        ]
        self._loop.call_soon_threadsafe(
            self._watch_backfill, list(handles)
        )
        return handles

    def register(self, algorithm: "Algorithm") -> None:
        """Expose an algorithm to TCP clients under its name."""
        self._registry[algorithm.name] = algorithm

    def job(self, job_id: int) -> JobHandle:
        """The handle for a job id (raises ``EmmaError`` if unknown)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise EmmaError(f"unknown job id {job_id}") from None

    # -- the admission loop (all state below runs on the loop thread) ------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._dispatch_task = self._loop.create_task(
            self._dispatch_forever()
        )
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _enqueue(
        self,
        job: JobHandle,
        algorithm: "Algorithm",
        params: dict,
        config: "EmmaConfig | None",
    ) -> None:
        self._queues.setdefault(job.tenant, deque()).append(
            (job, algorithm, params, config)
        )
        self.events.append(
            ("queued", job.job_id, job.tenant, time.perf_counter())
        )
        self._wake.set()

    def _quota(self, tenant: str) -> int:
        return self.quotas.get(tenant, self.default_quota)

    async def _dispatch_forever(self) -> None:
        while not self._stopping:
            dispatched = self._dispatch_round()
            if not dispatched:
                self._wake.clear()
                await self._wake.wait()

    def _dispatch_round(self) -> bool:
        """One fair pass: admit at most one job per eligible tenant.

        Rotating the tenant order after each admission keeps a
        flooding tenant from starving the others — every tenant with
        queued work and spare quota is offered a slot before any
        tenant gets a second one.
        """
        admitted = False
        for tenant in list(self._queues):
            if self._total_running >= self.max_concurrent:
                break
            queue = self._queues.get(tenant)
            if not queue:
                continue
            if self._running.get(tenant, 0) >= self._quota(tenant):
                continue
            job, algorithm, params, config = queue.popleft()
            self._admit(job, algorithm, params, config)
            self._queues.move_to_end(tenant)
            admitted = True
        return admitted

    def _admit(
        self,
        job: JobHandle,
        algorithm: "Algorithm",
        params: dict,
        config: "EmmaConfig | None",
    ) -> None:
        job.admitted_at = time.perf_counter()
        self._running[job.tenant] = self._running.get(job.tenant, 0) + 1
        self._total_running += 1
        self.events.append(
            ("admitted", job.job_id, job.tenant, job.admitted_at)
        )
        future = self._loop.run_in_executor(
            self._executor, self._execute, job, algorithm, params, config
        )
        def on_done(_future: Any, j: JobHandle = job) -> None:
            try:
                self._loop.call_soon_threadsafe(self._release, j)
            except RuntimeError:
                # Loop already closed during shutdown; nothing left
                # to release slots for.
                pass

        future.add_done_callback(on_done)

    def _release(self, job: JobHandle) -> None:
        self._running[job.tenant] -= 1
        self._total_running -= 1
        self.events.append(
            ("finished", job.job_id, job.tenant, time.perf_counter())
        )
        self._wake.set()

    def _watch_backfill(self, handles: list[JobHandle]) -> None:
        """Count a batch's executed members once the batch completes."""

        async def wait_and_count() -> None:
            await asyncio.gather(
                *(
                    self._loop.run_in_executor(None, h._done.wait)
                    for h in handles
                )
            )
            hits = sum(1 for h in handles if h.served_from_cache)
            executed = [h for h in handles if not h.served_from_cache]
            if hits and executed:
                self.metrics.backfill_partitions += len(executed)
                for handle in executed:
                    handle.metrics.backfill_partitions += 1

        self._loop.create_task(wait_and_count())

    # -- job execution (worker threads) -------------------------------------

    def _execute(
        self,
        job: JobHandle,
        algorithm: "Algorithm",
        params: dict,
        config: "EmmaConfig | None",
    ) -> None:
        try:
            value = self._run_cached(job, algorithm, params, config)
        except BaseException as exc:  # noqa: BLE001 - delivered to caller
            job._finish(None, exc)
        else:
            job._finish(value, None)

    def _run_cached(
        self,
        job: JobHandle,
        algorithm: "Algorithm",
        params: dict,
        config: "EmmaConfig | None",
    ) -> Any:
        from repro.optimizer.fingerprint import (
            plan_fingerprint,
            snapshot_fingerprint,
        )
        from repro.optimizer.pipeline import EmmaConfig

        cfg = config or EmmaConfig()
        plan_fp = plan_fingerprint(algorithm.lifted.program, cfg)
        snap_fp = snapshot_fingerprint(
            params, algorithm.lifted.captured, dfs=self.dfs
        )
        if snap_fp is None:
            job.cache["result"] = "uncacheable"
        else:
            hit, value = self.cache.lookup_result(
                plan_fp, snap_fp, metrics=job.metrics
            )
            if hit:
                job.cache["result"] = "hit"
                job.served_from_cache = True
                self._merge_job_metrics(job)
                return value
            job.cache["result"] = "miss"
        engine = self.engine_factory(self.dfs)
        engine.attach_plan_cache(self.cache)
        before = engine.metrics.snapshot()
        result = algorithm.run(engine, config=config, **params)
        delta = engine.metrics.delta_since(before)
        job.cache["plan"] = (
            "hit" if delta.plan_cache_hits else "miss"
        )
        job.metrics.merge(delta)
        if snap_fp is not None:
            self.cache.store_result(
                plan_fp, snap_fp, result, metrics=job.metrics
            )
        self._merge_job_metrics(job)
        return result

    def _merge_job_metrics(self, job: JobHandle) -> None:
        with self._lock:
            self.metrics.merge(job.metrics)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A point-in-time service summary.

        Includes job counts, per-level cache hit rates, total compile
        seconds skipped, backfilled partition count, and the p50/p99
        of admission latency (seconds spent queued) over all admitted
        jobs.
        """
        with self._lock:
            handles = list(self._jobs.values())
        latencies = [
            h.admission_latency
            for h in handles
            if h.admission_latency is not None
        ]
        finished = sum(1 for h in handles if h.done())
        served = sum(1 for h in handles if h.served_from_cache)
        rates = self.cache.stats.hit_rate()
        return {
            "jobs_submitted": len(handles),
            "jobs_finished": finished,
            "jobs_served_from_cache": served,
            "tenants": sorted({h.tenant for h in handles}),
            "plan_cache_hit_rate": rates["plan"],
            "result_cache_hit_rate": rates["result"],
            "compile_seconds_saved": self.cache.stats.compile_seconds_saved,
            "backfill_partitions": self.metrics.backfill_partitions,
            "admission_latency_p50": _percentile(latencies, 50),
            "admission_latency_p99": _percentile(latencies, 99),
        }

    # -- the TCP endpoint ----------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start the newline-delimited JSON endpoint; returns the port.

        Protocol: one JSON object per line.  ``{"op": "ping"}`` →
        ``{"ok": true, "pong": true}``; ``{"op": "stats"}`` → the
        :meth:`stats` dict; ``{"op": "submit", "algorithm": name,
        "params": {...}, "tenant": t}`` (the name must have been
        :meth:`register`-ed) → ``{"ok": true, "job_id": n}``;
        ``{"op": "wait", "job_id": n}`` → the finished job's repr,
        cache outcomes, and metrics summary.  Errors come back as
        ``{"ok": false, "error": msg}``.
        """

        async def start() -> asyncio.AbstractServer:
            return await asyncio.start_server(
                self._handle_client, host, port
            )

        future = asyncio.run_coroutine_threadsafe(start(), self._loop)
        self._server = future.result(timeout=10)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._handle_request(line)
                writer.write(
                    json.dumps(response).encode("utf-8") + b"\n"
                )
                await writer.drain()
        finally:
            writer.close()

    async def _handle_request(self, line: bytes) -> dict[str, Any]:
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                return {"ok": True, **self.stats()}
            if op == "submit":
                name = request["algorithm"]
                if name not in self._registry:
                    return {
                        "ok": False,
                        "error": f"unknown algorithm {name!r}",
                    }
                handle = self.submit(
                    self._registry[name],
                    request.get("params", {}),
                    tenant=request.get("tenant", "default"),
                )
                return {"ok": True, "job_id": handle.job_id}
            if op == "wait":
                handle = self.job(int(request["job_id"]))
                timeout = request.get("timeout", 60.0)
                value = await self._loop.run_in_executor(
                    None, handle.result, timeout
                )
                return {
                    "ok": True,
                    "job_id": handle.job_id,
                    "result": repr(value),
                    "cache": handle.cache,
                    "served_from_cache": handle.served_from_cache,
                    "metrics": handle.metrics.summary(),
                }
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": str(exc)}

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop admitting, drain workers, close the endpoint and loop."""
        if self._stopping:
            return
        self._stopping = True

        def stop() -> None:
            if self._server is not None:
                self._server.close()
            self._dispatch_task.cancel()
            self._wake.set()
            # Stop on the next tick so the cancelled dispatcher gets
            # its CancelledError delivered before the loop closes.
            self._loop.call_soon(self._loop.stop)

        self._loop.call_soon_threadsafe(stop)
        self._thread.join(timeout)
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


class ServiceClient:
    """A tiny blocking client for the service's JSON TCP endpoint."""

    def __init__(self, host: str, port: int) -> None:
        import socket

        self._sock = socket.create_connection((host, port), timeout=60)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One round trip: send a request object, read the response."""
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise EmmaError("job service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        """Close the connection."""
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
