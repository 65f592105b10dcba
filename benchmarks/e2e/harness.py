"""The two passes over a set-up workload: timed, then traced.

Both passes proceed in *rounds*: every client runs one job, all at the
same time, and the next round starts when each has returned and been
checked (a closed loop with as many clients as the workload has).

**Relative job time.**  The hosts this runs on change speed by 20-30 %
every few seconds (all of Python slows down together, ``process_time``
tracks ``perf_counter``), which a 15 s run cannot average away: medians
of raw job seconds spread by 5-18 % between runs of one commit.  So the
harness times :func:`spin` - a fixed plain-Python loop over fixed plain
data that imports nothing from ``repro`` - before and after every round
(with two clients both spin at once, sharing the GIL as their jobs do),
and the bounded end-to-end metrics are job wall clock *divided by* the
spin's: dimensionless, "this job takes as long as 9.1 spins".  The
engine getting faster moves that ratio; the host getting slower does
not.  Raw seconds are kept beside it, as measured: the timed pass
prints them, and every per-layer ``*_s`` value is raw.

End-to-end numbers come from :func:`timed_pass` only, which runs with
the originals in place.  :func:`traced_pass` is a separate process's
job: it alternates untraced and traced rounds, then runs the variant
probes or the cache replay, and returns every per-layer metric.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from statistics import median
from typing import Callable

import layers
import spans
from workloads import JOB_TIMEOUT_S, Done, SvcSweep, Workload

from repro.optimizer.pipeline import EmmaConfig

#: share of ``--seconds`` the traced pass spends on its alternating
#: rounds; the rest goes to the variant probes or the replay
_ROUNDS_SHARE = 0.5
_MIN_ROUNDS = 3
_MIN_PROBE_ROUNDS = 2

#: the configurations that give the layers idle at default config a
#: number; each must leave results and the simulated clock untouched
PROBES = (
    (
        "engines.columnar.planes_off_job_wall_s_p50",
        dict(columnar="off", columnar_exchange="off"),
    ),
    (
        "engines.scheduler.processes_job_wall_s_p50",
        dict(execution_mode="processes", max_parallel_tasks=2),
    ),
    (
        "engines.spill.budget_job_wall_s_p50",
        dict(memory_budget=256 * 1024),
    ),
)


#: rows of the spin's data and passes over them per spin: about 20 ms on
#: the host this was defined on, a tenth of a job, and a working set
#: (a few MB) that does not sit in cache, like a job's
SPIN_ROWS = 40_000
SPIN_PASSES = 2


def spin_rows() -> list[tuple]:
    """The spin's input: the same plain tuples in every process."""
    rng = random.Random(0)
    return [
        (
            rng.randrange(1000),
            rng.random(),
            rng.random(),
            f"x{rng.randrange(99)}",
            rng.random(),
        )
        for _ in range(SPIN_ROWS)
    ]


def spin(rows: list[tuple]) -> dict:
    """The yardstick: group the rows by key, count and sum their floats.

    What a job does to records, in the plainest Python: attribute-free
    tuple reads, a dict probe, float adds.  It must stay as it is; a
    change to it re-bases every relative metric.
    """
    groups: dict = {}
    for _ in range(SPIN_PASSES):
        for row in rows:
            group = groups.get(row[0])
            if group is None:
                group = groups[row[0]] = [0, 0.0]
            group[0] += 1
            for value in row:
                if value.__class__ is float:
                    group[1] += value
    return groups


class Tally:
    """Jobs attempted, their wall clocks, and how many failed."""

    def __init__(self) -> None:
        #: per job: wall clock in seconds, and the same over its
        #: round's spin seconds
        self.walls: list[float] = []
        self.rels: list[float] = []
        self.dones: list[Done] = []
        self.failed = 0
        #: what the rounds took, first start to last return: in seconds,
        #: and with every round divided by its spin seconds
        self.busy_s = 0.0
        self.busy_rel = 0.0
        #: per round: seconds one spin took around it
        self.spins: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def add(self, other: "Tally") -> None:
        self.walls += other.walls
        self.rels += other.rels
        self.dones += other.dones
        self.failed += other.failed
        self.busy_s += other.busy_s
        self.busy_rel += other.busy_rel
        self.spins += other.spins


def one_job(
    wl: Workload,
    client: int,
    i: int,
    config: EmmaConfig | None = None,
    tracer: spans.Tracer | None = None,
) -> tuple[float, bool, Done | None]:
    """Run and check one job: (wall clock, correct, outcome).

    A raise, a timeout or a wrong answer makes it incorrect.
    """
    job_id = f"{client}:{i}"
    started = time.perf_counter()
    try:
        with tracer.job(job_id) if tracer is not None else nullcontext():
            done = wl.job(client, i, config)
    except Exception:  # noqa: BLE001 - a failed job is a measurement
        wall = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return wall, False, None
    wall = time.perf_counter() - started
    done.job_id = job_id
    return wall, wall <= JOB_TIMEOUT_S and wl.ok(client, i, done), done


def run_clients(clients: int, body: Callable[[int], None]) -> None:
    """``body(client)`` once per client, concurrently when there are two."""
    if clients == 1:
        body(0)
        return
    threads = [
        threading.Thread(target=body, args=(c,), name=f"client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Rounds:
    """Runs rounds of jobs, each between two timings of the spin (see
    the module docstring)."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self._rows = spin_rows()
        self._spin_s = self._time_spin()

    def _time_spin(self) -> float:
        """Seconds a spin takes right now, under the same contention as
        the jobs: every client spins at once."""
        started = time.perf_counter()
        run_clients(self.wl.clients, lambda client: spin(self._rows))
        return time.perf_counter() - started

    def run(
        self,
        i: int,
        tally: Tally,
        config: EmmaConfig | None = None,
        tracer: spans.Tracer | None = None,
        keep: bool = False,
    ) -> None:
        """Round ``i``: job ``i`` of every client, recorded in ``tally``."""
        wl = self.wl
        # Full collections land between rounds, not at random inside jobs.
        gc.collect()
        jobs: list = [None] * wl.clients

        def body(client: int) -> None:
            jobs[client] = one_job(wl, client, i, config, tracer)

        with tracer if tracer is not None else nullcontext():
            started = time.perf_counter()
            run_clients(wl.clients, body)
            round_wall = time.perf_counter() - started
        before, self._spin_s = self._spin_s, self._time_spin()
        spin_s = (before + self._spin_s) / 2
        tally.spins.append(spin_s)
        tally.busy_s += round_wall
        tally.busy_rel += round_wall / spin_s
        for wall, ok, done in jobs:
            tally.walls.append(wall)
            tally.rels.append(wall / spin_s)
            tally.failed += not ok
            if done is not None and keep:
                done.wall = wall
                done.spin_s = spin_s
                tally.dones.append(done)


def timed_pass(wl: Workload, seconds: float) -> dict:
    """Rounds for ``seconds``; the raw material of the job metrics
    (the supervisor pools several processes' worth, see ``run.py``)."""
    rounds = Rounds(wl)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        rounds.run(i, tally)
        i += 1
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "walls": tally.walls,
        "rels": tally.rels,
        "busy_s": tally.busy_s,
        "busy_rel": tally.busy_rel,
        "spins": tally.spins,
    }


def traced_pass(wl: Workload, seconds: float, trace_path: str, meta: dict) -> dict:
    """Every per-layer metric of one workload; writes ``trace_path``."""
    rounds = Rounds(wl)
    tracer = spans.Tracer()
    plain, traced = Tally(), Tally()
    started = time.perf_counter()
    n = 0
    while n < _MIN_ROUNDS or (
        time.perf_counter() - started < seconds * _ROUNDS_SHARE
    ):
        # Alternating, so that whatever the spin does not cancel still
        # cancels out of the overhead ratio.
        rounds.run(2 * n, plain, keep=True)
        rounds.run(2 * n + 1, traced, tracer=tracer, keep=True)
        n += 1

    _adopt_worker_spans(tracer, traced.dones)
    values = layers.span_metrics(tracer, traced.attempted)
    last = traced.dones[-1] if traced.dones else None
    if last is not None:
        values.update(layers.compile_counts(wl.compiled_programs(last)))
        if last.metrics is not None:
            values.update(layers.engine_metrics(last.metrics))
    plain_rel_p50 = median(plain.rels)
    values["bench.untraced_job_wall_s_p50"] = median(plain.walls)
    # Each traced job over the untraced job just before it.
    values["bench.trace_overhead_ratio"] = median(
        t / p for p, t in zip(plain.rels, traced.rels)
    )
    values["bench.spin_s"] = median(plain.spins + traced.spins)

    total = Tally()
    total.add(plain)
    total.add(traced)
    budget = seconds - (time.perf_counter() - started)
    if wl.probes:
        values.update(_variant_probes(rounds, budget, plain_rel_p50, total))
    if isinstance(wl, SvcSweep):
        values.update(_service_metrics(rounds, 2 * n, plain, total))
    values["bench.n_timed"] = total.attempted
    values["bench.failed_share"] = total.failed / total.attempted

    spin_s = {d.job_id: d.spin_s for d in traced.dones}
    tracer.write_jsonl(trace_path, {**meta, "spin_s": spin_s})
    return {
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": layers.complete(values),
    }


def _variant_probes(
    rounds: Rounds, budget: float, default_rel_p50: float, total: Tally
) -> dict[str, float]:
    """Planes off, two worker processes, 256 KiB budget: job wall and the
    counters of the layer each one wakes up."""
    values: dict[str, float] = {}
    rel_p50: dict[str, float] = {}
    for metric, knobs in PROBES:
        config = EmmaConfig(**knobs)
        # Untimed: compiles the plan for this config, starts the pool.
        rounds.run(-1, Tally(), config=config)
        tally = Tally()
        started = time.perf_counter()
        while tally.attempted < _MIN_PROBE_ROUNDS or (
            time.perf_counter() - started < budget / len(PROBES)
        ):
            rounds.run(tally.attempted, tally, config=config, keep=True)
        values[metric] = median(tally.walls)
        rel_p50[metric] = median(tally.rels)
        total.add(tally)
        if not tally.dones:
            continue
        m = tally.dones[-1].metrics
        if "execution_mode" in knobs:
            values["engines.scheduler.ipc_bytes"] = (
                m.ipc_bytes_shipped + m.ipc_bytes_returned
            )
            values["engines.scheduler.serial_fallbacks"] = m.serial_fallbacks
        if "memory_budget" in knobs:
            values["engines.spill.bytes_written"] = m.spill_bytes_written
            values["engines.spill.bytes_read"] = m.spill_bytes_read
    # The probe ran later than the default rounds, on a host that may
    # have changed speed since: compare what the spin has levelled.
    values["engines.columnar.auto_over_off"] = (
        default_rel_p50 / rel_p50["engines.columnar.planes_off_job_wall_s_p50"]
    )
    return values


def _service_metrics(
    rounds: Rounds, executed_rounds: int, plain: Tally, total: Tally
) -> dict[str, float]:
    """Replay every executed round (all result-cache hits), then read
    the service's own stamps off the untraced jobs' handles."""
    wl = rounds.wl
    stats = wl.service.cache.stats
    plan_rate = stats.hit_rate()["plan"]
    hits, misses = stats.result_hits, stats.result_misses
    replay = Tally()
    wl.replaying = True
    for i in range(executed_rounds):
        rounds.run(i, replay)
    wl.replaying = False
    total.add(replay)
    lookups = stats.result_hits - hits + stats.result_misses - misses
    admissions = [d.handle.admission_latency for d in plain.dones]
    overheads = [d.wall - d.metrics.wall_clock_seconds for d in plain.dones]
    return {
        "engines.plancache.replay_hit_wall_s_p50": median(replay.walls),
        # plan: over the executed jobs (the warm-up is the one miss);
        # result: over the replay, where every window ran before
        "engines.plancache.plan_hit_rate": plan_rate,
        "engines.plancache.result_hit_rate": (stats.result_hits - hits) / lookups,
        "engines.plancache.resident_bytes": wl.service.cache.resident_bytes(),
        "server.admission_s_p50": median(admissions),
        "server.admission_s_p80": layers.percentile(admissions, 80),
        "server.overhead_s_p50": median(overheads),
    }


def _adopt_worker_spans(tracer: spans.Tracer, dones: list[Done]) -> None:
    """Give service worker-thread spans the job id of their submission.

    The service runs a job on a pool thread that knows nothing of the
    client's ``tracer.job`` scope.  A pool thread runs one job at a
    time and stamps ``finished_at`` right after the job's last call
    returns, so the job owns the thread whose span ends last inside
    its admitted..finished window, and every span of that thread in
    the window.
    """
    for done in dones:
        handle = done.handle
        if handle is None:
            continue
        inside = [
            s
            for s in tracer.spans
            if s[spans.JOB] is None
            and handle.admitted_at <= s[spans.START]
            and s[spans.END] <= handle.finished_at
        ]
        if not inside:
            continue
        thread = max(inside, key=lambda s: s[spans.END])[spans.THREAD]
        for span in inside:
            if span[spans.THREAD] == thread:
                span[spans.JOB] = done.job_id
