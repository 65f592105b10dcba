"""The six benchmark workloads, each driven through the public API only.

Every workload stages seeded inputs, computes its plain-Python
reference (:mod:`reference`), runs one untimed warm-up job that pays
lift/compile/kernel codegen and is checked against the reference, and
then offers :meth:`Workload.job` — one closed-loop job — to the passes
in :mod:`harness`.  Engines are ``make_engine("spark", dfs)`` (8
simulated workers, ``bench_cost_model()``), configuration is the
default ``EmmaConfig()``, execution is serial.

Why these six (the ``why`` lines of ``BENCHMARK.json`` in full):

``q1_agg``
    One scan into a 4-group, 8-way product fold: nearly all of the job
    is the executor's per-record fold accumulate; shuffle, join and the
    columnar planes do almost nothing.
``q4_join``
    Exists-unnested semi-join, repartition and a tiny count: dominated
    by row<->column pack/unpack around the exchange; fold work is
    negligible.  The mirror image of ``q1_agg``.
``pagerank_iter``
    The same ``agg_by`` layer used the other way round (one group per
    vertex with ~3 records each, so per-group cost, not per-record
    cost), plus stateful update, loop-invariant caching, ~30 small
    dataflow jobs and size estimation.
``kmeans_bcast``
    The paper's running example: time is in interpreted UDF closures
    (nested ``min_by`` over a broadcast bag) and user ``Vec``
    arithmetic; exchanges and planes are idle.
``compile_cold``
    Lift from source and ``compile_program`` for all eight shipped
    programs, no memo, no execution: the only workload where frontend,
    comprehension, optimizer and lowering do all the work.
``svc_sweep``
    ``q4_join``'s engine work through the always-on ``JobService`` with
    two client threads and distinct date windows (plan-cache hit,
    result-cache miss): the difference to ``q4_join`` is the service.

Run-time workloads for the spam workflow and connected components are
left out on purpose: their hot layers repeat ``q4_join`` (exists-unnest
semi-join) and ``pagerank_iter`` (stateful loop); ``compile_cold``
still compiles both.
"""

from __future__ import annotations

import datetime
import importlib
import os
import random
import re
from dataclasses import dataclass
from typing import Any

import reference

from repro.engines.dfs import SimulatedDFS
from repro.engines.metrics import Metrics
from repro.engines.plancache import PlanCache
from repro.experiments.runner import make_engine
from repro.frontend.parallelize import Algorithm
from repro.optimizer import pipeline
from repro.optimizer.pipeline import EmmaConfig
from repro.server import JobService
from repro.workloads import datagen, graphs
from repro.workloads.kmeans import initial_centroids, kmeans
from repro.workloads.pagerank import DAMPING, pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is what ``BENCHMARK.json`` measures."""

    sf: float
    vertices: int
    pagerank_iterations: int
    points: int


#: ``full`` is sized so that a job takes 0.1-0.25 s on a 2-core host and
#: a 15 s run holds at least 50 of them; ``tiny`` is for the smoke test.
SCALES = {
    "full": Scale(sf=4.0, vertices=1000, pagerank_iterations=10, points=400),
    "tiny": Scale(sf=0.1, vertices=120, pagerank_iterations=10, points=120),
}

KMEANS_CENTERS = 6
KMEANS_DIM = 3
KMEANS_ITERATIONS = 3
Q1_SHIP_DATE_MAX = "1998-09-02"
Q4_WINDOW_DAYS = 92
_EPOCH = datetime.date(1992, 1, 1)
#: order dates fall in [1992-01-01, 1998-08-02 - 151 days); windows start
#: early enough to lie inside that range
_Q4_START_DAYS = (datetime.date(1998, 8, 2) - _EPOCH).days - 151 - Q4_WINDOW_DAYS


def q4_window(start_day: int) -> dict[str, str]:
    """The ``date_min``/``date_max`` parameters of one 92-day window."""
    start = _EPOCH + datetime.timedelta(days=start_day)
    end = start + datetime.timedelta(days=Q4_WINDOW_DAYS)
    return {"date_min": start.isoformat(), "date_max": end.isoformat()}


@dataclass
class Done:
    """What one job returned."""

    value: Any
    #: the job's engine counters (``None`` when nothing executed)
    metrics: Metrics | None = None
    #: the service's handle (``svc_sweep`` only)
    handle: Any = None
    #: stamped by the harness: wall clock, span job id, and the seconds
    #: one spin took around the round the job ran in
    wall: float = 0.0
    job_id: str = ""
    spin_s: float = 0.0


class Workload:
    """One benchmark workload; see the module docstring."""

    name = ""
    #: closed-loop client threads of the timed pass
    clients = 1
    #: whether the variant probes (planes off, processes, budget) apply
    probes = False

    def setup(self, seed: int, scale: Scale, workdir: str) -> None:
        self.prepare(seed, scale, workdir)
        self.warm_up()

    def prepare(self, seed: int, scale: Scale, workdir: str) -> None:
        """Generate inputs from ``seed``, stage them, compute references."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed job, checked in full against the reference."""
        raise NotImplementedError

    def job(self, client: int, i: int, config: EmmaConfig | None = None) -> Done:
        """Run job ``i`` of ``client``; the caller holds the clock."""
        raise NotImplementedError

    def ok(self, client: int, i: int, done: Done) -> bool:
        """Whether the job's output is correct."""
        raise NotImplementedError

    def compiled_programs(self, done: Done) -> list:
        """The ``CompiledProgram`` objects behind a job (for pass counts)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what :meth:`prepare` started."""


class RunWorkload(Workload):
    """``Algorithm.run(fresh engine, **params)`` with fixed parameters.

    Every job repeats the warm-up job exactly, so a job is correct when
    its ``repr`` and ``simulated_seconds`` equal the warm-up's and the
    warm-up matched the reference.
    """

    probes = True
    algorithm: Algorithm

    def prepare(self, seed: int, scale: Scale, workdir: str) -> None:
        self.dfs = SimulatedDFS()
        self.params = self.stage(seed, scale)
        self.expected = self.reference_loop()

    def stage(self, seed: int, scale: Scale) -> dict:
        """Stage inputs; returns the run parameters."""
        raise NotImplementedError

    def reference_loop(self) -> list:
        """The hand-written plain-Python loop over this job's inputs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        warm = self.job(0, -1)
        self.reference_ok = reference.same_multiset(
            warm.value.fetch(), self.expected
        )
        self.warm_repr = repr(warm.value)
        self.warm_simulated = warm.metrics.simulated_seconds

    def job(self, client: int, i: int, config: EmmaConfig | None = None) -> Done:
        engine = make_engine("spark", self.dfs)
        value = self.algorithm.run(engine, config=config, **self.params)
        return Done(value, engine.metrics)

    def ok(self, client: int, i: int, done: Done) -> bool:
        return (
            self.reference_ok
            and repr(done.value) == self.warm_repr
            and done.metrics.simulated_seconds == self.warm_simulated
        )

    def compiled_programs(self, done: Done) -> list:
        return [self.algorithm.compiled()]


class Q1Agg(RunWorkload):
    name = "q1_agg"
    algorithm = tpch_q1

    def stage(self, seed: int, scale: Scale) -> dict:
        _orders_path, lineitem_path = stage_tpch(self.dfs, sf=scale.sf, seed=seed)
        self.lineitems = self.dfs.get(lineitem_path).records
        return {
            "lineitem_path": lineitem_path,
            "ship_date_max": Q1_SHIP_DATE_MAX,
        }

    def reference_loop(self) -> list:
        return reference.q1(self.lineitems, Q1_SHIP_DATE_MAX)


class Q4Join(RunWorkload):
    name = "q4_join"
    algorithm = tpch_q4

    def stage(self, seed: int, scale: Scale) -> dict:
        orders_path, lineitem_path = stage_tpch(self.dfs, sf=scale.sf, seed=seed)
        self.orders = self.dfs.get(orders_path).records
        self.lineitems = self.dfs.get(lineitem_path).records
        self.window = q4_window(random.Random(seed).randrange(_Q4_START_DAYS))
        return {
            "orders_path": orders_path,
            "lineitem_path": lineitem_path,
            **self.window,
        }

    def reference_loop(self) -> list:
        return reference.Q4Reference(self.orders, self.lineitems).window(
            **self.window
        )


class PagerankIter(RunWorkload):
    name = "pagerank_iter"
    algorithm = pagerank

    def stage(self, seed: int, scale: Scale) -> dict:
        path = graphs.stage_follower_graph(self.dfs, scale.vertices, seed=seed)
        self.vertices = self.dfs.get(path).records
        return {
            "graph_path": path,
            "num_pages": scale.vertices,
            "max_iterations": scale.pagerank_iterations,
        }

    def reference_loop(self) -> list:
        return reference.pagerank(
            self.vertices,
            self.params["num_pages"],
            self.params["max_iterations"],
            DAMPING,
        )


class KmeansBcast(RunWorkload):
    name = "kmeans_bcast"
    algorithm = kmeans

    def stage(self, seed: int, scale: Scale) -> dict:
        path = datagen.stage_points(
            self.dfs,
            n=scale.points,
            centers=KMEANS_CENTERS,
            dim=KMEANS_DIM,
            seed=seed,
        )
        self.points = self.dfs.get(path).records
        return {
            "points_path": path,
            "initial": initial_centroids(self.points, KMEANS_CENTERS),
            "epsilon": 1e-9,
            "max_iterations": KMEANS_ITERATIONS,
        }

    def reference_loop(self) -> list:
        return reference.kmeans(
            self.points,
            self.params["initial"],
            self.params["epsilon"],
            self.params["max_iterations"],
        )


#: modules whose reload re-runs ``@parallelize`` (the lift) on the eight
#: shipped programs — the program text stays where it is
_PROGRAM_MODULES = (
    "repro.workloads.tpch.q1",
    "repro.workloads.tpch.q4",
    "repro.workloads.pagerank",
    "repro.workloads.connected_components",
    "repro.workloads.kmeans",
    "repro.workloads.spam",
)
PROGRAMS = (
    "tpch_q1",
    "tpch_q4",
    "tpch_q4_udf",
    "pagerank",
    "connected_components",
    "kmeans",
    "kmeans_assign",
    "select_classifier",
)

_FRESH_NAME = re.compile(r"_v\d+")


def canonical_plan_text(text: str) -> str:
    """``explain()`` with compiler-generated names numbered by first use.

    Fresh names (``_v7``) come from a process-wide counter, so the same
    plan compiled twice differs in them and in nothing else.
    """
    names: dict[str, str] = {}
    return _FRESH_NAME.sub(
        lambda m: names.setdefault(m.group(0), f"_v{len(names)}"), text
    )


class CompileCold(Workload):
    """Lift + compile of every shipped program; nothing executes.

    There is no independent oracle for a plan, so the check is
    determinism: each program's ``plan_fingerprint`` and canonical
    ``explain()`` text must repeat exactly from job to job.
    """

    name = "compile_cold"
    def prepare(self, seed: int, scale: Scale, workdir: str) -> None:
        # The set of programs is the input; nothing is drawn from the seed.
        self.modules = [importlib.import_module(m) for m in _PROGRAM_MODULES]

    def warm_up(self) -> None:
        warm = self.job(0, -1)
        self.warm_plans = self._plans(warm)
        self.reference_ok = tuple(p[0] for p in self.warm_plans) == PROGRAMS

    def job(self, client: int, i: int, config: EmmaConfig | None = None) -> Done:
        config = config or EmmaConfig()
        compiled = []
        for index, module in enumerate(self.modules):
            module = self.modules[index] = importlib.reload(module)
            for value in list(vars(module).values()):
                if isinstance(value, Algorithm):
                    # Through the module, so the tracer's wrapper is seen.
                    compiled.append(
                        pipeline.compile_program(value.lifted.program, config)
                    )
        return Done(compiled)

    @staticmethod
    def _plans(done: Done) -> list[tuple[str, str, str]]:
        return [
            (c.program.name, c.fingerprint, canonical_plan_text(c.explain()))
            for c in done.value
        ]

    def ok(self, client: int, i: int, done: Done) -> bool:
        return self.reference_ok and self._plans(done) == self.warm_plans

    def compiled_programs(self, done: Done) -> list:
        return done.value


class SvcSweep(Workload):
    """``tpch_q4`` through a running ``JobService``, two tenants.

    Each job has its own 92-day window, so the plan cache hits, the
    result cache misses and the job executes.  With ``replaying`` set,
    job ``i`` resubmits the window job ``i`` ran before and must be
    answered from the result cache with an identical ``repr``.
    """

    name = "svc_sweep"
    clients = 2
    tenants = ("a", "b")
    #: when set, jobs resubmit windows that already ran
    replaying = False

    def prepare(self, seed: int, scale: Scale, workdir: str) -> None:
        self.dfs = SimulatedDFS()
        self.orders_path, self.lineitem_path = stage_tpch(
            self.dfs, sf=scale.sf, seed=seed
        )
        self.reference = reference.Q4Reference(
            self.dfs.get(self.orders_path).records,
            self.dfs.get(self.lineitem_path).records,
        )
        starts = list(range(_Q4_START_DAYS))
        random.Random(seed).shuffle(starts)
        #: the warm-up's window, then each client's own distinct windows
        self.warm_start = starts[0]
        self.starts = [starts[1 + c :: self.clients] for c in range(self.clients)]
        # Per process: a cache directory is shared warm state, and every
        # measuring process must start cold.
        cache_dir = os.path.join(workdir, f"plancache-{os.getpid()}")
        self.service = JobService(
            lambda dfs: make_engine("spark", dfs),
            self.dfs,
            cache=PlanCache(cache_dir),
            max_concurrent=self.clients,
        )
        #: repr of every executed job's result, by window start day
        self.executed: dict[int, str] = {}

    def _params(self, start_day: int) -> dict:
        return {
            "orders_path": self.orders_path,
            "lineitem_path": self.lineitem_path,
            **q4_window(start_day),
        }

    def _submit(self, client: int, start_day: int, config: EmmaConfig | None) -> Done:
        handle = self.service.submit(
            tpch_q4,
            self._params(start_day),
            tenant=self.tenants[client],
            config=config,
        )
        value = handle.result(timeout=JOB_TIMEOUT_S)
        return Done(value, handle.metrics, handle)

    def warm_up(self) -> None:
        warm = self._submit(0, self.warm_start, None)
        self.reference_ok = reference.same_multiset(
            warm.value.fetch(),
            self.reference.window(**q4_window(self.warm_start)),
        )

    def job(self, client: int, i: int, config: EmmaConfig | None = None) -> Done:
        return self._submit(client, self.starts[client][i], config)

    def ok(self, client: int, i: int, done: Done) -> bool:
        start_day = self.starts[client][i]
        if self.replaying:
            return (
                done.handle.served_from_cache
                and repr(done.value) == self.executed[start_day]
            )
        self.executed[start_day] = repr(done.value)
        return (
            self.reference_ok
            and not done.handle.served_from_cache
            and done.handle.cache.get("plan") == "hit"
            and reference.same_multiset(
                done.value.fetch(),
                self.reference.window(**q4_window(start_day)),
            )
        )

    def compiled_programs(self, done: Done) -> list:
        return [tpch_q4.compiled()]

    def close(self) -> None:
        self.service.shutdown()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Q1Agg, Q4Join, PagerankIter, KmeansBcast, CompileCold, SvcSweep)
}
