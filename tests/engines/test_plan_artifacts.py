"""Generated code is a property of the plan, built once per program.

A UDF's native closure and a chain kernel (with its aggregation or fold
sink) are compiled from their plan node on first use and kept on it as
artifacts; a job only binds its own values into them, through a fresh
namespace.  These tests pin the ``compile()`` calls a compiled program
makes, that rebinding goes by value and never by source text, and that
artifacts neither cross a process boundary nor keep a job's data alive.
"""

import builtins
import contextlib
import gc
import importlib.util
import pickle
import threading
import weakref
from dataclasses import dataclass

import pytest

from repro.api import parallelize
from repro.comprehension.exprs import BinOp, IfElse, Ref
from repro.core.databag import DataBag
from repro.engines import chainkernel
from repro.engines import scheduler as scheduler_module
from repro.engines.chainkernel import (
    MAP,
    KernelStep,
    Udf,
    build_chain_kernel,
)
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.engines.plancache import PlanCache
from repro.engines.sparklike import SparkLikeEngine
from repro.frontend.parallelize import Algorithm
from repro.frontend.runtime import run_compiled
from repro.lowering.combinators import CBagRef, CMap, ScalarFn
from repro.optimizer.pipeline import EmmaConfig
from repro.server import JobService
from repro.workloads import datagen, graphs
from repro.workloads.kmeans import initial_centroids
from repro.workloads.pagerank import pagerank

SERIAL = EmmaConfig(execution_mode="serial")


@pytest.fixture(autouse=True)
def default_engine(monkeypatch):
    """The default row engine, with no shared plan cache: a plan-cache
    hit is a fresh unpickled plan, which builds its artifacts anew."""
    for name in (
        "REPRO_PLAN_CACHE_DIR",
        "REPRO_COLUMNAR",
        "REPRO_COLUMNAR_EXCHANGE",
        "REPRO_EXECUTION_MODE",
        "REPRO_MEMORY_BUDGET",
    ):
        monkeypatch.delenv(name, raising=False)


def fresh(module_name: str, name: str) -> Algorithm:
    """A program lifted anew: its module executed again, outside
    ``sys.modules``, so no node of it has been built from yet."""
    spec = importlib.util.find_spec(module_name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


@contextlib.contextmanager
def counting_compiles():
    """Count ``compile()`` calls of generated source (``<...>`` file
    names; a module import compiles a real path)."""
    calls = [0]
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if str(filename).startswith("<"):
            calls[0] += 1
        return real(source, filename, *args, **kwargs)

    builtins.compile = counting
    try:
        yield calls
    finally:
        builtins.compile = real


def pagerank_job(algo: Algorithm, iterations: int, num_pages: int = 120):
    dfs = SimulatedDFS()
    path = graphs.stage_follower_graph(dfs, 120, seed=31)

    def job():
        engine = SparkLikeEngine(dfs=dfs)
        result = algo.run(
            engine,
            config=SERIAL,
            graph_path=path,
            num_pages=num_pages,
            max_iterations=iterations,
        )
        return repr(result), engine.metrics

    return job


def kmeans_job(algo: Algorithm, iterations: int):
    dfs = SimulatedDFS()
    path = datagen.stage_points(dfs, n=120, centers=6, dim=3, seed=31)

    def job():
        engine = SparkLikeEngine(dfs=dfs)
        result = algo.run(
            engine,
            config=SERIAL,
            points_path=path,
            initial=initial_centroids(dfs.get(path).records, 6),
            epsilon=1e-9,
            max_iterations=iterations,
        )
        return repr(result), engine.metrics

    return job


def first_and_warm(job) -> tuple[int, int]:
    """``compile()`` calls of a program's first run, then of a second
    run on a fresh engine."""
    with counting_compiles() as first:
        job()
    with counting_compiles() as warm:
        job()
    return first[0], warm[0]


PAGERANK = ("repro.workloads.pagerank", "pagerank")
KMEANS = ("repro.workloads.kmeans", "kmeans")


class TestCompileCounts:
    """At the parent a 120-vertex PageRank made 5 + 12 x iterations
    calls on every run (65 at 5 iterations, 125 at 10), warm or not."""

    def test_pagerank_compiles_once_per_program(self):
        # The process's own UDFs (stateful keys, shuffle keys) and the
        # cached fold reducers are built by the first program to use them.
        pagerank_job(fresh(*PAGERANK), 2)()
        counts = {
            n: first_and_warm(pagerank_job(fresh(*PAGERANK), n))
            for n in (5, 10)
        }
        assert counts == {5: (14, 0), 10: (14, 0)}

    def test_kmeans_compiles_once_per_program(self):
        kmeans_job(fresh(*KMEANS), 1)()
        counts = {
            n: first_and_warm(kmeans_job(fresh(*KMEANS), n)) for n in (2, 4)
        }
        assert counts == {2: (11, 0), 4: (11, 0)}

    def test_udfs_compiled_still_counts_per_job(self):
        job = pagerank_job(fresh(*PAGERANK), 3)
        (_, cold), (_, warm) = job(), job()
        assert cold.invariant() == warm.invariant()
        assert warm.udfs_compiled > 0


# -- rebinding goes by value -------------------------------------------------


@dataclass(frozen=True)
class Reading:
    id: int
    value: float


@parallelize
def scaled(readings: DataBag, factor):
    return [
        Reading(r.id, r.value * factor) for r in readings if r.value > factor
    ]


READINGS = DataBag([Reading(i, float(i % 7)) for i in range(40)])


def run_scaled(algo: Algorithm, factor: float) -> tuple[str, float]:
    engine = SparkLikeEngine()
    result = algo.run(engine, config=SERIAL, readings=READINGS, factor=factor)
    rows = repr(sorted(result.fetch(), key=repr))
    return rows, engine.metrics.simulated_seconds


class TestRebindingByValue:
    def test_pagerank_rebinds_num_pages(self):
        warm = fresh(*PAGERANK)
        for num_pages in (120, 60, 120):
            ran = pagerank_job(warm, 3, num_pages)()
            new = pagerank_job(fresh(*PAGERANK), 3, num_pages)()
            assert ran[0] == new[0]
            assert ran[1].simulated_seconds == new[1].simulated_seconds

    def test_a_captured_driver_scalar_rebinds(self):
        warm = Algorithm(scaled.lifted)
        for factor in (2.0, 3.0, 2.0):
            expected = [
                Reading(r.id, r.value * factor)
                for r in READINGS.fetch()
                if r.value > factor
            ]
            ran = run_scaled(warm, factor)
            assert ran == run_scaled(Algorithm(scaled.lifted), factor)
            assert ran[0] == repr(sorted(expected, key=repr))

    def test_a_name_unbound_in_one_run_falls_back_as_before(self):
        # ``bonus if flag else x``: with ``bonus`` unbound the body is
        # interpreted, with the reason the emitter has always given.
        fn = ScalarFn(("x",), IfElse(Ref("flag"), Ref("bonus"), Ref("x")))
        with counting_compiles() as calls:
            bound = Udf(fn.params, fn.body, {"flag": True, "bonus": 5}, fn=fn)
            assert bound.fallback is None and bound.closure(1) == 5
            unbound = Udf(fn.params, fn.body, {"flag": False}, fn=fn)
            assert unbound.fallback == "unbound name 'bonus'"
            assert unbound.closure(1) == 1
            again = Udf(fn.params, fn.body, {"flag": True, "bonus": 7}, fn=fn)
            assert again.native and again.closure(1) == 7
        assert calls[0] == 1

    def test_two_steps_binding_one_name_apart_keep_their_kernel(self):
        add = ScalarFn(("x",), BinOp("+", Ref("x"), Ref("k")))
        mul = ScalarFn(("y",), BinOp("*", Ref("y"), Ref("k")))
        node = CMap(fn=add, input=CBagRef(name="xs"))

        def kernel(a, b):
            steps = (
                KernelStep(MAP, Udf(add.params, add.body, {"k": a}, fn=add)),
                KernelStep(MAP, Udf(mul.params, mul.body, {"k": b}, fn=mul)),
            )
            built = build_chain_kernel(steps, node=node, role="chain")
            out = []
            built.run([1, 2], out.append)
            return built.source, out

        one, two, three = 1000001, 2000002, 3000003
        inlined, out = kernel(one, one)
        assert "_f0" not in inlined
        assert out == [(1 + one) * one, (2 + one) * one]
        # The parent's source for a name two steps bind apart.
        assert kernel(one, two) == (
            "def _chain_kernel(_partition, _emit):\n"
            "    for _x0 in _partition:\n"
            "        _x1 = (_x0 + k)\n"
            "        _x2 = _f0(_x1)\n"
            "        _emit(_x2)\n"
            "    return ()",
            [(1 + one) * two, (2 + one) * two],
        )
        assert kernel(three, three) == (
            inlined,
            [(1 + three) * three, (2 + three) * three],
        )


# -- artifacts never travel and never pin job data ---------------------------


class TestArtifactsStayHome:
    def test_a_program_that_ran_pickles_as_before_and_reloads(self):
        algo = fresh(*PAGERANK)
        compiled = algo.compiled(SERIAL)
        before = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        job = pagerank_job(algo, 3)
        expected = job()
        after = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before
        cache = PlanCache()
        assert cache.store_plan(compiled)
        loaded = cache.lookup_plan(compiled.fingerprint)
        assert loaded is not compiled
        dfs = SimulatedDFS()
        path = graphs.stage_follower_graph(dfs, 120, seed=31)
        for _ in range(2):
            engine = SparkLikeEngine(dfs=dfs)
            result = run_compiled(
                loaded,
                engine,
                algo.lifted.captured,
                {"graph_path": path, "num_pages": 120, "max_iterations": 3},
            )
            assert repr(result) == expected[0]
            assert engine.metrics.simulated_seconds == (
                expected[1].simulated_seconds
            )

    def test_a_udf_pickles_without_its_plan_udf(self):
        fn = ScalarFn(("x",), BinOp("+", Ref("x"), Ref("k")))
        plain = Udf(fn.params, fn.body, {"k": 3})
        templated = Udf(fn.params, fn.body, {"k": 3}, fn=fn)
        assert templated.closure(1) == 4
        assert pickle.dumps(templated) == pickle.dumps(plain)

    def test_warm_specs_ship_the_same_bytes(self, monkeypatch):
        shipped = []
        ship = scheduler_module.ship_task

        def recording(task, specs):
            payload = ship(task, specs)
            shipped[-1].append(payload[0])
            return payload

        monkeypatch.setattr(scheduler_module, "ship_task", recording)
        # A new compiled program of the shipped PageRank: its record
        # classes must be importable in a worker.
        algo = Algorithm(pagerank.lifted)
        dfs = SimulatedDFS()
        path = graphs.stage_follower_graph(dfs, 120, seed=31)

        def run():
            shipped.append([])
            engine = SparkLikeEngine(
                dfs=dfs, execution_mode="processes", max_parallel_tasks=2
            )
            algo.run(engine, graph_path=path, num_pages=120, max_iterations=2)
            assert engine.metrics.serial_fallbacks == 0
            return engine.metrics.ipc_bytes_shipped

        assert run() == run()
        assert shipped[0] == shipped[1]

    def test_a_finished_run_leaves_no_broadcast_value_alive(self, monkeypatch):
        refs = []
        broadcast = JobExecutor.broadcast_value

        def recording(self, value):
            local = broadcast(self, value)
            refs.extend(weakref.ref(r) for r in local.fetch())
            return local

        monkeypatch.setattr(JobExecutor, "broadcast_value", recording)
        algo = fresh(*KMEANS)
        for _ in range(2):
            kmeans_job(algo, 2)()
        gc.collect()
        assert refs
        assert [r for r in refs if r() is not None] == []
        assert algo.compiled(SERIAL).sites

    def test_two_service_threads_fill_one_node_together(self, monkeypatch):
        algo = fresh(*PAGERANK)
        dfs = SimulatedDFS()
        path = graphs.stage_follower_graph(dfs, 120, seed=31)
        params = [
            {"graph_path": path, "num_pages": n, "max_iterations": 3}
            for n in (120, 90)
        ]
        expected = []
        for p in params:
            engine = SparkLikeEngine(dfs=dfs)
            value = fresh(*PAGERANK).run(engine, config=SERIAL, **p)
            expected.append((repr(value), engine.metrics.simulated_seconds))

        # Both jobs build their first kernel template at the same time,
        # from the same node of the one compiled program they share.
        together = threading.Barrier(2, timeout=30)
        started = threading.local()
        template = chainkernel.KernelTemplate.__init__

        def meeting(self, *args, **kwargs):
            if not getattr(started, "met", False):
                started.met = True
                together.wait()
            template(self, *args, **kwargs)

        monkeypatch.setattr(chainkernel.KernelTemplate, "__init__", meeting)

        class NoPlanHits(PlanCache):
            """Every job runs ``algo.compiled()``: one shared program."""

            def lookup_plan(self, fingerprint, metrics=None):
                return None

            def store_plan(self, compiled, metrics=None):
                return False

        engines = []

        def factory(shared_dfs):
            engines.append(SparkLikeEngine(dfs=shared_dfs))
            return engines[-1]

        with JobService(
            factory, dfs=dfs, cache=NoPlanHits(), max_concurrent=2
        ) as service:
            handles = [service.submit(algo, p, config=SERIAL) for p in params]
            values = [h.result(timeout=60) for h in handles]
        assert [repr(v) for v in values] == [e[0] for e in expected]
        # ``engines`` is in start order, which need not be submit order.
        assert sorted(e.metrics.simulated_seconds for e in engines) == sorted(
            e[1] for e in expected
        )
