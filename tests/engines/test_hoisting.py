"""Closed bags inside UDFs: hoisted by the compiler, broadcast by the engine.

A bag-typed subexpression of a UDF body that depends on nothing the
body binds (an inlined ``DataBag(centroids)`` in ``kmeans_assign``, or
``lineitems`` in ``tpch_q4`` once exists-unnesting is off) is cut out
by the ``hoist-closed-bags`` pass and kept, lowered, on the UDF.  Each
job runs that subplan once and broadcasts its bag; the engine never
calls the hoisting walk itself.  The ``simulated_seconds`` literals were
read when the executor still hoisted per job: the move must not change
what a run costs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.engines.dfs import SimulatedDFS
from repro.engines.local import LocalEngine
from repro.engines.plancache import PlanCache
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering import combinators
from repro.lowering.combinators import ScalarFn, combinator_nodes
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import datagen, graphs
from repro.workloads.kmeans import initial_centroids, kmeans_assign
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q4


def _world():
    dfs = SimulatedDFS()
    points = datagen.stage_points(dfs, n=90, centers=3, dim=2, seed=5)
    orders, lineitem = stage_tpch(dfs, sf=0.05, seed=5)
    centroids = initial_centroids(dfs.get(points).records, 3)
    return dfs, {
        "kmeans_assign": (
            kmeans_assign,
            EmmaConfig(),
            dict(points_path=points, centroids=centroids),
            (points,),
        ),
        "tpch_q4": (
            tpch_q4,
            EmmaConfig(unnesting=False),
            dict(
                orders_path=orders,
                lineitem_path=lineitem,
                date_min="1994-01-01",
                date_max="1994-07-01",
            ),
            (orders, lineitem),
        ),
    }


#: ``simulated_seconds`` of one run of each case on the executor that
#: hoisted at run time
SIMULATED_SECONDS = {
    "kmeans_assign": 0.26216745999999996,
    "tpch_q4": 0.3169666035416667,
}


def _hoisted(compiled) -> list[tuple[str, combinators.Combinator]]:
    return [
        pair
        for _, plan, _ in compiled.sites
        for node in combinator_nodes(plan)
        for fn in node.udfs()
        for pair in fn.hoisted
    ]


def _run(algo, config, params, dfs, engine=None):
    engine = engine or SparkLikeEngine(dfs=dfs)
    result = algo.run(engine, config=config, **params)
    if hasattr(result, "fetch"):
        result = result.fetch()
    return result, engine


@pytest.fixture(scope="module")
def world():
    return _world()


@pytest.mark.parametrize("case", SIMULATED_SECONDS)
class TestHoistingThroughTheCompiler:
    def test_the_compiled_plan_carries_a_hoisted_input(self, world, case):
        _, cases = world
        algo, config, _, _ = cases[case]
        assert len(_hoisted(algo.compiled(config))) == 1
        assert "hoist-closed-bags" in algo.compiled(config).trace.fired_rules()

    def test_run_matches_the_oracle_and_broadcasts_once(self, world, case):
        dfs, cases = world
        algo, config, params, files = cases[case]
        result, engine = _run(algo, config, params, dfs)
        local = LocalEngine()
        local.dfs = dfs
        expected = algo.run(local, **params)
        if hasattr(expected, "fetch"):
            expected = expected.fetch()
        assert sorted(map(repr, result)) == sorted(map(repr, expected))
        metrics = engine.metrics
        # Every input file is read once per job, the hoisted one too.
        assert metrics.dfs_read_bytes == sum(dfs.get(f).nbytes for f in files)
        assert metrics.broadcast_bytes > 0
        assert metrics.simulated_seconds == SIMULATED_SECONDS[case]


def test_a_compiled_job_never_calls_the_hoisting_walk(monkeypatch):
    dfs, cases = _world()
    graph = graphs.stage_follower_graph(dfs, num_vertices=16, seed=5)
    jobs = [
        (pagerank, EmmaConfig(),
         dict(graph_path=graph, num_pages=16, max_iterations=2)),
        cases["kmeans_assign"][:3],
    ]
    for algo, config, params in jobs:
        _run(algo, config, params, dfs)  # compiles
    calls = []
    walk = ScalarFn.hoist_closed_bags

    def counting(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(ScalarFn, "hoist_closed_bags", counting)
    for algo, config, params in jobs:
        _run(algo, config, params, dfs)
    assert calls == []


def test_a_hoisted_plan_survives_the_plan_cache(world, tmp_path, monkeypatch):
    dfs, cases = world
    algo, config, params, _ = cases["kmeans_assign"]
    store = PlanCache(cache_dir=str(tmp_path))
    fresh = SparkLikeEngine(dfs=dfs)
    fresh.plan_cache = store
    expected, fresh = _run(algo, config, params, dfs, fresh)
    assert store.stats.plan_misses == 1
    # A fresh driver: new cache object, node-id counter back at zero.
    monkeypatch.setattr(combinators, "_node_ids", itertools.count())
    load = PlanCache(cache_dir=str(tmp_path))
    warm = SparkLikeEngine(dfs=dfs)
    warm.plan_cache = load
    got, warm = _run(algo, config, params, dfs, warm)
    assert load.stats.plan_hits == 1 and load.stats.disk_loads == 1
    assert repr(got) == repr(expected)
    assert warm.metrics.simulated_seconds == fresh.metrics.simulated_seconds
    compiled = load.compiled(algo, config)
    subplans = _hoisted(compiled)
    assert subplans
    highest = max(
        node.node_id
        for _, plan in subplans
        for node in combinator_nodes(plan)
    )
    assert next(combinators._node_ids) > highest
