"""Differential suite for the plan/result cache: warm == cold, always.

The cache's contract is the spill layer's, one level up: it changes
*when* compilation and execution happen, never *what* they produce.
Two differentials prove it:

* **Plan-hit**: a compiled program pickled to disk and reloaded by a
  fresh cache instance must *execute* bit-identically to the freshly
  compiled original — same ``repr``, same ``simulated_seconds``, same
  fault/recovery schedule — across serial, threaded, and process-pool
  modes, under aggressive fault injection, and inside a 256 KiB
  driver memory budget.
* **Result-hit**: a warm service answer (no execution at all) must be
  ``repr``-identical to the cold executed value under the same matrix.

Only wall clock and the ``*_cache_*`` counters may move.
"""

from __future__ import annotations

import pytest

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.plancache import PlanCache
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.server import JobService
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1

MODES = ("serial", "processes")

#: The acceptance budget: tight enough to evict, roomy enough to run.
BUDGET = 256 * 1024

#: Beyond ``metrics.HOST_DEPENDENT``, the counters allowed to differ
#: between cold and warm runs: columnar/spill accounting and the
#: cache's own.  Everything else — simulated time, shuffle/broadcast/DFS
#: bytes, fault and recovery schedules — must match exactly.
_PLANE_DEPENDENT = {
    "columnar_batches_built",
    "columnar_kernels",
    "columnar_fallbacks",
    "columnar_fallbacks_udf",
    "columnar_fallbacks_schema",
    "columnar_fallbacks_input",
    "spill_bytes_written",
    "spill_bytes_read",
    "partitions_spilled",
    "partitions_reloaded",
    "external_merge_passes",
    "budget_evictions",
    "plan_cache_hits",
    "plan_cache_misses",
    "result_cache_hits",
    "result_cache_misses",
    "compile_seconds_saved",
    "backfill_partitions",
    "cache_entries_evicted",
}


@pytest.fixture(scope="module")
def world():
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=60)
    _, lineitem_path = stage_tpch(dfs, sf=0.02)
    return {"dfs": dfs, "graph": graph_path, "lineitem": lineitem_path}


def _engine(world, mode, fault_plan=None):
    return SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4),
        dfs=world["dfs"],
        execution_mode=mode,
        max_parallel_tasks=2,
        fault_plan=fault_plan,
        checkpoint_interval=2 if fault_plan else 0,
    )


def _config(mode, budget=0):
    return EmmaConfig(
        execution_mode=mode,
        max_parallel_tasks=2,
        memory_budget=budget,
    )


def _reprs(result) -> list[str]:
    records = result.fetch() if hasattr(result, "fetch") else [result]
    return [repr(r) for r in records]


def _run_cold_vs_plan_hit(
    world, tmp_path, algo, params, mode, fault_plan=None, budget=0
):
    """Compile fresh, then execute the disk-reloaded plan; compare."""
    cache_dir = str(tmp_path)
    cold_cache = PlanCache(cache_dir=cache_dir)
    cold_engine = _engine(world, mode, fault_plan=fault_plan)
    cold_engine.attach_plan_cache(cold_cache)
    cold = algo.run(
        cold_engine, config=_config(mode, budget), **params
    )
    assert cold_engine.metrics.plan_cache_misses == 1
    # A fresh PlanCache over the same directory = a fresh driver: the
    # plan comes back through pickle, never through compile_program.
    warm_cache = PlanCache(cache_dir=cache_dir)
    warm_engine = _engine(world, mode, fault_plan=fault_plan)
    warm_engine.attach_plan_cache(warm_cache)
    warm = algo.run(
        warm_engine, config=_config(mode, budget), **params
    )
    assert warm_engine.metrics.plan_cache_hits == 1
    assert warm_cache.stats.disk_loads == 1
    assert _reprs(warm) == _reprs(cold), (
        f"plan-cache hit diverged in mode={mode} "
        f"faults={fault_plan is not None} budget={budget}"
    )
    assert warm_engine.metrics.invariant(
        _PLANE_DEPENDENT
    ) == cold_engine.metrics.invariant(_PLANE_DEPENDENT), (
        f"invariant metrics diverged in mode={mode}"
    )
    return cold


class TestPlanHitExecutesIdentically:
    @pytest.mark.parametrize("mode", MODES)
    def test_pagerank_all_modes(self, world, tmp_path, mode):
        n = len(world["dfs"].get(world["graph"]).records)
        _run_cold_vs_plan_hit(
            world,
            tmp_path,
            pagerank,
            {
                "graph_path": world["graph"],
                "num_pages": n,
                "max_iterations": 4,
            },
            mode,
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_tpch_q1_all_modes(self, world, tmp_path, mode):
        _run_cold_vs_plan_hit(
            world,
            tmp_path,
            tpch_q1,
            {
                "lineitem_path": world["lineitem"],
                "ship_date_max": "1996-12-01",
            },
            mode,
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_under_aggressive_faults(self, world, tmp_path, mode):
        # A cached plan must replay the exact same injected-fault and
        # recovery schedule as the freshly compiled one.
        n = len(world["dfs"].get(world["graph"]).records)
        _run_cold_vs_plan_hit(
            world,
            tmp_path,
            pagerank,
            {
                "graph_path": world["graph"],
                "num_pages": n,
                "max_iterations": 4,
            },
            mode,
            fault_plan=FaultPlan.aggressive(),
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_under_memory_budget(self, world, tmp_path, mode):
        n = len(world["dfs"].get(world["graph"]).records)
        _run_cold_vs_plan_hit(
            world,
            tmp_path,
            pagerank,
            {
                "graph_path": world["graph"],
                "num_pages": n,
                "max_iterations": 4,
            },
            mode,
            budget=BUDGET,
        )


class TestResultHitServesIdentically:
    @pytest.mark.parametrize("mode", MODES)
    def test_warm_service_answer_matches_cold(
        self, world, tmp_path, mode
    ):
        svc = JobService(
            lambda dfs: _engine({"dfs": dfs}, mode),
            dfs=world["dfs"],
            cache=PlanCache(cache_dir=str(tmp_path)),
        )
        try:
            params = {
                "lineitem_path": world["lineitem"],
                "ship_date_max": "1996-12-01",
            }
            cold = svc.submit(
                tpch_q1, params, config=_config(mode)
            ).result(timeout=120)
            warm_handle = svc.submit(
                tpch_q1, params, config=_config(mode)
            )
            warm = warm_handle.result(timeout=120)
            assert warm_handle.served_from_cache
            assert _reprs(warm) == _reprs(cold)
        finally:
            svc.shutdown()

    def test_warm_answer_crosses_modes(self, world, tmp_path):
        # A result computed in serial mode serves a processes-mode
        # submission: runtime knobs are outside the fingerprint.
        svc = JobService(
            lambda dfs: _engine({"dfs": dfs}, "serial"),
            dfs=world["dfs"],
            cache=PlanCache(cache_dir=str(tmp_path)),
        )
        try:
            params = {
                "lineitem_path": world["lineitem"],
                "ship_date_max": "1996-12-01",
            }
            cold = svc.submit(
                tpch_q1, params, config=_config("serial")
            ).result(timeout=120)
            warm_handle = svc.submit(
                tpch_q1, params, config=_config("processes")
            )
            warm = warm_handle.result(timeout=120)
            assert warm_handle.served_from_cache
            assert _reprs(warm) == _reprs(cold)
        finally:
            svc.shutdown()

    def test_warm_under_faults_and_budget(self, world, tmp_path):
        # Even with chaos injection and a tight budget configured,
        # the warm path serves the same value the cold chaos run
        # produced (fault schedules are simulation-deterministic).
        plan = FaultPlan.aggressive()
        svc = JobService(
            lambda dfs: _engine(
                {"dfs": dfs}, "processes", fault_plan=plan
            ),
            dfs=world["dfs"],
            cache=PlanCache(cache_dir=str(tmp_path)),
        )
        try:
            n = len(world["dfs"].get(world["graph"]).records)
            params = {
                "graph_path": world["graph"],
                "num_pages": n,
                "max_iterations": 4,
            }
            config = _config("processes", budget=BUDGET)
            cold = svc.submit(pagerank, params, config=config).result(
                timeout=120
            )
            warm_handle = svc.submit(pagerank, params, config=config)
            warm = warm_handle.result(timeout=120)
            assert warm_handle.served_from_cache
            assert _reprs(warm) == _reprs(cold)
        finally:
            svc.shutdown()
