"""A warm service answer must equal the cold executed value.

A result-cache hit runs no job at all, so its value must be
``repr``-identical to the cold run that memoized it — across execution
modes, under aggressive fault injection and inside a driver memory
budget.  A *plan*-cache hit executes, and is one axis of
``test_physical_lattice.py``; a hit against a cold compile in the same
mode and budget is checked here on the same harness.
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
from tests.engines.test_physical_lattice import (
    assert_agrees,
    lattice_world,
    run_point,
)

MODES = ("serial", "processes")

#: The acceptance budget: tight enough to evict, roomy enough to run.
BUDGET = 256 * 1024


@pytest.fixture(scope="module")
def world():
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=60)
    _, lineitem_path = stage_tpch(dfs, sf=0.02)
    return {
        "dfs": dfs,
        "q1": {"lineitem_path": lineitem_path, "ship_date_max": "1996-12-01"},
        "pagerank": {
            "graph_path": graph_path,
            "num_pages": len(dfs.get(graph_path).records),
            "max_iterations": 4,
        },
    }


def _config(mode, budget=0):
    return EmmaConfig(
        execution_mode=mode,
        max_parallel_tasks=2,
        memory_budget=budget,
    )


def _reprs(result) -> list[str]:
    records = result.fetch() if hasattr(result, "fetch") else [result]
    return [repr(r) for r in records]


def _cold_then_warm(
    world, tmp_path, algo, params, cold, warm, fault_plan=None
):
    """Submit under ``cold`` then ``warm``; the second must be served."""
    svc = JobService(
        lambda dfs: SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            dfs=dfs,
            fault_plan=fault_plan,
            checkpoint_interval=2 if fault_plan else 0,
        ),
        dfs=world["dfs"],
        cache=PlanCache(cache_dir=str(tmp_path)),
    )
    try:
        first = svc.submit(algo, params, config=cold).result(timeout=120)
        handle = svc.submit(algo, params, config=warm)
        second = handle.result(timeout=120)
    finally:
        svc.shutdown()
    assert handle.served_from_cache
    assert _reprs(second) == _reprs(first)


class TestResultHitServesIdentically:
    @pytest.mark.parametrize("mode", MODES)
    def test_warm_service_answer_matches_cold(self, world, tmp_path, mode):
        config = _config(mode)
        _cold_then_warm(world, tmp_path, tpch_q1, world["q1"], config, config)

    def test_warm_answer_crosses_modes(self, world, tmp_path):
        # A result computed in serial mode serves a processes-mode
        # submission: runtime knobs are outside the fingerprint.
        _cold_then_warm(
            world,
            tmp_path,
            tpch_q1,
            world["q1"],
            _config("serial"),
            _config("processes"),
        )

    def test_warm_under_faults_and_budget(self, world, tmp_path):
        # Even with chaos injection and a tight budget configured,
        # the warm path serves the same value the cold chaos run
        # produced (fault schedules are simulation-deterministic).
        config = _config("processes", budget=BUDGET)
        _cold_then_warm(
            world,
            tmp_path,
            pagerank,
            world["pagerank"],
            config,
            config,
            fault_plan=FaultPlan.aggressive(),
        )


def _cold_vs_hit(run_point, workload, mode, budget="0"):
    """A disk-reloaded plan against a fresh compile, all else equal."""
    bits = ("1" if mode == "processes" else "0") + "00" + budget
    assert_agrees(run_point, workload, bits + "1", base=bits + "0")


class TestPlanHitExecutesIdentically:
    @pytest.mark.parametrize("mode", MODES)
    def test_pagerank_all_modes(self, run_point, mode):
        _cold_vs_hit(run_point, "pagerank", mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_tpch_q1_all_modes(self, run_point, mode):
        _cold_vs_hit(run_point, "tpch_q1", mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_under_memory_budget(self, run_point, mode):
        _cold_vs_hit(run_point, "pagerank", mode, budget="1")
