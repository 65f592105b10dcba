"""A mid-run budget squeeze must evict and still change nothing.

The ``MEMORY_SQUEEZE`` chaos event drops the driver memory budget in
the middle of a run.  Fixed budgets across every execution mode, plane
and cache state are checked by ``test_physical_lattice.py``.
"""

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank

MODES = ("serial", "processes")


class TestMemorySqueezeChaos:
    """The MEMORY_SQUEEZE chaos event drops the budget mid-run; the
    squeeze must evict immediately and still change nothing observable."""

    def test_squeeze_is_invisible_and_actually_evicts(self):
        dfs = SimulatedDFS()
        graph = graphs.stage_follower_graph(dfs, num_vertices=90)
        n = len(dfs.get(graph).records)
        plan = FaultPlan.spill_pressure(budget=4096)
        outcomes = {}
        for mode in MODES:
            for squeezed in (False, True):
                # checkpoint_interval must match across the pair: it
                # changes the job sequence.
                engine = SparkLikeEngine(
                    cluster=ClusterConfig(num_workers=4),
                    dfs=dfs,
                    fault_plan=plan if squeezed else None,
                    checkpoint_interval=2,
                )
                result = pagerank.run(
                    engine,
                    config=EmmaConfig(
                        memory_budget=0,
                        execution_mode=mode,
                        max_parallel_tasks=2,
                    ),
                    graph_path=graph,
                    num_pages=n,
                    max_iterations=4,
                )
                outcomes[(mode, squeezed)] = (
                    [repr(r) for r in result.fetch()],
                    engine.metrics,
                )
        base_records, _ = outcomes[("serial", False)]
        for (mode, squeezed), (records, metrics) in outcomes.items():
            assert records == base_records, f"{mode} diverged"
            if squeezed:
                # The squeeze plan also injects a crash, a straggler,
                # and a worker loss on top of the eviction pressure.
                assert metrics.partitions_spilled > 0, mode
                assert metrics.tasks_retried > 0
                assert metrics.workers_lost > 0
        clean = outcomes[("serial", False)][1].simulated_seconds
        squeezed_runs = {
            outcomes[(mode, True)][1].simulated_seconds
            for mode in MODES
        }
        # All squeezed runs agree with each other (the squeeze itself
        # charges simulated time only through its injected faults).
        assert len(squeezed_runs) == 1
        assert squeezed_runs.pop() > clean
