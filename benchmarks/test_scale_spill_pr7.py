"""Out-of-core scale benchmark — the memory-budgeted spill tier (PR 7).

Two workloads run at **10x** the scale of the earlier regression
benches (PageRank on a 16,000-vertex follower graph vs 1,600 in the
PR 5 wall-clock bench; TPC-H Q1 at sf=1.0 vs sf=0.1 in the PR 4
shuffle bench), each under an unlimited driver budget and under a
fixed 256 KiB one:

* **Spill-on vs spill-off bit-identity.**  Results (exact ``repr`` in
  collection order) and ``simulated_seconds`` must not notice the
  budget, in serial and process-pool modes alike — spilling is a host
  mechanism, invisible to the simulated cluster.
* **The budget actually bites.**  The budgeted PageRank run must
  evict real partitions through real temp files and reload them; the
  numbers are printed and exported to ``BENCH_pr7.json`` in CI.
"""

import time

from conftest import run_once

from repro.engines.dfs import SimulatedDFS
from repro.experiments.runner import bench_cost_model, make_engine
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1

#: the fixed driver budget (bytes) every spill-on run executes under
BUDGET = 256 * 1024

#: 10x the PR 5 wall-clock bench's 1,600-vertex graph
NUM_VERTICES = 16_000

#: 10x the PR 4 shuffle bench's sf=0.1
TPCH_SF = 1.0

MODES = ("serial", "processes")


def _engine(dfs, mode, budget):
    engine = make_engine(
        "spark", dfs, num_workers=8, cost=bench_cost_model()
    )
    engine.configure_execution(mode, max_parallel_tasks=4)
    engine.configure_memory(budget)
    return engine


def _spill_stats(metrics) -> dict:
    return {
        "spilled": metrics.partitions_spilled,
        "reloaded": metrics.partitions_reloaded,
        "spill_w": metrics.spill_bytes_written,
        "spill_r": metrics.spill_bytes_read,
        "ipc": metrics.ipc_bytes_shipped,
        "evictions": metrics.budget_evictions,
    }


def _run_workload(run, dfs) -> dict:
    """Run one workload over (mode, budget); collect the comparison."""
    stats: dict = {}
    outcomes = {}
    for mode in MODES:
        for budget in (0, BUDGET):
            engine = _engine(dfs, mode, budget)
            started = time.perf_counter()
            records = run(engine)
            key = f"{mode}_b{budget}"
            stats[f"{key}_seconds"] = time.perf_counter() - started
            stats[key] = _spill_stats(engine.metrics)
            outcomes[(mode, budget)] = (
                records,
                engine.metrics.simulated_seconds,
            )
    base_records, base_sim = outcomes[("serial", 0)]
    stats["identical"] = all(
        records == base_records and sim == base_sim
        for records, sim in outcomes.values()
    )
    stats["simulated"] = base_sim
    return stats


def _run_pagerank() -> dict:
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(
        dfs, num_vertices=NUM_VERTICES
    )
    n = len(dfs.get(graph_path).records)

    def run(engine):
        ranks = pagerank.run(
            engine,
            graph_path=graph_path,
            num_pages=n,
            max_iterations=4,
        )
        return [repr(r) for r in ranks.fetch()]

    stats = _run_workload(run, dfs)
    stats["num_vertices"] = NUM_VERTICES
    return stats


def _run_q1() -> dict:
    dfs = SimulatedDFS()
    _, lineitem_path = stage_tpch(dfs, sf=TPCH_SF)

    def run(engine):
        out = tpch_q1.run(
            engine,
            lineitem_path=lineitem_path,
            ship_date_max="1998-09-02",
        )
        return [repr(r) for r in out.fetch()]

    stats = _run_workload(run, dfs)
    stats["sf"] = TPCH_SF
    return stats


def _print_rows(name: str, stats: dict) -> None:
    print()
    for mode in MODES:
        for budget in (0, BUDGET):
            key = f"{mode}_b{budget}"
            s = stats[key]
            print(
                f"{name:9s} {mode:9s} budget={budget or 'inf':>9} "
                f"wall={stats[f'{key}_seconds']:6.2f}s "
                f"spilled={s['spilled']:3d} "
                f"spill_w={s['spill_w']:>10,} "
                f"spill_r={s['spill_r']:>10,} "
                f"ipc={s['ipc']:>11,}"
            )


def test_pagerank_out_of_core_at_10x(benchmark):
    stats = run_once(benchmark, _run_pagerank)
    _print_rows("pagerank", stats)
    assert stats["identical"], "the budget changed an observable"
    # The fixed budget must have forced real out-of-core execution.
    for mode in MODES:
        budgeted = stats[f"{mode}_b{BUDGET}"]
        assert budgeted["spilled"] > 0, f"{mode}: budget never bit"
        assert budgeted["spill_w"] > 0
        assert budgeted["reloaded"] > 0
    # Unlimited runs never touch the spill tier.
    for mode in MODES:
        assert stats[f"{mode}_b0"]["spilled"] == 0


def test_tpch_q1_out_of_core_at_10x(benchmark):
    stats = run_once(benchmark, _run_q1)
    _print_rows("tpch_q1", stats)
    # Q1 is a single scan-aggregate job: nothing stays resident long
    # enough to evict, so the budget must be *harmless* here.
    assert stats["identical"], "the budget changed an observable"
