"""Shuffle-volume regression bench — partitioning-aware planning (PR 4).

Guards the physical planner's headline wins with hard floors, printed
as paper-style rows and exported to ``BENCH_pr4.json`` in CI:

* **PageRank (10 iterations)**: the planner's elision (ranks side
  co-partitioned with the join key) plus loop-invariant hoisting (the
  adjacency flat-map shuffled once, reused every iteration) must cut
  ``shuffle_bytes`` by at least 2x against the planner-off baseline,
  with a measurable ``simulated_seconds`` improvement — at
  byte-identical ranks.
* **Connected components, TPC-H Q1/Q4**: planner-on metric rows
  (bytes shuffled, elided/hoisted counts, simulated seconds) recorded
  so a regression that silently re-introduces data motion shows up in
  the artifact diff.

Both PageRank configurations run under a small broadcast threshold so
the baseline realizes its joins by repartitioning — the regime the
planner improves; with a huge threshold both configurations would
broadcast and the comparison would measure nothing.
"""

from conftest import run_once

from repro.engines.dfs import SimulatedDFS
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import graphs
from repro.workloads.connected_components import connected_components
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

PLAN_ON = EmmaConfig()
PLAN_OFF = EmmaConfig(physical_planning=False)

#: below the per-iteration rank-state bytes — forces the baseline to
#: repartition instead of broadcasting every iteration
THRESHOLD = 32 * 1024

PAGERANK_VERTICES = 2000
PAGERANK_ITERATIONS = 10


def _metrics_row(name, m):
    row = {
        "workload": name,
        "bytes_shuffled": m.shuffle_bytes,
        "simulated_seconds": round(m.simulated_seconds, 6),
        "shuffles_elided": m.shuffles_elided,
        "shuffles_hoisted": m.shuffles_hoisted,
        "broadcast_joins": m.broadcast_joins,
        "repartition_joins": m.repartition_joins,
    }
    print(
        f"{name:>18}: {m.shuffle_bytes:>10} bytes shuffled, "
        f"{m.simulated_seconds:8.3f} s, "
        f"elided={m.shuffles_elided} hoisted={m.shuffles_hoisted} "
        f"bcast_joins={m.broadcast_joins} "
        f"repart_joins={m.repartition_joins}"
    )
    return row


def _run_pagerank(config):
    dfs = SimulatedDFS()
    engine = SparkLikeEngine(dfs=dfs)
    engine.broadcast_join_threshold = THRESHOLD
    path = graphs.stage_follower_graph(
        dfs, num_vertices=PAGERANK_VERTICES, seed=7
    )
    result = pagerank.run(
        engine,
        config=config,
        graph_path=path,
        num_pages=PAGERANK_VERTICES,
        max_iterations=PAGERANK_ITERATIONS,
    )
    return engine.metrics, sorted((v.id, v.rank) for v in result)


class TestPageRankShuffleVolume:
    def test_planner_halves_bytes_shuffled(self, benchmark):
        def experiment():
            off, baseline_ranks = _run_pagerank(PLAN_OFF)
            on, planned_ranks = _run_pagerank(PLAN_ON)
            return off, on, baseline_ranks, planned_ranks

        off, on, baseline_ranks, planned_ranks = run_once(
            benchmark, experiment
        )
        print()
        _metrics_row("pagerank (off)", off)
        row = _metrics_row("pagerank (on)", on)
        ratio = off.shuffle_bytes / max(on.shuffle_bytes, 1)
        print(f"    bytes_shuffled reduction: {ratio:.2f}x")
        benchmark.extra_info.update(row)
        benchmark.extra_info["baseline_bytes_shuffled"] = off.shuffle_bytes
        benchmark.extra_info["baseline_simulated_seconds"] = round(
            off.simulated_seconds, 6
        )
        benchmark.extra_info["reduction_factor"] = round(ratio, 3)
        # The planner must never change the answer...
        assert planned_ranks == baseline_ranks
        # ...and must at least halve the bytes moved (acceptance
        # floor; the observed reduction is ~4x) while also saving
        # simulated time.
        assert on.shuffle_bytes * 2 <= off.shuffle_bytes
        assert on.simulated_seconds < off.simulated_seconds
        assert on.shuffles_hoisted == PAGERANK_ITERATIONS - 1


class TestPlannerMetricRows:
    def test_connected_components_row(self, benchmark):
        def experiment():
            dfs = SimulatedDFS()
            engine = SparkLikeEngine(dfs=dfs)
            path = "data/cc-graph"
            dfs.put(
                path,
                graphs.generate_component_graph(
                    400, num_components=8
                ),
            )
            connected_components.run(
                engine, config=PLAN_ON, graph_path=path
            )
            return engine.metrics

        metrics = run_once(benchmark, experiment)
        print()
        benchmark.extra_info.update(
            _metrics_row("connected-comp", metrics)
        )
        assert metrics.shuffle_bytes >= 0

    def test_tpch_rows(self, benchmark):
        def experiment():
            dfs = SimulatedDFS()
            orders_path, lineitem_path = stage_tpch(dfs, sf=0.1)
            q1_engine = SparkLikeEngine(dfs=dfs)
            tpch_q1.run(
                q1_engine,
                config=PLAN_ON,
                lineitem_path=lineitem_path,
                ship_date_max="1996-12-01",
            )
            q4_engine = SparkLikeEngine(dfs=dfs)
            tpch_q4.run(
                q4_engine,
                config=PLAN_ON,
                orders_path=orders_path,
                lineitem_path=lineitem_path,
                date_min="1994-01-01",
                date_max="1994-07-01",
            )
            return q1_engine.metrics, q4_engine.metrics

        q1, q4 = run_once(benchmark, experiment)
        print()
        for key, value in _metrics_row("tpch-q1", q1).items():
            benchmark.extra_info[f"q1_{key}"] = value
        for key, value in _metrics_row("tpch-q4", q4).items():
            benchmark.extra_info[f"q4_{key}"] = value
        assert q1.shuffle_bytes >= 0 and q4.shuffle_bytes >= 0
