"""Wall clock of the process-pool backend against serial (PR 5).

The simulated clock (``Metrics.simulated_seconds``) models a cluster;
this benchmark records the *host* clock.  Two workloads run under
``execution_mode="serial"`` and ``execution_mode="processes"``:

* a chain-heavy arithmetic kernel loop (the most process-friendly
  shape: inlined fused kernels over float partitions, tiny IPC
  payloads), and
* end-to-end PageRank through the full compiled pipeline (joins,
  shuffles, aggregations).

Both must be **bit-identical** across modes with zero serial
fallbacks, on any machine.  Each mode's wall clock is printed and
exported to ``BENCH_pr5.json`` in CI, but no speed-up is asserted:
``processes`` is a differential-testing backend, slower than serial
on every paper workload, and makes no speed claim.
"""

import os
import time

from conftest import run_once

from repro.comprehension.exprs import BinOp, Compare, Const, Ref
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.experiments.runner import bench_cost_model, make_engine
from repro.lowering.chaining import chain_operators
from repro.lowering.combinators import CBagRef, CFilter, CMap, ScalarFn
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank

#: CPUs usable by *this process* (cgroup/affinity-aware on 3.13+;
#: ``os.cpu_count`` is the best available answer before that)
HOST_CPUS = getattr(os, "process_cpu_count", os.cpu_count)() or 1
#: concurrent task slots given to the processes mode
WIDTH = min(8, HOST_CPUS)


def _engine(dfs, mode, num_workers=8):
    engine = make_engine(
        "spark", dfs, num_workers=num_workers, cost=bench_cost_model()
    )
    engine.configure_execution(mode, max_parallel_tasks=WIDTH)
    return engine


# ---------------------------------------------------------------------------
# The arithmetic kernel loop: fused chains over float partitions
# ---------------------------------------------------------------------------


def _arith_plan(bias: float):
    """A 12-step map/filter chain of pure float arithmetic."""
    p = CBagRef(name="xs")
    for i in range(4):
        p = CMap(
            fn=ScalarFn(
                ("x",),
                BinOp(
                    "+",
                    BinOp("*", Ref("x"), Const(1.00003 + i * 1e-5)),
                    Const(bias),
                ),
            ),
            input=p,
        )
        p = CFilter(
            predicate=ScalarFn(
                ("x",), Compare("<", Ref("x"), Const(1e12))
            ),
            input=p,
        )
        p = CMap(
            fn=ScalarFn(
                ("x",),
                BinOp("-", BinOp("*", Ref("x"), Ref("x")), Ref("x")),
            ),
            input=p,
        )
    return p


def _kernel_loop(engine, bag, reps: int):
    """Run the chain for several biases; return (seconds, outputs)."""
    job = engine._new_job()
    outputs = []
    started = time.perf_counter()
    for rep in range(reps):
        for bias in (0.25, 0.5, 0.75):
            plan = chain_operators(_arith_plan(bias))
            result = JobExecutor(engine, {"xs": bag}, job)._exec(plan)
            outputs.append(
                [x for part in result.partitions for x in part]
            )
    return time.perf_counter() - started, outputs


def _run_kernel_modes():
    records = [float(i % 977) / 977.0 for i in range(160_000)]
    stats = {"host_cpus": HOST_CPUS, "width": WIDTH}
    outputs = {}
    for mode in ("serial", "processes"):
        engine = _engine(SimulatedDFS(), mode)
        bag = JobExecutor(
            engine, {}, engine._new_job()
        ).parallelize_local(records)
        _kernel_loop(engine, bag, reps=1)  # warm pool + kernel memos
        engine.reset_metrics()
        seconds, out = _kernel_loop(engine, bag, reps=2)
        outputs[mode] = out
        stats[f"{mode}_seconds"] = seconds
        stats[f"{mode}_fallbacks"] = engine.metrics.serial_fallbacks
        stats[f"{mode}_simulated"] = engine.metrics.simulated_seconds
    stats["identical"] = outputs["serial"] == outputs["processes"]
    return stats


def test_kernel_loop_processes_wall_clock(benchmark):
    stats = run_once(benchmark, _run_kernel_modes)
    print()
    print(
        f"kernel loop   serial={stats['serial_seconds']:.3f}s "
        f"processes={stats['processes_seconds']:.3f}s "
        f"cpus={HOST_CPUS} width={WIDTH}"
    )
    assert stats["identical"], "processes mode changed kernel results"
    assert stats["processes_fallbacks"] == 0
    assert stats["serial_simulated"] == stats["processes_simulated"]


# ---------------------------------------------------------------------------
# End-to-end PageRank through the compiled pipeline
# ---------------------------------------------------------------------------


def _run_pagerank_modes():
    dfs = SimulatedDFS()
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=1600)
    n = len(dfs.get(graph_path).records)
    stats = {"host_cpus": HOST_CPUS, "width": WIDTH}
    outputs = {}
    for mode in ("serial", "processes"):
        engine = _engine(dfs, mode, num_workers=WIDTH)
        # Warm run: spawn the pool, compile + memoize every kernel.
        pagerank.run(
            engine, graph_path=graph_path, num_pages=n, max_iterations=1
        )
        engine.reset_metrics()
        started = time.perf_counter()
        ranks = pagerank.run(
            engine, graph_path=graph_path, num_pages=n, max_iterations=4
        )
        stats[f"{mode}_seconds"] = time.perf_counter() - started
        outputs[mode] = [repr(r) for r in ranks.fetch()]
        stats[f"{mode}_fallbacks"] = engine.metrics.serial_fallbacks
        stats[f"{mode}_simulated"] = engine.metrics.simulated_seconds
        stats[f"{mode}_wall_metric"] = engine.metrics.wall_clock_seconds
    stats["identical"] = outputs["serial"] == outputs["processes"]
    return stats


def test_pagerank_processes_wall_clock(benchmark):
    stats = run_once(benchmark, _run_pagerank_modes)
    print()
    print(
        f"pagerank      serial={stats['serial_seconds']:.3f}s "
        f"processes={stats['processes_seconds']:.3f}s "
        f"cpus={HOST_CPUS} width={WIDTH}"
    )
    assert stats["identical"], "processes mode changed PageRank ranks"
    assert stats["processes_fallbacks"] == 0
    # The simulated clock must not notice the execution mode ...
    assert stats["serial_simulated"] == stats["processes_simulated"]
    # ... while the measured wall-clock metric tracks the host run.
    assert stats["processes_wall_metric"] > 0.0
