"""The physical lattice: one differential harness for every physical knob.

The paper's claim is that lowering a program to a parallel dataflow
never changes what it means.  This repository holds a stronger rule
across the five two-valued knobs of :data:`LATTICE` — execution mode,
the columnar chain plane, the columnar exchange plane, the driver
memory budget and the plan-cache state: a run at any point must return
``repr``-identical results, in collection order, to the baseline point,
and :meth:`Metrics.invariant` over the axes of the knobs it sets —
simulated seconds, byte counts, fault and recovery schedules — must be
bit-identical.  Which counters a knob may move is declared once, on the
counter, in :mod:`repro.engines.metrics`.  :func:`assert_agrees` is the
oracle; other suites call it to compare two points off the array.

:data:`POINTS` is the baseline plus a pairwise covering array, so every
pair of axis values meets in at least one point.  Each point sets every
knob explicitly, so ``REPRO_*`` defaults cannot shift it.  Every
non-baseline value must also visibly take effect (:func:`_assert_engaged`)
— the identity half proves nothing about a plane that never ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pytest

from repro.api import DataBag, parallelize, read, stateful
from repro.core.io import JsonLinesFormat
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.metrics import Metrics
from repro.engines.plancache import CacheStats, PlanCache
from repro.engines.scheduler import TaskScheduler
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import datagen, graphs
from repro.workloads.connected_components import connected_components
from repro.workloads.kmeans import initial_centroids, kmeans
from repro.workloads.pagerank import VertexRank, pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

#: knob -> (baseline value, other value, the ``Metrics`` axis it may move)
LATTICE = {
    "execution_mode": ("serial", "processes", "mode"),
    "columnar": ("off", "on", "plane"),
    "columnar_exchange": ("off", "on", "plane"),
    "memory_budget": (0, 16 * 1024, "budget"),
    "plan_cache": ("cold", "hit", "cache"),
}

#: One bit per :data:`LATTICE` knob, in order (1 = the other value): the
#: baseline, then six rows covering every pair of values.  Each
#: processes row has a serial twin on the same planes and budget.
POINTS = ("00000", "00010", "00100", "01000", "01111", "10001", "11110")


def point(bits: str) -> dict:
    """The knob settings a row of :data:`POINTS` stands for."""
    return {
        knob: values[int(bit)] for (knob, values), bit in zip(LATTICE.items(), bits)
    }


def _point_id(bits: str) -> str:
    """The point's non-baseline values, short enough for a test id."""
    words = ("processes", "columnar", "exchange", "budget", "hit")
    return "+".join(w for w, bit in zip(words, bits) if bit == "1") or "baseline"


@parallelize
def skew_join(xs: DataBag, ys: DataBag):
    """A two-table equi-join on a deliberately skewed tuple key."""
    pairs = ((x, y) for x in xs for y in ys if x[0] == y[0])
    return [(p[0][0], p[0][1] + p[1][1]) for p in pairs]


_GRAPH = JsonLinesFormat(graphs.Vertex)


@parallelize
def halve_ranks(graph_path, rounds):
    """Point-wise ``state.update``: halve every rank above one."""
    vertices = read(graph_path, _GRAPH)
    state = stateful(VertexRank(v.id, float(len(v.neighbors))) for v in vertices)
    i = 0
    while i < rounds:
        state.update(lambda s: VertexRank(s.id, s.rank / 2) if s.rank > 1.0 else None)
        i = i + 1
    return state.bag()

#: Every tenth left row keeps its own key, the rest pile onto key 3 —
#: one shuffle bucket dominates.
SKEW_LEFT = [(i % 7 if i % 10 == 0 else 3, float(i)) for i in range(400)]
SKEW_RIGHT = [(i % 7, float(i) * 0.5) for i in range(300)]

#: workload -> the non-baseline knobs it must visibly engage (the
#: exchange plane engages wherever a shuffle runs; Q4 alone has a
#: vectorizable chain; PageRank alone keeps enough state resident to
#: spill and reload; the point-wise update has no shuffle at all)
ENGAGES = {
    "pagerank": {"columnar_exchange", "memory_budget"},
    "connected_components": {"columnar_exchange"},
    "halve_ranks": set(),
    "kmeans": {"columnar_exchange"},
    "tpch_q1": {"columnar_exchange"},
    "tpch_q4": {"columnar", "columnar_exchange"},
    "skew_join": {"columnar_exchange"},
}

#: (workload, fault plan): every workload clean, all but k-means again
#: under chaos
CASES = [(name, None) for name in ENGAGES] + [
    ("pagerank", FaultPlan.aggressive(seed=23)),
    ("connected_components", FaultPlan.aggressive(seed=23)),
    ("halve_ranks", FaultPlan.aggressive(seed=23)),
    ("tpch_q1", FaultPlan.aggressive(seed=5)),
    ("tpch_q4", FaultPlan.aggressive(seed=5)),
    ("skew_join", FaultPlan.aggressive(seed=7)),
]


class RecordingScheduler(TaskScheduler):
    """A scheduler that logs every task it is handed, in order."""

    def __init__(self, mode):
        super().__init__(mode=mode, max_parallel_tasks=2)
        #: (label, partition index) of every submitted task
        self.submitted = []

    def run_stage(self, tasks, metrics=None):
        self.submitted += [(t.label, t.index) for t in tasks]
        return super().run_stage(tasks, metrics)


@dataclass
class Outcome:
    records: list[str]
    metrics: Metrics
    submitted: list[tuple[str, int]]
    cache: CacheStats


@pytest.fixture(scope="module")
def lattice_world():
    """Each workload as ``(algorithm, parameters)`` over one staged DFS."""
    dfs = SimulatedDFS()
    graph = graphs.stage_follower_graph(dfs, num_vertices=200)
    points = datagen.stage_points(dfs, n=90, centers=3, dim=2)
    orders, lineitem = stage_tpch(dfs, sf=0.05)
    return dfs, {
        "pagerank": (
            pagerank,
            dict(
                graph_path=graph,
                num_pages=len(dfs.get(graph).records),
                max_iterations=4,
            ),
        ),
        "connected_components": (connected_components, dict(graph_path=graph)),
        "halve_ranks": (halve_ranks, dict(graph_path=graph, rounds=4)),
        "kmeans": (
            kmeans,
            dict(
                points_path=points,
                initial=initial_centroids(dfs.get(points).records, 3),
                epsilon=1e-6,
                max_iterations=4,
            ),
        ),
        "tpch_q1": (
            tpch_q1,
            dict(lineitem_path=lineitem, ship_date_max="1996-12-01"),
        ),
        "tpch_q4": (
            tpch_q4,
            dict(
                orders_path=orders,
                lineitem_path=lineitem,
                date_min="1995-01-01",
                date_max="1996-07-01",
            ),
        ),
        "skew_join": (
            skew_join,
            dict(xs=DataBag(SKEW_LEFT), ys=DataBag(SKEW_RIGHT)),
        ),
    }


@pytest.fixture(scope="module")
def run_point(lattice_world, tmp_path_factory):
    """``run_point(workload, bits, fault_plan)``, each run done once."""
    dfs, workloads = lattice_world
    runs = {}

    def run(workload, bits, fault_plan):
        key = (workload, bits, fault_plan)
        if key in runs:
            return runs[key]
        algo, params = workloads[workload]
        knobs = point(bits)
        config = EmmaConfig(
            columnar=knobs["columnar"],
            columnar_exchange=knobs["columnar_exchange"],
            memory_budget=knobs["memory_budget"],
        )
        cache_dir = str(tmp_path_factory.mktemp("plans"))
        if knobs["plan_cache"] == "hit":
            # An earlier driver compiled the plan into the directory.
            PlanCache(cache_dir).compiled(algo, config)
        cache = PlanCache(cache_dir)
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            dfs=dfs,
            execution_mode=knobs["execution_mode"],
            max_parallel_tasks=2,
            fault_plan=fault_plan,
            checkpoint_interval=2 if fault_plan else 0,
        )
        engine._scheduler = RecordingScheduler(knobs["execution_mode"])
        engine.attach_plan_cache(cache)
        result = algo.run(engine, config=config, **params)
        records = result.fetch() if hasattr(result, "fetch") else result
        runs[key] = Outcome(
            [repr(r) for r in records],
            engine.metrics,
            engine.scheduler.submitted,
            cache.stats,
        )
        return runs[key]

    return run


def _assert_engaged(run_point, workload, bits, fault_plan, got):
    """Every non-baseline knob of the point must have taken effect."""
    knobs, m, engages = point(bits), got.metrics, ENGAGES[workload]
    exchanged = m.columnar_shuffles + m.columnar_joins + m.columnar_groups
    if knobs["execution_mode"] == "processes":
        assert m.parallel_tasks > 0 and m.serial_fallbacks == 0
        # One implementation per operator: the mode only picks how the
        # serial twin's tasks are dispatched.
        twin = next(p for p in POINTS if p[0] == "0" and p[1:4] == bits[1:4])
        assert got.submitted == run_point(workload, twin, fault_plan).submitted
        # Exchange payloads cross the process boundary as typed blocks.
        assert (m.columnar_blocks_shipped > 0) == (exchanged > 0)
    if knobs["columnar"] == "on" and "columnar" in engages:
        assert m.columnar_kernels > 0
    if knobs["columnar_exchange"] == "off":
        assert exchanged == 0
    elif "columnar_exchange" in engages:
        assert exchanged > 0
    if knobs["memory_budget"] and "memory_budget" in engages:
        assert m.partitions_spilled > 0 and m.partitions_reloaded > 0
    if knobs["plan_cache"] == "hit":
        assert m.plan_cache_hits == 1 and got.cache.disk_loads == 1
    else:
        assert m.plan_cache_misses == 1


def assert_agrees(run_point, workload, bits, fault_plan=None, base=POINTS[0]):
    """The oracle: the run at ``bits`` matches the run at ``base`` —
    ``repr``-identical records, and equal :meth:`Metrics.invariant` over
    the axes of every knob either point sets (a budget's spill counters
    also follow the plane that fills it) — and every non-baseline knob
    of ``bits`` took effect.  Returns the run at ``bits``."""
    before = run_point(workload, base, fault_plan)
    got = run_point(workload, bits, fault_plan)
    axes = {LATTICE[k][2] for k, b, a in zip(LATTICE, bits, base) if "1" in b + a}
    assert got.records == before.records
    assert got.metrics.invariant(*axes) == before.metrics.invariant(*axes)
    _assert_engaged(run_point, workload, bits, fault_plan, got)
    return got


def test_points_cover_every_pair():
    for i, j in combinations(range(len(LATTICE)), 2):
        assert {p[i] + p[j] for p in POINTS} == {"00", "01", "10", "11"}


@pytest.mark.parametrize("bits", POINTS, ids=_point_id)
@pytest.mark.parametrize(
    "workload, fault_plan",
    CASES,
    ids=[name + ("-faults" if plan else "") for name, plan in CASES],
)
def test_point(run_point, workload, fault_plan, bits):
    got = assert_agrees(run_point, workload, bits, fault_plan)
    if fault_plan is not None:
        assert got.metrics.tasks_retried > 0
        assert got.metrics.workers_lost > 0
