"""Tests for partitioning-aware physical planning (PR 4).

Covers the interesting-properties pass end to end: shuffle-site
classification visible in ``explain()``, runtime elision and
loop-invariant hoisting with their metrics, the cost-driven join
strategy re-decided on every execution, join/group outputs carrying key
partitioners, and — the headline guarantee — that none of it can ever
change a result: planner on and planner off are bit-identical, with
and without aggressive fault injection.
"""

from dataclasses import dataclass

import pytest

from repro.api import DataBag, EmmaConfig, parallelize
from repro.comprehension.exprs import Attr, Ref
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.combinators import (
    CBagRef,
    CCross,
    CEqJoin,
    ScalarFn,
)
from repro.workloads.graphs import stage_follower_graph
from repro.workloads.pagerank import pagerank

PLAN_ON = EmmaConfig()
PLAN_OFF = EmmaConfig(physical_planning=False)


@dataclass(frozen=True)
class R:
    k: int
    payload: str


@dataclass(frozen=True)
class Keyed:
    k: int
    total: int


def _key() -> ScalarFn:
    return ScalarFn(("x",), Attr(Ref("x"), "k"))


def _pagerank(planning, num_vertices=120, iterations=4, faults=None):
    dfs = SimulatedDFS()
    engine = SparkLikeEngine(
        dfs=dfs,
        cluster=ClusterConfig(num_workers=4),
        fault_plan=faults,
    )
    engine.broadcast_join_threshold = 1024
    path = stage_follower_graph(dfs, num_vertices=num_vertices, seed=7)
    result = pagerank.run(
        engine,
        config=PLAN_ON if planning else PLAN_OFF,
        graph_path=path,
        num_pages=num_vertices,
        max_iterations=iterations,
    )
    ranks = sorted((v.id, v.rank) for v in result)
    return engine, ranks


class TestResultInvariance:
    """The planner may move data around, never change it."""

    def test_pagerank_identical_with_and_without_planner(self):
        _, off = _pagerank(False)
        _, on = _pagerank(True)
        assert on == off

    def test_identical_under_aggressive_faults(self):
        _, clean = _pagerank(True)
        _, chaos = _pagerank(True, faults=FaultPlan.aggressive(seed=17))
        _, chaos_off = _pagerank(
            False, faults=FaultPlan.aggressive(seed=17)
        )
        assert chaos == clean
        assert chaos_off == clean

    def test_flink_like_agrees(self):
        dfs = SimulatedDFS()
        path = stage_follower_graph(dfs, num_vertices=80, seed=7)
        results = []
        for config in (PLAN_ON, PLAN_OFF):
            engine = FlinkLikeEngine(dfs=dfs)
            result = pagerank.run(
                engine,
                config=config,
                graph_path=path,
                num_pages=80,
                max_iterations=3,
            )
            results.append(sorted((v.id, v.rank) for v in result))
        assert results[0] == results[1]


class TestShuffleReduction:
    def test_pagerank_moves_fewer_bytes_and_hoists(self):
        off_engine, _ = _pagerank(False, num_vertices=300, iterations=6)
        on_engine, _ = _pagerank(True, num_vertices=300, iterations=6)
        on, off = on_engine.metrics, off_engine.metrics
        assert on.shuffle_bytes < off.shuffle_bytes
        # The edge side of the join is loop-invariant: shuffled once,
        # served from the hoist cache on every later iteration.
        assert on.shuffles_hoisted == 5
        # The ranks side is co-partitioned with the join key, and the
        # final update routing is aligned — both elide.
        assert on.shuffles_elided > off.shuffles_elided
        assert on.simulated_seconds < off.simulated_seconds

    def test_hoist_cache_cleared_between_runs(self):
        engine, first = _pagerank(True)
        # Re-running on a fresh engine must not see stale entries; and
        # re-running on the *same* engine starts a fresh run too.
        assert engine.spill.store.entries(("hoist",))  # populated by the run
        _, again = _pagerank(True)
        assert first == again


class TestPlanKnobLeavesNoEngineState:
    """``physical_planning`` shapes the plan only: a run with it off
    leaves nothing on the engine for the next run to inherit."""

    def test_default_run_after_a_planner_off_run_matches_a_fresh_engine(
        self,
    ):
        dfs = SimulatedDFS()
        path = stage_follower_graph(dfs, num_vertices=200, seed=7)

        def run(engine, **config):
            engine.reset_metrics()
            result = pagerank.run(
                engine,
                graph_path=path,
                num_pages=200,
                max_iterations=4,
                **config,
            )
            ranks = sorted((v.id, v.rank) for v in result)
            return ranks, engine.metrics.invariant()

        def engine():
            return SparkLikeEngine(
                dfs=dfs, cluster=ClusterConfig(num_workers=4)
            )

        fresh = run(engine())
        reused = engine()
        run(reused, config=PLAN_OFF)
        again = run(reused)
        assert again == fresh
        assert fresh[1]["shuffles_hoisted"] > 0
        assert fresh[1]["shuffles_elided"] > 0


class TestExplainMarkers:
    def test_motion_classes_rendered(self):
        text = pagerank.explain()
        assert "[co-partitioned]" in text
        assert "[hoisted]" in text
        assert "[shuffle]" in text
        # Rendered alongside the exchange-plane flag, e.g.
        # ``<strategy=repartition, exchange=columnar>``.
        assert "strategy=repartition" in text

    def test_compile_trace_records_the_pass(self):
        text = pagerank.explain(trace=True)
        assert "physical planning" in text
        assert "interesting-properties" in text

    def test_disabled_config_skips_the_pass(self):
        report = pagerank.report(PLAN_OFF)
        assert report.physical_joins == 0
        assert not report.physical_planning_applied
        on = pagerank.report(PLAN_ON)
        assert on.physical_joins >= 1
        assert on.physical_planning_applied


@parallelize
def join_then_group(xs: DataBag, ys: DataBag):
    joined = ((x, y) for x in xs for y in ys if x.k == y.k)
    totals = (
        Keyed(g.key, g.values.map(lambda p: p[0].payload).count())
        for g in joined.group_by(lambda p: p[0].k)
    )
    return totals


class TestJoinGroupPipelining:
    """``join → group_by`` on the same key shuffles once, not twice."""

    def _run(self, config):
        engine = SparkLikeEngine(cluster=ClusterConfig(num_workers=4))
        engine.broadcast_join_threshold = 1  # force repartition join
        xs = DataBag([R(i % 7, "x" * 20) for i in range(140)])
        ys = DataBag([R(i % 7, "y" * 20) for i in range(35)])
        result = join_then_group.run(engine, config=config, xs=xs, ys=ys)
        return engine, sorted(result.fetch(), key=repr)

    def test_group_shuffle_elided(self):
        off_engine, off = self._run(PLAN_OFF)
        on_engine, on = self._run(PLAN_ON)
        assert on == off
        # The join output carries the join-key partitioner, so the
        # grouping on the same key reuses the layout.
        assert (
            on_engine.metrics.shuffles_elided
            > off_engine.metrics.shuffles_elided
        )
        assert (
            on_engine.metrics.shuffle_bytes
            < off_engine.metrics.shuffle_bytes
        )


@parallelize
def growing_join(xs: DataBag, rounds):
    acc = xs
    i = 0
    total = 0
    while i < rounds:
        joined = ((a, b) for a in acc for b in xs if a.k == b.k)
        total = total + joined.count()
        acc = acc.plus(acc)
        i = i + 1
    return total


class TestAdaptiveStrategy:
    def test_size_drift_triggers_adaptive_switch(self):
        engine = SparkLikeEngine(cluster=ClusterConfig(num_workers=2))
        engine.broadcast_join_threshold = 64 * 1024
        xs = DataBag([R(i % 5, "p" * 40) for i in range(60)])
        total = growing_join.run(engine, config=PLAN_ON, xs=xs, rounds=6)
        # Early iterations: both sides comparable, repartition wins.
        # As `acc` doubles every round, broadcasting the static side
        # becomes cheaper — the one join site's strategy flips.
        assert engine.metrics.repartition_joins >= 1
        assert engine.metrics.broadcast_joins >= 1
        assert (
            engine.metrics.repartition_joins + engine.metrics.broadcast_joins
            == 6
        )
        # Differential: the drifting strategy never changes the count.
        plain = SparkLikeEngine(cluster=ClusterConfig(num_workers=2))
        plain.broadcast_join_threshold = 64 * 1024
        expected = growing_join.run(
            plain, config=PLAN_OFF, xs=xs, rounds=6
        )
        assert total == expected


class TestJoinOutputPartitioners:
    """Satellite: hash-partitioned join outputs say so."""

    def _join_plan(self):
        return CEqJoin(
            kx=_key(),
            ky=_key(),
            left=CBagRef(name="left"),
            right=CBagRef(name="right"),
        )

    def test_repartition_join_output_carries_key_partitioner(self):
        engine = SparkLikeEngine(cluster=ClusterConfig(num_workers=4))
        engine.broadcast_join_threshold = 1
        env = {
            "left": DataBag([R(i % 5, "a") for i in range(50)]),
            "right": DataBag([R(i % 5, "b") for i in range(20)]),
        }
        executor, bag = self._execute(engine, env)
        assert bag.partitioner is not None
        # A flat record key is not the pair shape the output carries.
        pair_key = ScalarFn(("_p",), Attr(Ref("_p"), "k"))
        assert not bag.partitioner.matches(pair_key, bag.num_partitions)
        # Partitioner correctness is checked via a shuffle on the
        # declared key: already laid out, so it must elide.
        shuffled = executor.shuffle_by_key(bag, bag.partitioner.key)
        assert shuffled is bag

    def test_broadcast_join_output_keeps_big_side_layout(self):
        engine = SparkLikeEngine(cluster=ClusterConfig(num_workers=4))
        engine.broadcast_join_threshold = 1 << 20
        env = {
            "left": DataBag([R(i % 5, "a" * 30) for i in range(80)]),
            "right": DataBag([R(i, "b") for i in range(5)]),
        }
        executor, bag = self._execute(engine, env, shuffle_left=True)
        assert bag.partitioner is not None
        shuffled = executor.shuffle_by_key(bag, bag.partitioner.key)
        assert shuffled is bag

    def _execute(self, engine, env, shuffle_left=False):
        from repro.engines.executor import JobExecutor

        plan = self._join_plan()
        if shuffle_left:
            # Give the probe side a known hash layout first (its own
            # job, so the join executor's DAG memo stays cold) so the
            # broadcast join has a partitioning to preserve.
            setup_job = engine._new_job()
            setup = JobExecutor(engine, dict(env), setup_job)
            env["left"] = setup.shuffle_by_key(
                setup._exec(plan.left), plan.kx
            )
            engine._finish_job(setup_job)
        job = engine._new_job()
        executor = JobExecutor(engine, env, job)
        bag = executor._exec(plan)
        engine._finish_job(job)
        return executor, bag


class TestCrossCost:
    """Satellite: cross charges the scan plus every emitted pair."""

    def test_cross_element_ops_count_output(self):
        engine = SparkLikeEngine(cluster=ClusterConfig(num_workers=1))
        env = {
            "left": DataBag([R(i, "a") for i in range(4)]),
            "right": DataBag([R(i, "b") for i in range(3)]),
        }
        plan = CCross(left=CBagRef(name="left"), right=CBagRef(name="right"))
        job = engine._new_job()
        from repro.engines.executor import JobExecutor

        bag = JobExecutor(engine, env, job)._exec(plan)
        engine._finish_job(job)
        assert bag.count() == 12
        # One scan of the big side (4) plus one op per emitted pair
        # (12): the old ``max`` form under-charged dense crosses.
        assert engine.metrics.element_ops == 16


class TestPlanAnnotationUnits:
    def test_loop_invariance_requires_cached_leaves(self):
        from repro.optimizer.physical_props import (
            PlanContext,
            annotate_physical,
        )

        plan = CEqJoin(
            kx=_key(),
            ky=_key(),
            left=CBagRef(name="a"),
            right=CBagRef(name="b"),
        )
        ctx = PlanContext(
            in_loop=True,
            cached_names=frozenset({"b"}),
            loop_mutated=frozenset({"a"}),
        )
        annotated, stats = annotate_physical(plan, ctx)
        assert annotated.left.phys.motion == "required"
        assert annotated.right.phys.motion == "hoistable"
        assert annotated.right.phys.invariant_refs == ("b",)
        # Hoisting amortizes a shuffle but does not pin the strategy;
        # only an elidable side fixes repartition statically.
        assert annotated.phys.strategy == "cost"
        assert stats.annotated_joins == 1
        assert stats.hoistable_inputs == 1

    def test_outside_loop_nothing_hoists(self):
        from repro.optimizer.physical_props import (
            PlanContext,
            annotate_physical,
        )

        plan = CEqJoin(
            kx=_key(),
            ky=_key(),
            left=CBagRef(name="a"),
            right=CBagRef(name="b"),
        )
        ctx = PlanContext(
            in_loop=False, cached_names=frozenset({"a", "b"})
        )
        annotated, stats = annotate_physical(plan, ctx)
        assert annotated.phys.strategy == "cost"
        assert stats.hoistable_inputs == 0
        assert not stats.fired
