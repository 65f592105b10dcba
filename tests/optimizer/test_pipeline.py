"""Tests for the end-to-end compile pipeline and its reporting."""

import pytest

from repro.api import (
    DataBag,
    EmmaConfig,
    FlinkLikeEngine,
    LocalEngine,
    SparkLikeEngine,
    parallelize,
)
from repro.optimizer.pipeline import PlanExpr, compile_program


@parallelize
def grouped_stats(xs: DataBag):
    groups = xs.group_by(lambda x: x % 3)
    return ((g.key, g.values.sum(), g.values.count()) for g in groups)


@parallelize
def filtered_by_lookup(xs: DataBag, lookup: DataBag):
    kept = (x for x in xs if lookup.exists(lambda y: y == x))
    return kept.count()


@parallelize
def loop_over_invariant(xs: DataBag, rounds):
    total = 0
    i = 0
    while i < rounds:
        total = total + xs.sum()
        i = i + 1
    return total


class TestReports:
    def test_fgf_reported(self):
        report = grouped_stats.report()
        assert report.fold_group_fusion_applied
        assert report.fused_groups == 1
        assert report.fused_folds == 2

    def test_fgf_disabled_by_config(self):
        report = grouped_stats.report(
            EmmaConfig(fold_group_fusion=False)
        )
        assert not report.fold_group_fusion_applied

    def test_unnesting_reported(self):
        report = filtered_by_lookup.report()
        assert report.unnesting_applied

    def test_unnesting_disabled_by_config(self):
        report = filtered_by_lookup.report(
            EmmaConfig(unnesting=False)
        )
        assert not report.unnesting_applied

    def test_caching_reported_for_loop_invariants(self):
        report = loop_over_invariant.report()
        assert report.caching_applied
        assert [d.name for d in report.cache_decisions] == ["xs"]

    def test_dataflow_sites_counted(self):
        assert grouped_stats.report().dataflow_sites >= 1

    def test_config_hashable_and_cached(self):
        a = grouped_stats.compiled(EmmaConfig())
        b = grouped_stats.compiled(EmmaConfig())
        assert a is b


class TestPlanExpr:
    def test_plan_expr_has_no_free_vars(self):
        compiled = grouped_stats.compiled()
        plans = [
            s
            for stmt in compiled.program.walk()
            for s in _walk_stmt_exprs(stmt)
            if isinstance(s, PlanExpr)
        ]
        assert plans
        assert all(p.free_vars() == frozenset() for p in plans)

    def test_unknown_kind_rejected(self):
        from repro.errors import EmmaError
        from repro.comprehension.exprs import Env
        from repro.lowering.combinators import CBagRef

        bad = PlanExpr(plan=CBagRef(name="x"), kind="nope")
        with pytest.raises(EmmaError, match="nope"):
            bad.evaluate(
                Env({"__engine__": SparkLikeEngine(), "__denv__": {}})
            )


class TestSemanticsUnderAllConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            EmmaConfig.none(),
            EmmaConfig(unnesting=True, fold_group_fusion=False,
                       caching=False, partition_pulling=False),
            EmmaConfig(unnesting=False, fold_group_fusion=True,
                       caching=False, partition_pulling=False),
            EmmaConfig(unnesting=True, fold_group_fusion=True,
                       caching=True, partition_pulling=False),
            EmmaConfig.all(),
        ],
        ids=["none", "U", "GF", "U+GF+C", "all"],
    )
    @pytest.mark.parametrize(
        "engine_factory",
        [SparkLikeEngine, FlinkLikeEngine],
        ids=["spark", "flink"],
    )
    def test_every_config_matches_local_oracle(
        self, config, engine_factory
    ):
        xs = DataBag(range(30))
        lookup = DataBag([3, 7, 20, 20])
        oracle = filtered_by_lookup.run(
            LocalEngine(), xs=xs, lookup=lookup
        )
        result = filtered_by_lookup.run(
            engine_factory(), config=config, xs=xs, lookup=lookup
        )
        assert result == oracle == 3

    @pytest.mark.parametrize(
        "config",
        [EmmaConfig.none(), EmmaConfig.all()],
        ids=["none", "all"],
    )
    def test_grouping_matches_oracle(self, config):
        xs = DataBag(range(20))
        oracle = grouped_stats.run(LocalEngine(), xs=xs)
        result = grouped_stats.run(
            SparkLikeEngine(), config=config, xs=xs
        )
        assert result == oracle


def _walk_stmt_exprs(stmt):
    from repro.comprehension.exprs import walk
    from repro.frontend.driver_ir import stmt_exprs

    for expr in stmt_exprs(stmt):
        yield from walk(expr)
