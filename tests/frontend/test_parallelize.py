"""Tests for the @parallelize decorator and the Algorithm object."""

import math
from dataclasses import dataclass

import pytest

from repro.api import (
    DataBag,
    EmmaConfig,
    EmmaError,
    FlinkLikeEngine,
    LocalEngine,
    SparkLikeEngine,
    parallelize,
)


@dataclass(frozen=True)
class Pair:
    k: int
    v: int


@parallelize
def doubler(xs: DataBag):
    return xs.map(lambda x: x * 2)


@parallelize
def sum_positive(xs: DataBag):
    positives = (x for x in xs if x > 0)
    return positives.sum()


@parallelize
def loopy(xs: DataBag, rounds):
    total = 0
    i = 0
    while i < rounds:
        total = total + xs.sum()
        i = i + 1
    return total


@parallelize(bags=("xs",))
def with_bags_argument(xs):
    return xs.count()


@parallelize
def join_pairs(xs: DataBag, ys: DataBag):
    return ((x.v, y.v) for x in xs for y in ys if x.k == y.k)


@parallelize
def branching(xs: DataBag, flag):
    if flag:
        result = xs.map(lambda x: x + 1)
    else:
        result = xs.map(lambda x: x - 1)
    return result


@parallelize
def bag_extremes(xs: DataBag):
    return (xs.min(), xs.max())


@parallelize
def returns_nothing(xs: DataBag):
    y = xs.count()
    return None


class TestAlgorithmApi:
    def test_name_and_params(self):
        assert doubler.name == "doubler"
        assert doubler.params == ("xs",)

    def test_repr(self):
        assert "doubler" in repr(doubler)

    def test_missing_parameter_rejected(self):
        with pytest.raises(EmmaError, match="missing"):
            doubler.run(LocalEngine())

    def test_unexpected_parameter_rejected(self):
        with pytest.raises(EmmaError, match="unexpected"):
            doubler.run(LocalEngine(), xs=DataBag([1]), oops=1)

    def test_compiled_is_cached_per_config(self):
        c1 = doubler.compiled()
        c2 = doubler.compiled()
        assert c1 is c2
        c3 = doubler.compiled(EmmaConfig.none())
        assert c3 is not c1

    def test_explain_mentions_plans(self):
        text = doubler.explain()
        assert "site" in text

    def test_report_exposes_table1_row(self):
        row = sum_positive.report().table1_row()
        assert set(row) == {
            "unnesting",
            "fold_group_fusion",
            "caching",
            "partition_pulling",
        }

    def test_default_engine_is_local(self):
        result = doubler.run(xs=DataBag([1, 2]))
        assert result == DataBag([2, 4])


class TestExecutionAcrossBackends:
    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_map(self, engine_factory):
        result = doubler.run(engine_factory(), xs=DataBag([1, 2, 3]))
        assert result == DataBag([2, 4, 6])

    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_scalar_fold(self, engine_factory):
        result = sum_positive.run(
            engine_factory(), xs=DataBag([-1, 2, 3])
        )
        assert result == 5

    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_loop(self, engine_factory):
        result = loopy.run(
            engine_factory(), xs=DataBag([1, 2]), rounds=3
        )
        assert result == 9

    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_join(self, engine_factory):
        xs = DataBag([Pair(1, 10), Pair(2, 20)])
        ys = DataBag([Pair(1, 100), Pair(1, 101), Pair(3, 300)])
        result = join_pairs.run(engine_factory(), xs=xs, ys=ys)
        assert result == DataBag([(10, 100), (10, 101)])

    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_branches(self, engine_factory):
        xs = DataBag([10])
        assert branching.run(
            engine_factory(), xs=xs, flag=True
        ) == DataBag([11])
        assert branching.run(
            engine_factory(), xs=xs, flag=False
        ) == DataBag([9])

    @pytest.mark.parametrize(
        "engine_factory",
        [LocalEngine, SparkLikeEngine, FlinkLikeEngine],
        ids=["local", "spark", "flink"],
    )
    def test_min_max_mean_what_the_databag_methods_mean(self, engine_factory):
        # nan compares false both ways, so min / max keep whichever side
        # their union keeps: lifted, they must keep what DataBag keeps
        xs = DataBag([2.0, math.nan, 1.0])
        native = (xs.min(), xs.max())
        assert native == (1.0, 1.0)
        assert bag_extremes.run(engine_factory(), xs=xs) == native

    def test_bags_argument_variant(self):
        assert (
            with_bags_argument.run(
                SparkLikeEngine(), xs=DataBag([1, 2, 3])
            )
            == 3
        )

    def test_none_return(self):
        assert (
            returns_nothing.run(SparkLikeEngine(), xs=DataBag([1]))
            is None
        )


class TestConfigEffects:
    def test_baseline_config_produces_same_results(self):
        xs = DataBag([Pair(1, 10), Pair(2, 20)])
        ys = DataBag([Pair(1, 100)])
        optimized = join_pairs.run(SparkLikeEngine(), xs=xs, ys=ys)
        baseline = join_pairs.run(
            SparkLikeEngine(), config=EmmaConfig.none(), xs=xs, ys=ys
        )
        assert optimized == baseline

    def test_config_labels(self):
        assert EmmaConfig.none().label() == "baseline"
        assert "fold-group-fusion" in EmmaConfig.all().label()
