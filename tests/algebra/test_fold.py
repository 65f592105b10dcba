"""Tests for structural recursion on bags (paper Section 2.2.2)."""

import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.adt import Uni, ins_tree_of, union_tree_of
from repro.algebra.fold import (
    FOLD_ALIASES,
    FoldAlgebra,
    banana_split,
    fold_ins_tree,
    fold_union_tree,
    product_algebra,
)


def alias(name, *args):
    """The algebra of the ``FOLD_ALIASES`` row ``name`` over ``args``."""
    return FOLD_ALIASES[name][1](*args)


class TestFoldAlgebra:
    def test_sum_by_iteration(self):
        assert alias("sum")([3, 5, 7]) == 15

    def test_sum_empty(self):
        assert alias("sum")([]) == 0

    def test_mutable_zero_is_not_shared(self):
        collect = FoldAlgebra(
            zero=list,
            singleton=lambda x: [x],
            union=lambda a, b: a + b,
            name="collect",
        )
        first = collect([1])
        second = collect([2])
        assert first == [1] and second == [2]

    def test_merge_combines_partials(self):
        algebra = alias("sum")
        partials = [algebra([1, 2]), algebra([3]), algebra([])]
        assert algebra.merge(partials) == 6

    def test_key_projection(self):
        sum_of_values = alias("fold", 0, lambda p: p[1], operator.add)
        assert sum_of_values([("a", 1), ("b", 2)]) == 3


class TestFoldUnionTree:
    def test_substitution_semantics(self):
        # The paper's worked example: sum of {{3, 5, 7}} via (0, id, +).
        tree = union_tree_of([3, 5, 7])
        assert fold_union_tree(alias("sum"), tree) == 15

    def test_empty_tree_gives_zero(self):
        assert fold_union_tree(alias("sum"), union_tree_of([])) == 0

    def test_singleton(self):
        assert fold_union_tree(alias("count"), union_tree_of([9])) == 1

    def test_deep_spine_no_recursion_error(self):
        from repro.algebra.adt import EmpUnion, Sng

        tree = EmpUnion()
        for i in range(20_000):
            tree = Uni(tree, Sng(1))
        assert fold_union_tree(alias("count"), tree) == 20_000

    def test_distributed_evaluation_matches_local(self):
        # Fold pushed below the partition-level uni nodes (the paper's
        # "ship the partial sums zi instead of the partial bags" view).
        from repro.algebra.adt import union_tree_of_partitions

        partitions = [[3, 5], [7], [], [11, 13]]
        tree = union_tree_of_partitions(partitions)
        algebra = alias("sum")
        local = fold_union_tree(algebra, tree)
        shipped = algebra.merge(algebra(p) for p in partitions)
        assert local == shipped == 39


class TestFoldInsTree:
    def test_foldr_semantics(self):
        tree = ins_tree_of([1, 2, 3])
        assert fold_ins_tree(0, lambda x, acc: x + acc, tree) == 6

    def test_empty(self):
        assert fold_ins_tree(42, lambda x, acc: acc, ins_tree_of([])) == 42

    def test_order_sensitive_step_sees_insertion_order(self):
        # Insert representation folds need no commutativity — build a
        # list to observe the order.
        tree = ins_tree_of(["a", "b", "c"])
        out = fold_ins_tree(
            "", lambda x, acc: x + acc, tree
        )
        assert out == "abc"


class TestCatalogue:
    """The ``FOLD_ALIASES`` rows, one alias at a time."""

    def test_count(self):
        assert alias("count")([5, 5, 5]) == 3

    def test_min_max(self):
        assert alias("min")([4, 2, 9]) == 2
        assert alias("max")([4, 2, 9]) == 9

    def test_min_empty_is_none(self):
        assert alias("min")([]) is None
        assert alias("max")([]) is None

    def test_min_by_key(self):
        assert alias("min_by", lambda x: -x)([4, 2, 9]) == 9

    def test_exists(self):
        assert alias("exists", lambda x: x > 8)([4, 2, 9]) is True
        assert alias("exists", lambda x: x > 80)([4, 2, 9]) is False
        assert alias("exists", lambda x: True)([]) is False

    def test_forall(self):
        assert alias("forall", lambda x: x > 1)([4, 2, 9]) is True
        assert alias("forall", lambda x: x > 2)([4, 2, 9]) is False
        assert alias("forall", lambda x: False)([]) is True

    def test_bag_algebra_rebuilds(self):
        # the identity fold: a list factory as the zero, so partial
        # results never share it
        rebuild = alias("fold", list, lambda x: [x], operator.add)
        assert sorted(rebuild([3, 1, 2])) == [1, 2, 3]
        assert rebuild([]) == [] and rebuild([]) is not rebuild([])

    def test_min_max_are_min_by_max_by_on_the_identity(self):
        # nan compares false both ways: the union keeps the right
        # operand, exactly as min_by / max_by with ``key=id`` do
        xs = [2.0, math.nan, 1.0]
        ident = lambda x: x  # noqa: E731
        assert alias("max")(xs) == alias("max_by", ident)(xs) == 1.0
        assert alias("min")(xs) == alias("min_by", ident)(xs) == 1.0

class TestBananaSplit:
    def test_tuple_of_folds_equals_fold_of_tuples(self):
        xs = [3, 5, 7, 7]
        separate = (
            alias("sum")(xs),
            alias("count")(xs),
            alias("min")(xs),
        )
        fused = banana_split(
            [alias("sum"), alias("count"), alias("min")]
        )(xs)
        assert fused == separate == (22, 4, 3)

    def test_product_requires_an_algebra(self):
        with pytest.raises(ValueError):
            product_algebra([])

    def test_product_merge(self):
        algebra = product_algebra([alias("sum"), alias("count")])
        partials = [algebra([1, 2]), algebra([3])]
        assert algebra.merge(partials) == (6, 3)

    def test_product_name(self):
        algebra = product_algebra([alias("sum"), alias("count")])
        assert algebra.name == "sumxcount"


@given(st.lists(st.integers(), max_size=50))
def test_fold_union_tree_matches_direct_application(xs):
    tree = union_tree_of(xs)
    assert fold_union_tree(alias("sum"), tree) == sum(xs)
    assert fold_union_tree(alias("count"), tree) == len(xs)


@given(
    st.lists(st.integers(), max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_partitioned_fold_equals_global_fold(xs, num_partitions):
    algebra = alias("sum")
    partitions = [
        xs[i::num_partitions] for i in range(num_partitions)
    ]
    assert algebra.merge(algebra(p) for p in partitions) == algebra(xs)


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_banana_split_law(xs):
    fused = banana_split([alias("sum"), alias("max")])(xs)
    assert fused == (sum(xs), max(xs))
