"""Tests for the DataBag abstraction (paper Listing 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.fold import FOLD_ALIASES
from repro.comprehension.exprs import (
    AlgebraSpec,
    Env,
    FoldCall,
    Ref,
    fold_reducer,
)
from repro.core.databag import DataBag
from repro.core.grp import Grp
from tests.conftest import CountingKey, outcome

ints = st.lists(st.integers(min_value=-50, max_value=50), max_size=30)


class TestConstruction:
    def test_from_iterable(self):
        assert sorted(DataBag([3, 1, 2])) == [1, 2, 3]

    def test_empty(self):
        bag = DataBag.empty()
        assert len(bag) == 0
        assert bag.fetch() == []

    def test_of(self):
        assert sorted(DataBag.of(1, 2, 2)) == [1, 2, 2]

    def test_single(self):
        assert DataBag.single(7).fetch() == [7]

    def test_fetch_returns_a_copy(self):
        bag = DataBag([1, 2])
        fetched = bag.fetch()
        fetched.append(99)
        assert len(bag) == 2


class TestBagSemantics:
    def test_equality_ignores_order(self):
        assert DataBag([1, 2, 3]) == DataBag([3, 2, 1])

    def test_equality_respects_multiplicity(self):
        assert DataBag([1, 1, 2]) != DataBag([1, 2, 2])
        assert DataBag([1]) != DataBag([1, 1])

    def test_equality_against_non_bag(self):
        assert DataBag([1]) != [1]

    def test_hash_consistent_with_equality(self):
        assert hash(DataBag([1, 2])) == hash(DataBag([2, 1]))

    def test_contains(self):
        assert 2 in DataBag([1, 2])
        assert 5 not in DataBag([1, 2])

    def test_repr_previews(self):
        assert "DataBag" in repr(DataBag(range(20)))


class TestMonadOperators:
    def test_map(self):
        assert DataBag([1, 2]).map(lambda x: x * 10) == DataBag([10, 20])

    def test_map_empty(self):
        assert DataBag.empty().map(lambda x: x) == DataBag.empty()

    def test_flat_map_with_bags(self):
        result = DataBag([1, 2]).flat_map(
            lambda x: DataBag([x, -x])
        )
        assert result == DataBag([1, -1, 2, -2])

    def test_flat_map_with_plain_iterables(self):
        result = DataBag([2, 3]).flat_map(lambda x: range(x))
        assert result == DataBag([0, 1, 0, 1, 2])

    def test_with_filter(self):
        assert DataBag([1, 2, 3, 4]).with_filter(
            lambda x: x % 2 == 0
        ) == DataBag([2, 4])

    def test_filter_alias(self):
        bag = DataBag([1, 2])
        assert bag.filter(lambda x: x > 1) == bag.with_filter(
            lambda x: x > 1
        )


class TestGrouping:
    def test_group_by_partitions_elements(self):
        groups = DataBag([1, 2, 3, 4, 5]).group_by(lambda x: x % 2)
        by_key = {g.key: g.values for g in groups}
        assert by_key[0] == DataBag([2, 4])
        assert by_key[1] == DataBag([1, 3, 5])

    def test_group_values_are_databags(self):
        (group,) = DataBag([1, 1]).group_by(lambda x: x).fetch()
        assert isinstance(group, Grp)
        assert isinstance(group.values, DataBag)

    def test_one_group_per_distinct_key(self):
        groups = DataBag([1, 2, 3]).group_by(lambda x: 0)
        assert len(groups) == 1

    def test_group_by_empty(self):
        assert DataBag.empty().group_by(lambda x: x) == DataBag.empty()


class TestUnionDifferenceDistinct:
    def test_plus_adds_multiplicities(self):
        assert DataBag([1, 2]).plus(DataBag([2, 3])) == DataBag(
            [1, 2, 2, 3]
        )

    def test_minus_subtracts_multiplicities(self):
        assert DataBag([1, 1, 2, 3]).minus(DataBag([1, 3, 4])) == DataBag(
            [1, 2]
        )

    def test_minus_floors_at_zero(self):
        assert DataBag([1]).minus(DataBag([1, 1, 1])) == DataBag.empty()

    def test_distinct(self):
        assert DataBag([1, 1, 2, 2, 3]).distinct() == DataBag([1, 2, 3])

    def test_distinct_empty(self):
        assert DataBag.empty().distinct() == DataBag.empty()


class TestFolds:
    def test_generic_fold(self):
        assert DataBag([1, 2, 3]).fold(0, lambda x: x, lambda a, b: a + b) == 6

    def test_fold_with_zero_factory(self):
        result = DataBag([1, 2]).fold(
            list, lambda x: [x], lambda a, b: a + b
        )
        assert sorted(result) == [1, 2]

    def test_sum_product(self):
        assert DataBag([1, 2, 3]).sum() == 6
        assert DataBag([2, 3, 4]).product() == 24

    def test_sum_empty(self):
        assert DataBag.empty().sum() == 0

    def test_count_and_size(self):
        bag = DataBag([1, 1, 1])
        assert bag.count() == 3
        assert bag.size() == 3

    def test_is_empty_non_empty(self):
        assert DataBag.empty().is_empty()
        assert not DataBag([1]).is_empty()
        assert DataBag([1]).non_empty()

    def test_exists_forall(self):
        bag = DataBag([1, 2, 3])
        assert bag.exists(lambda x: x == 2)
        assert not bag.exists(lambda x: x == 9)
        assert bag.forall(lambda x: x > 0)
        assert not bag.forall(lambda x: x > 1)

    def test_min_max(self):
        bag = DataBag([5, 2, 8])
        assert bag.min() == 2
        assert bag.max() == 8
        assert DataBag.empty().min() is None

    def test_min_by_max_by(self):
        bag = DataBag([(1, "b"), (2, "a")])
        assert bag.min_by(lambda t: t[1]) == (2, "a")
        assert bag.max_by(lambda t: t[0]) == (2, "a")
        assert DataBag.empty().min_by(lambda t: t) is None

    def test_sample(self):
        assert len(DataBag([1, 2, 3]).sample(2)) == 2
        assert DataBag([1]).sample(5) == [1]
        with pytest.raises(ValueError):
            DataBag([1]).sample(-1)


#: exact element families: no rounding, so "equal" means equal
exact = st.one_of(
    st.lists(st.integers(-9, 9), max_size=8),
    st.lists(st.fractions(-3, 3, max_denominator=5), max_size=8),
    st.lists(st.text(alphabet="abz", max_size=3), max_size=8),
)


#: elements for the key contract: ``None`` elements, ``nan`` keys, tied
#: keys, a ``None`` key (``5``) and a raising key (``7``)
keyed = st.lists(
    st.one_of(
        st.integers(0, 9),
        st.none(),
        st.sampled_from([float("nan"), 0.5, -0.0]),
    ),
    max_size=8,
)


def alias_args(alias):
    """Host arguments for ``alias`` (``fold``: tuple concatenation, so
    the result spells out the order the elements were folded in)."""
    if alias == "fold":
        return (tuple, lambda x: (x,), lambda a, b: a + b)
    if alias in ("exists", "forall"):
        return (bool,)
    if alias in ("min_by", "max_by"):
        return (repr,)
    return ()


class TestNativeEqualsLifted:
    """A fold alias means one thing: the ``DataBag`` method, the lifted
    interpreter and the compiled reduction loop agree, exceptions
    included."""

    @pytest.mark.parametrize("alias", sorted(FOLD_ALIASES))
    @settings(max_examples=40, deadline=None)
    @given(exact)
    def test_method_interpreter_and_reducer_agree(self, alias, xs):
        args = alias_args(alias)
        names = tuple(f"arg{i}" for i in range(len(args)))
        spec = AlgebraSpec(alias, tuple(Ref(n) for n in names))
        env = Env.of({"xs": DataBag(xs), **dict(zip(names, args))})
        native = outcome(lambda: getattr(DataBag(xs), alias)(*args))
        lifted = outcome(lambda: FoldCall(Ref("xs"), spec).evaluate(env))
        compiled = outcome(lambda: fold_reducer(alias)(xs, *args))
        assert lifted == native
        assert compiled == native

    @pytest.mark.parametrize("alias", ["min_by", "max_by"])
    @settings(max_examples=60, deadline=None)
    @given(keyed)
    def test_a_key_runs_at_most_once_per_element(self, alias, xs):
        """Every loop carries the accumulator's key: the same key calls,
        in the same order, and none until a second element needs one."""
        spec = AlgebraSpec(alias, (Ref("k"),))
        runs = {
            "native": lambda k: getattr(DataBag(xs), alias)(k),
            "lifted": lambda k: FoldCall(Ref("xs"), spec).evaluate(
                Env.of({"xs": DataBag(xs), "k": k})
            ),
            "compiled": lambda k: fold_reducer(alias)(xs, k),
        }
        seen = {}
        for name, run in runs.items():
            key = CountingKey()
            seen[name] = (outcome(lambda: run(key)), repr(key.calls))
        assert seen["lifted"] == seen["native"]
        assert seen["compiled"] == seen["native"]
        result = seen["native"][0]
        calls = len(key.calls)
        present = sum(x is not None for x in xs)
        assert calls <= present
        if result[0] == "ok":
            assert calls == (present if present > 1 else 0)


class TestMonadLaws:
    @given(ints)
    def test_map_identity(self, xs):
        bag = DataBag(xs)
        assert bag.map(lambda x: x) == bag

    @given(ints)
    def test_map_composition(self, xs):
        f = lambda x: x + 1  # noqa: E731
        g = lambda x: x * 2  # noqa: E731
        bag = DataBag(xs)
        assert bag.map(f).map(g) == bag.map(lambda x: g(f(x)))

    @given(ints)
    def test_flat_map_left_identity(self, xs):
        f = lambda x: DataBag([x, x])  # noqa: E731
        for x in xs[:5]:
            assert DataBag.single(x).flat_map(f) == f(x)

    @given(ints)
    def test_flat_map_right_identity(self, xs):
        bag = DataBag(xs)
        assert bag.flat_map(DataBag.single) == bag

    @given(ints)
    def test_flat_map_associativity(self, xs):
        f = lambda x: DataBag([x, -x])  # noqa: E731
        g = lambda x: DataBag([x * 2])  # noqa: E731
        bag = DataBag(xs)
        assert bag.flat_map(f).flat_map(g) == bag.flat_map(
            lambda x: f(x).flat_map(g)
        )

    @given(ints)
    def test_filter_fusion(self, xs):
        p = lambda x: x % 2 == 0  # noqa: E731
        q = lambda x: x > 0  # noqa: E731
        bag = DataBag(xs)
        assert bag.with_filter(p).with_filter(q) == bag.with_filter(
            lambda x: p(x) and q(x)
        )


class TestAlgebraicLaws:
    @given(ints, ints)
    def test_plus_commutative(self, xs, ys):
        assert DataBag(xs).plus(DataBag(ys)) == DataBag(ys).plus(
            DataBag(xs)
        )

    @given(ints, ints, ints)
    def test_plus_associative(self, xs, ys, zs):
        a, b, c = DataBag(xs), DataBag(ys), DataBag(zs)
        assert a.plus(b).plus(c) == a.plus(b.plus(c))

    @given(ints)
    def test_plus_unit(self, xs):
        bag = DataBag(xs)
        assert bag.plus(DataBag.empty()) == bag
        assert DataBag.empty().plus(bag) == bag

    @given(ints)
    def test_group_by_partitions_completely(self, xs):
        groups = DataBag(xs).group_by(lambda x: x % 3)
        rebuilt = []
        for g in groups:
            rebuilt.extend(g.values.fetch())
        assert DataBag(rebuilt) == DataBag(xs)

    @given(ints)
    def test_fold_group_fusion_semantics(self, xs):
        # groupBy + per-group fold == dict-based aggregation.
        groups = DataBag(xs).group_by(lambda x: x % 3)
        via_groups = {g.key: g.values.sum() for g in groups}
        expected: dict = {}
        for x in xs:
            expected[x % 3] = expected.get(x % 3, 0) + x
        assert via_groups == expected

    @given(ints, ints)
    def test_minus_respects_multiset_difference(self, xs, ys):
        from collections import Counter

        result = DataBag(xs).minus(DataBag(ys))
        expected = Counter(xs) - Counter(ys)
        assert result == DataBag(expected.elements())
