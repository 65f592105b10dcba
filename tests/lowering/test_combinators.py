"""Tests for combinator nodes and ScalarFn."""

from repro.comprehension.exprs import (
    Attr,
    BinOp,
    Const,
    Ref,
)
from repro.lowering.combinators import (
    AggResult,
    CBagRef,
    CChain,
    CCross,
    CFilter,
    CMap,
    CSource,
    ScalarFn,
    combinator_nodes,
    explain,
)


class TestScalarFn:
    def test_compile_closes_over_env(self):
        fn = ScalarFn(("x",), BinOp("+", Ref("x"), Ref("k")))
        compiled = fn.compile({"k": 10})
        assert compiled(5) == 15

    def test_free_names_exclude_params(self):
        fn = ScalarFn(("x",), BinOp("+", Ref("x"), Ref("k")))
        assert fn.free_names() == frozenset({"k"})

    def test_identity(self):
        fn = ScalarFn.identity()
        assert fn.is_identity()
        assert fn.compile({})(42) == 42

    def test_non_identity(self):
        assert not ScalarFn(("x",), Const(1)).is_identity()

    def test_canonical_alpha_equivalence(self):
        a = ScalarFn(("g",), Attr(Ref("g"), "key"))
        b = ScalarFn(("_g",), Attr(Ref("_g"), "key"))
        assert a != b
        assert a.canonical() == b.canonical()

    def test_canonical_distinguishes_different_bodies(self):
        a = ScalarFn(("g",), Attr(Ref("g"), "key"))
        b = ScalarFn(("g",), Attr(Ref("g"), "other"))
        assert a.canonical() != b.canonical()

    def test_describe(self):
        fn = ScalarFn(("x",), Ref("x"))
        assert "x" in fn.describe()


class TestCombinatorStructure:
    def test_inputs_and_traversal(self):
        plan = CMap(
            fn=ScalarFn.identity(),
            input=CFilter(
                predicate=ScalarFn.identity(),
                input=CBagRef(name="xs"),
            ),
        )
        kinds = [type(n).__name__ for n in combinator_nodes(plan)]
        assert kinds == ["CMap", "CFilter", "CBagRef"]

    def test_node_ids_unique(self):
        a, b = CBagRef(name="a"), CBagRef(name="b")
        assert a.node_id != b.node_id

    def test_with_cache_preserves_node_id(self):
        node = CBagRef(name="xs")
        cached = node.with_cache()
        assert cached.cache and not node.cache
        assert cached.node_id == node.node_id

    def test_with_partition_hint(self):
        node = CBagRef(name="xs").with_partition_hint(
            ScalarFn.identity()
        )
        assert node.partition_hint is not None

    def test_label_strips_exactly_one_prefix(self):
        # Class names that start "CC" must keep their second C.
        assert CChain().label() == "Chain"
        assert CCross().label() == "Cross"
        assert CSource().label() == "Source"

    def test_explain_renders_tree_with_flags(self):
        plan = CMap(
            fn=ScalarFn.identity(),
            input=CBagRef(name="xs").with_cache(),
        )
        text = explain(plan)
        assert "Map" in text
        assert "BagRef(xs)" in text
        assert "cached" in text


class TestAggResult:
    def test_positional_access(self):
        r = AggResult(key="k", aggs=(1, 2))
        assert r.key == "k"
        assert r.aggs[1] == 2

    def test_tuple_unpacking(self):
        key, a1, a2 = AggResult(key="k", aggs=(1, 2))
        assert (key, a1, a2) == ("k", 1, 2)
