"""Tests for comprehension nodes (paper Section 2.2.3)."""

from dataclasses import dataclass

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Compare,
    Const,
    Lambda,
    Ref,
    TupleExpr,
    evaluate,
)
from repro.comprehension.ir import (
    BAG,
    Comprehension,
    Flatten,
    FoldKind,
    GenMode,
    Generator,
    Guard,
)
from repro.core.databag import DataBag
from repro.errors import ComprehensionError


@dataclass(frozen=True)
class E:
    ip: int


def bag_comp(head, *quals):
    return Comprehension(head=head, qualifiers=quals, kind=BAG)


class TestEvaluation:
    def test_single_generator(self):
        comp = bag_comp(
            BinOp("*", Ref("x"), Const(2)), Generator("x", Ref("xs"))
        )
        assert evaluate(comp, {"xs": DataBag([1, 2])}) == DataBag([2, 4])

    def test_guard_filters(self):
        comp = bag_comp(
            Ref("x"),
            Generator("x", Ref("xs")),
            Guard(Compare(">", Ref("x"), Const(1))),
        )
        assert evaluate(comp, {"xs": DataBag([1, 2, 3])}) == DataBag([2, 3])

    def test_join_semantics(self):
        # [[ (x, y) | x <- xs, y <- ys, x == y ]]
        comp = bag_comp(
            TupleExpr((Ref("x"), Ref("y"))),
            Generator("x", Ref("xs")),
            Generator("y", Ref("ys")),
            Guard(Compare("==", Ref("x"), Ref("y"))),
        )
        env = {"xs": DataBag([1, 2, 2]), "ys": DataBag([2, 3])}
        assert evaluate(comp, env) == DataBag([(2, 2), (2, 2)])

    def test_generator_over_host_sequence(self):
        comp = bag_comp(Ref("x"), Generator("x", Const([1, 2])))
        assert evaluate(comp) == DataBag([1, 2])

    def test_generator_over_scalar_raises(self):
        comp = bag_comp(Ref("x"), Generator("x", Const(5)))
        with pytest.raises(ComprehensionError, match="non-bag"):
            evaluate(comp)

    def test_fold_kind_produces_scalar(self):
        comp = Comprehension(
            head=Ref("x"),
            qualifiers=(Generator("x", Ref("xs")),),
            kind=FoldKind(AlgebraSpec("sum")),
        )
        assert evaluate(comp, {"xs": DataBag([1, 2, 3])}) == 6

    def test_nested_comprehension_in_head(self):
        inner = Comprehension(
            head=Ref("y"),
            qualifiers=(
                Generator("y", Ref("ys")),
                Guard(Compare("==", Ref("y"), Ref("x"))),
            ),
            kind=FoldKind(AlgebraSpec("count")),
        )
        outer = bag_comp(
            TupleExpr((Ref("x"), inner)), Generator("x", Ref("xs"))
        )
        env = {"xs": DataBag([1, 2]), "ys": DataBag([1, 1, 3])}
        assert evaluate(outer, env) == DataBag([(1, 2), (2, 0)])


class TestExistsModes:
    def _comp(self, mode):
        return bag_comp(
            Ref("e"),
            Generator("e", Ref("emails")),
            Generator("b", Ref("bl"), mode),
            Guard(
                Compare(
                    "==", Attr(Ref("b"), "ip"), Attr(Ref("e"), "ip")
                )
            ),
        )

    def test_exists_semantics_preserve_multiplicity(self):
        env = {
            "emails": DataBag([E(1), E(2), E(2), E(3)]),
            "bl": DataBag([E(2), E(2), E(9)]),
        }
        result = evaluate(self._comp(GenMode.EXISTS), env)
        # Each matching email appears once per its own multiplicity,
        # regardless of how many blacklist rows match.
        assert result == DataBag([E(2), E(2)])

    def test_not_exists_semantics(self):
        env = {
            "emails": DataBag([E(1), E(2), E(3)]),
            "bl": DataBag([E(2)]),
        }
        result = evaluate(self._comp(GenMode.NOT_EXISTS), env)
        assert result == DataBag([E(1), E(3)])

    def test_exists_var_may_not_escape_to_head(self):
        comp = bag_comp(
            Ref("b"),
            Generator("e", Ref("emails")),
            Generator("b", Ref("bl"), GenMode.EXISTS),
            Guard(Compare("==", Ref("b"), Ref("e"))),
        )
        env = {"emails": DataBag([1]), "bl": DataBag([1])}
        with pytest.raises(ComprehensionError, match="head"):
            evaluate(comp, env)

    def test_exists_var_may_not_escape_to_later_generator(self):
        comp = bag_comp(
            Ref("e"),
            Generator("e", Ref("emails")),
            Generator("b", Ref("bl"), GenMode.EXISTS),
            Guard(Compare("==", Ref("b"), Ref("e"))),
            Generator("z", Ref("b")),
        )
        env = {"emails": DataBag([1]), "bl": DataBag([1])}
        with pytest.raises(ComprehensionError, match="escapes"):
            evaluate(comp, env)


class TestStructure:
    def test_generators_and_guards(self):
        comp = bag_comp(
            Ref("x"),
            Generator("x", Ref("xs")),
            Guard(Const(True)),
        )
        assert len(comp.generators()) == 1
        assert len(comp.guards()) == 1

    def test_free_vars_sequential_scoping(self):
        comp = bag_comp(
            BinOp("+", Ref("x"), Ref("k")),
            Generator("x", Ref("xs")),
            Generator("y", Attr(Ref("x"), "items")),
        )
        assert comp.free_vars() == frozenset({"xs", "k"})

    def test_substitute_free_name(self):
        comp = bag_comp(Ref("x"), Generator("x", Ref("xs")))
        out = comp.substitute({"xs": Ref("other")})
        assert out.generators()[0].source == Ref("other")

    def test_substitute_shadowed_name_untouched(self):
        comp = bag_comp(Ref("x"), Generator("x", Ref("xs")))
        out = comp.substitute({"x": Const(1)})
        assert out.head == Ref("x")

    def test_substitute_alpha_renames_on_capture(self):
        # [[ x + y | x <- xs ]][y := x]  — the binder must rename.
        comp = bag_comp(
            BinOp("+", Ref("x"), Ref("y")), Generator("x", Ref("xs"))
        )
        out = comp.substitute({"y": Ref("x")})
        (gen,) = out.generators()
        assert gen.var != "x"
        result = evaluate(out, {"xs": DataBag([1, 2]), "x": 100})
        assert result == DataBag([101, 102])

    def test_substitute_returns_the_node_when_no_key_is_free(self):
        # [[ x | x <- xs ]][y := x]: y is not free, so nothing is renamed
        comp = bag_comp(Ref("x"), Generator("x", Ref("xs")))
        assert comp.substitute({"y": Ref("x")}) is comp
        assert comp.substitute({"x": Const(1)}) is comp

    def test_a_splice_computes_each_value_s_free_vars_once(
        self, monkeypatch
    ):
        # [[ [[ v + y | y <- v ]] | x <- v ]][v := value]: two levels
        value = bag_comp(Ref("z"), Generator("z", Ref("zs")))
        inner = bag_comp(
            BinOp("+", Ref("v"), Ref("y")), Generator("y", Ref("v"))
        )
        comp = bag_comp(inner, Generator("x", Ref("v")))
        seen = []
        free_vars = Comprehension.free_vars

        def counting(self):
            if self is value:
                seen.append(self)
            return free_vars(self)

        monkeypatch.setattr(Comprehension, "free_vars", counting)
        out = comp.substitute({"v": value})
        assert len(seen) == 1
        assert out.generators()[0].source is value
        assert out.head.generators()[0].source is value

    def test_fold_kind_repr(self):
        kind = FoldKind(AlgebraSpec("sum"))
        assert "sum" in repr(kind)
        assert repr(BAG) == "Bag"

    def test_generator_evaluate_directly_is_an_error(self):
        with pytest.raises(ComprehensionError):
            evaluate(Generator("x", Ref("xs")), {"xs": DataBag([])})


class TestFlatten:
    def test_flatten_bags(self):
        comp = bag_comp(Ref("inner"), Generator("inner", Ref("nested")))
        env = {"nested": DataBag([DataBag([1, 2]), DataBag([3])])}
        assert evaluate(Flatten(comp), env) == DataBag([1, 2, 3])

    def test_flatten_host_collections(self):
        comp = bag_comp(Ref("t"), Generator("t", Ref("nested")))
        env = {"nested": DataBag([(1, 2), (3,)])}
        assert evaluate(Flatten(comp), env) == DataBag([1, 2, 3])

    def test_flatten_scalars_rejected(self):
        comp = bag_comp(Ref("t"), Generator("t", Ref("nested")))
        with pytest.raises(ComprehensionError):
            evaluate(Flatten(comp), {"nested": DataBag([1])})
