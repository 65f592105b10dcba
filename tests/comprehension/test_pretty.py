"""Tests for the comprehension pretty-printer."""

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BagLiteral,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    DistinctCall,
    FetchCall,
    FilterCall,
    FlatMapCall,
    FoldCall,
    GroupByCall,
    IfElse,
    Index,
    Lambda,
    ListExpr,
    MapCall,
    MinusCall,
    PlusCall,
    ReadCall,
    Ref,
    TupleExpr,
    UnaryOp,
    WriteCall,
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
from repro.comprehension.pretty import pretty


class TestScalarRendering:
    def test_atoms(self):
        assert pretty(Const(5)) == "5"
        assert pretty(Ref("x")) == "x"

    def test_named_constants_use_their_name(self):
        def helper():
            pass

        assert pretty(Const(helper)) == "helper"

    def test_access(self):
        assert pretty(Attr(Ref("r"), "ip")) == "r.ip"
        assert pretty(Index(Ref("t"), Const(0))) == "t[0]"

    def test_operators(self):
        assert pretty(BinOp("+", Ref("a"), Const(1))) == "(a + 1)"
        assert pretty(UnaryOp("not", Ref("p"))) == "(not p)"
        assert pretty(UnaryOp("-", Ref("x"))) == "(-x)"
        assert pretty(Compare("==", Ref("a"), Ref("b"))) == "(a == b)"
        assert (
            pretty(BoolOp("and", (Ref("p"), Ref("q")))) == "(p and q)"
        )

    def test_composites(self):
        assert pretty(TupleExpr((Ref("a"), Ref("b")))) == "(a, b)"
        assert pretty(ListExpr((Const(1),))) == "[1]"
        assert (
            pretty(IfElse(Ref("c"), Const(1), Const(2)))
            == "(1 if c else 2)"
        )

    def test_call_with_kwargs(self):
        expr = Call(Ref("f"), (Ref("x"),), (("k", Const(1)),))
        assert pretty(expr) == "f(x, k=1)"

    def test_lambda(self):
        assert pretty(Lambda(("x",), Ref("x"))) == "(\\x -> x)"


class TestBagRendering:
    def test_operator_chain(self):
        expr = FilterCall(
            MapCall(Ref("xs"), Lambda(("x",), Ref("x"))),
            Lambda(("y",), Const(True)),
        )
        text = pretty(expr)
        assert ".map" in text and ".with_filter" in text

    def test_flat_map_group_by(self):
        assert ".flat_map" in pretty(
            FlatMapCall(Ref("xs"), Lambda(("x",), Ref("x")))
        )
        assert ".group_by" in pretty(
            GroupByCall(Ref("xs"), Lambda(("x",), Ref("x")))
        )

    def test_folds(self):
        assert pretty(FoldCall(Ref("xs"), AlgebraSpec("sum"))) == (
            "xs.sum()"
        )

    def test_set_operations(self):
        assert pretty(PlusCall(Ref("a"), Ref("b"))) == "(a plus b)"
        assert pretty(MinusCall(Ref("a"), Ref("b"))) == "(a minus b)"
        assert pretty(DistinctCall(Ref("a"))) == "a.distinct()"

    def test_io_and_conversion(self):
        assert pretty(ReadCall(Const("p"), Const(None))) == "read('p')"
        assert "write" in pretty(
            WriteCall(Const("p"), Const(None), Ref("xs"))
        )
        assert pretty(BagLiteral(Ref("seq"))) == "DataBag(seq)"
        assert pretty(FetchCall(Ref("xs"))) == "xs.fetch()"


class TestComprehensionRendering:
    def test_bag_comprehension(self):
        comp = Comprehension(
            head=Ref("x"),
            qualifiers=(
                Generator("x", Ref("xs")),
                Guard(Compare(">", Ref("x"), Const(0))),
            ),
            kind=BAG,
        )
        assert pretty(comp) == "[[ x | x <- xs, (x > 0) ]]^Bag"

    def test_fold_comprehension(self):
        comp = Comprehension(
            head=Ref("x"),
            qualifiers=(Generator("x", Ref("xs")),),
            kind=FoldKind(AlgebraSpec("sum")),
        )
        assert pretty(comp).endswith("]]^fold(sum)")

    def test_fold_comprehension_shows_its_algebra(self):
        # The key of a keyed fold and a fused head and guard are part
        # of what the fold computes.
        key = Lambda(("c",), Attr(Ref("c"), "d"))
        fused = AlgebraSpec(
            "min_by",
            (key,),
            head=Attr(Ref("y"), "pos"),
            guards=(Compare(">", Ref("y"), Const(0)),),
            var="y",
        )
        comp = Comprehension(
            head=Ref("x"),
            qualifiers=(Generator("x", Ref("xs")),),
            kind=FoldKind(fused),
        )
        assert pretty(comp).endswith(
            "]]^fold(min_by((\\c -> c.d))[\\y -> y.pos | (y > 0)])"
        )
        guarded = AlgebraSpec(
            "count", guards=(Compare(">", Ref("y"), Const(0)),), var="y"
        )
        assert pretty(FoldCall(Ref("xs"), guarded)) == (
            "xs.count()[\\y -> y | (y > 0)]"
        )

    def test_exists_arrows(self):
        comp = Comprehension(
            head=Ref("e"),
            qualifiers=(
                Generator("e", Ref("es")),
                Generator("b", Ref("bs"), GenMode.EXISTS),
                Generator("c", Ref("cs"), GenMode.NOT_EXISTS),
            ),
            kind=BAG,
        )
        text = pretty(comp)
        assert "b <~ bs" in text
        assert "c </~ cs" in text

    def test_flatten(self):
        comp = Comprehension(
            head=Ref("x"), qualifiers=(Generator("x", Ref("xs")),)
        )
        assert pretty(Flatten(comp)).startswith("flatten [[")
