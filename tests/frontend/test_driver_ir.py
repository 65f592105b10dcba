"""Tests for the driver IR's derived statement structure.

A statement's own expressions, nested blocks and loop flag are read
off its field declarations; every walker (the interpreter, inlining,
caching, the compiler) goes through them.
"""

import pytest

from repro.api import (
    DataBag,
    FlinkLikeEngine,
    LocalEngine,
    SparkLikeEngine,
    parallelize,
)
from repro.comprehension.exprs import (
    AlgebraSpec,
    BinOp,
    Const,
    FetchCall,
    FoldCall,
    Lambda,
    MapCall,
    Ref,
    StatefulCreate,
    use_counts,
)
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SCache,
    SExpr,
    SFor,
    SIf,
    SReturn,
    SWhile,
    assigned_names,
    loop_mutated_names,
    stmt_exprs,
)
from repro.lowering.combinators import ScalarFn
from repro.optimizer.inlining import inline_single_use

A, B, C = Ref("a"), Ref("b"), Ref("c")
INNER = SAssign(name="x", value=B, line=3)
OTHER = SExpr(value=C, line=4)

#: one instance of each statement class, with the expressions and
#: nested statements a hand-written walker reads from it
CASES = [
    (SAssign(name="x", value=A, bag_typed=True, line=1), (A,), ()),
    (SExpr(value=A, line=1), (A,), ()),
    (SWhile(cond=A, body=(INNER, OTHER), line=1), (A,), (INNER, OTHER)),
    (
        SIf(cond=A, then=(INNER,), orelse=(OTHER,), line=1),
        (A,),
        (INNER, OTHER),
    ),
    (SFor(var="v", iterable=A, body=(INNER,), line=1), (A,), (INNER,)),
    (SReturn(value=A, line=1), (A,), ()),
    (SReturn(value=None, line=1), (), ()),
    (SCache(name="x", line=1), (), ()),
    (
        SCache(name="x", partition_key=ScalarFn(("r",), Ref("r")), line=1),
        (),
        (),
    ),
]
IDS = [f"{type(s).__name__}-{i}" for i, (s, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("stmt, exprs, children", CASES, ids=IDS)
class TestDerivedStructure:
    def test_exprs_and_children(self, stmt, exprs, children):
        assert stmt_exprs(stmt) == exprs
        assert stmt.children() == children

    def test_identity_rebuild_returns_the_same_object(
        self, stmt, exprs, children
    ):
        assert stmt.rebuild() is stmt
        assert stmt.rebuild(exprs=lambda e: e, blocks=lambda b: b) is stmt

    def test_rebuild_maps_each_field_and_keeps_the_rest(
        self, stmt, exprs, children
    ):
        def bump(e):
            return BinOp("+", e, Const(1))

        def bump_all(block):
            return tuple(s.rebuild(exprs=bump) for s in block)

        out = stmt.rebuild(exprs=bump, blocks=bump_all)
        assert stmt_exprs(out) == tuple(map(bump, exprs))
        assert out.children() == bump_all(children)
        assert type(out) is type(stmt) and out.line == stmt.line
        assert (out is stmt) == (not exprs and not children)

    def test_loop_flag(self, stmt, exprs, children):
        assert stmt.loop == isinstance(stmt, (SWhile, SFor))


class TestAssignedNames:
    def test_assignments_and_for_variables_anywhere_in_the_tree(self):
        stmt = SWhile(
            cond=A,
            body=(
                SIf(
                    cond=B,
                    then=(SAssign(name="x", value=A),),
                    orelse=(SFor(var="v", iterable=A, body=(OTHER,)),),
                ),
                SCache(name="y"),
            ),
        )
        assert assigned_names(stmt) == {"x", "v"}

    def test_loop_mutated_names_are_those_assigned_inside_loops(self):
        program = DriverProgram(
            name="p",
            params=(),
            body=(
                SAssign(name="top", value=A),
                SIf(cond=A, then=(SAssign(name="branch", value=A),)),
                SFor(
                    var="v",
                    iterable=A,
                    body=(
                        SIf(cond=A, orelse=(SAssign(name="deep", value=A),)),
                    ),
                ),
                SWhile(
                    cond=A,
                    body=(SWhile(cond=A, body=(SAssign(name="w", value=A),)),),
                ),
            ),
        )
        assert loop_mutated_names(program) == {"v", "deep", "w"}


def _bag(name, value, line, stateful=False):
    return SAssign(
        name=name, value=value, bag_typed=True, stateful=stateful, line=line
    )


def _mapped(source):
    return MapCall(source, Lambda(("x",), BinOp("+", Ref("x"), Const(1))))


def _count(source):
    return FoldCall(source, AlgebraSpec("count"))


def _inline(*body):
    program = DriverProgram(
        name="p", params=("xs",), body=body, bag_params=frozenset({"xs"})
    )
    out, count = inline_single_use(program)
    assert count == 1
    return out.body


class TestInliningKeepsStatementFields:
    def test_into_an_if_condition(self):
        then = (SAssign(name="n", value=Const(1), line=8),)
        (stmt,) = _inline(
            _bag("ys", _mapped(Ref("xs")), 6),
            SIf(
                cond=BinOp(">", _count(Ref("ys")), Const(0)),
                then=then,
                line=7,
            ),
        )
        assert isinstance(stmt, SIf)
        assert stmt.line == 7 and stmt.then is then and stmt.orelse == ()
        assert use_counts(stmt.cond) == {"xs": 1}

    def test_into_a_then_block_before_an_else_block(self):
        orelse = (SAssign(name="n", value=Const(0), line=9),)
        (stmt,) = _inline(
            SIf(
                cond=Const(True),
                then=(
                    _bag("ys", _mapped(Ref("xs")), 7),
                    SAssign(name="n", value=_count(Ref("ys")), line=8),
                ),
                orelse=orelse,
                line=6,
            ),
        )
        assert stmt.line == 6 and stmt.orelse is orelse
        (inner,) = stmt.then
        assert (inner.name, inner.line) == ("n", 8)
        assert use_counts(inner.value) == {"xs": 1}

    def test_into_a_for_iterable(self):
        body = (SAssign(name="t", value=Ref("v"), line=9),)
        (stmt,) = _inline(
            _bag("ys", _mapped(Ref("xs")), 6),
            SFor(var="v", iterable=FetchCall(Ref("ys")), body=body, line=8),
        )
        assert isinstance(stmt, SFor)
        assert (stmt.var, stmt.line) == ("v", 8) and stmt.body is body
        assert use_counts(stmt.iterable) == {"xs": 1}

    def test_into_a_nested_while_body(self):
        (loop,) = _inline(
            SWhile(
                cond=Const(True),
                body=(
                    _bag("ys", _mapped(Ref("xs")), 3),
                    _bag("s", StatefulCreate(Ref("ys")), 4, stateful=True),
                ),
                line=2,
            ),
        )
        assert isinstance(loop, SWhile) and loop.line == 2
        (stmt,) = loop.body
        assert (stmt.name, stmt.line) == ("s", 4)
        assert stmt.bag_typed and stmt.stateful
        assert use_counts(stmt.value) == {"xs": 1}


@parallelize
def first_large_group(xs: DataBag, groups):
    seen = 0
    for g in groups:
        n = (x for x in xs if x % 5 == g).count()
        if n > 4:
            while seen < 100:
                return g * 1000 + seen
        else:
            seen = seen + n
    return -1


class TestDirectAndCompiledRunsAgree:
    @pytest.mark.parametrize(
        "groups, expected",
        [([0, 3, 2, 4], 2008), ([0, 3], -1), ([], -1)],
    )
    def test_for_if_else_and_a_return_inside_a_loop(self, groups, expected):
        xs = DataBag(list(range(20)) + [2, 2])
        results = [
            first_large_group.run(engine(), xs=xs, groups=groups)
            for engine in (LocalEngine, SparkLikeEngine, FlinkLikeEngine)
        ]
        assert results == [expected] * 3
