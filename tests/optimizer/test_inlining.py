"""Tests for single-use bag inlining (paper Section 4.1)."""

from repro.comprehension.exprs import (
    BinOp,
    Const,
    FoldCall,
    AlgebraSpec,
    Lambda,
    MapCall,
    Ref,
    use_counts,
)
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SExpr,
    SReturn,
    SWhile,
)
from repro.optimizer.inlining import inline_single_use


def bag_assign(name, value, line=0):
    return SAssign(name=name, value=value, bag_typed=True, line=line)


def scalar_assign(name, value, line=0):
    return SAssign(name=name, value=value, bag_typed=False, line=line)


def prog(*stmts, params=("xs",)):
    return DriverProgram(
        name="p", params=params, body=stmts, bag_params=frozenset(params)
    )


def mapped(source):
    return MapCall(source, Lambda(("x",), BinOp("+", Ref("x"), Const(1))))


class TestUseCounts:
    def test_counts_multiplicity(self):
        expr = BinOp("+", Ref("a"), Ref("a"))
        assert use_counts(expr)["a"] == 2

    def test_respects_binders(self):
        expr = MapCall(Ref("a"), Lambda(("a",), Ref("a")))
        assert use_counts(expr)["a"] == 1  # only the source


class TestInlining:
    def test_single_use_chain_collapses(self):
        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            bag_assign("zs", mapped(Ref("ys"))),
            SReturn(value=Ref("zs")),
        )
        out, count = inline_single_use(program)
        assert count == 2
        (ret,) = out.body
        assert isinstance(ret, SReturn)
        # zs and ys both folded into the return expression.
        assert use_counts(ret.value)["xs"] == 1

    def test_multi_use_not_inlined(self):
        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            scalar_assign(
                "n", FoldCall(Ref("ys"), AlgebraSpec("count"))
            ),
            scalar_assign(
                "m", FoldCall(Ref("ys"), AlgebraSpec("sum"))
            ),
        )
        out, count = inline_single_use(program)
        assert count == 0
        assert len(out.body) == 3

    def test_scalar_assignments_not_inlined(self):
        program = prog(
            scalar_assign("k", Const(5)),
            SReturn(value=Ref("k")),
        )
        _out, count = inline_single_use(program)
        assert count == 0

    def test_use_inside_loop_not_inlined(self):
        # Inlining a loop-external definition into a loop body would
        # change how often the dataflow is re-evaluated.
        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            SWhile(
                cond=Const(True),
                body=(
                    scalar_assign(
                        "n",
                        FoldCall(Ref("ys"), AlgebraSpec("count")),
                    ),
                ),
            ),
        )
        _out, count = inline_single_use(program)
        assert count == 0

    def test_inlining_within_the_same_loop_body(self):
        loop = SWhile(
            cond=Const(True),
            body=(
                bag_assign("ys", mapped(Ref("xs"))),
                scalar_assign(
                    "n", FoldCall(Ref("ys"), AlgebraSpec("count"))
                ),
            ),
        )
        program = prog(loop)
        out, count = inline_single_use(program)
        assert count == 1
        (new_loop,) = out.body
        assert len(new_loop.body) == 1

    def test_dependency_reassignment_blocks_inlining(self):
        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            bag_assign("xs", mapped(Ref("xs"))),  # xs rebound!
            SReturn(value=Ref("ys")),
        )
        out, count = inline_single_use(program)
        # ys depends on the *old* xs; moving it past the rebinding
        # would change its meaning.
        assert use_counts(out.body[-1].value)["ys"] == 1

    def test_stateful_assignments_never_inlined(self):
        stmt = SAssign(
            name="s",
            value=Ref("xs"),
            bag_typed=True,
            stateful=True,
        )
        program = prog(stmt, SReturn(value=Ref("s")))
        _out, count = inline_single_use(program)
        assert count == 0

    def test_zero_use_definition_kept(self):
        # Dead definitions are not inlining's business.
        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            SReturn(value=Ref("xs")),
        )
        out, count = inline_single_use(program)
        assert count == 0
        assert len(out.body) == 2

    def test_write_sink_use_is_inlinable(self):
        from repro.comprehension.exprs import WriteCall

        program = prog(
            bag_assign("ys", mapped(Ref("xs"))),
            SExpr(
                value=WriteCall(
                    path=Const("out"), fmt=Const(None), source=Ref("ys")
                )
            ),
        )
        out, count = inline_single_use(program)
        assert count == 1
        assert len(out.body) == 1
