"""``use_counts``: the one binder-aware walk behind inlining and caching.

Its scoping must be exactly that of ``free_vars`` (pinned here on the
binder cases and on every expression node of the shipped programs), and
the compile must stay linear in the work it does per inlining round.
"""

from __future__ import annotations

import pytest

from repro.comprehension import exprs
from repro.comprehension.exprs import (
    AlgebraSpec,
    BinOp,
    Compare,
    Const,
    Expr,
    FoldCall,
    Lambda,
    MapCall,
    Ref,
    TupleExpr,
    use_counts,
    walk,
)
from repro.comprehension.ir import (
    Comprehension,
    FoldKind,
    Generator,
    Guard,
)
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SReturn,
    stmt_exprs,
)
from repro.optimizer.inlining import inline_single_use
from repro.optimizer.pipeline import EmmaConfig, PlanExpr, compile_program
from repro.workloads.connected_components import connected_components
from repro.workloads.kmeans import kmeans, kmeans_assign
from repro.workloads.pagerank import pagerank
from repro.workloads.spam import select_classifier
from repro.workloads.tpch import tpch_q1, tpch_q4, tpch_q4_udf

PROGRAMS = (
    tpch_q1,
    tpch_q4,
    tpch_q4_udf,
    pagerank,
    connected_components,
    kmeans,
    kmeans_assign,
    select_classifier,
)


def agrees(expr: Expr) -> dict[str, int]:
    counts = use_counts(expr)
    assert set(counts) == expr.free_vars()
    return counts


class TestBinders:
    def test_lambda_shadows_its_params(self):
        expr = BinOp(
            "+",
            Ref("a"),
            Lambda(("a",), BinOp("+", Ref("a"), Ref("b"))),
        )
        assert agrees(expr) == {"a": 1, "b": 1}

    def test_generator_binds_only_later_qualifiers(self):
        # ``x`` is free in the first generator's source and the guard
        # before its own generator; the head and later guard see it bound.
        expr = Comprehension(
            head=BinOp("+", Ref("x"), Ref("y")),
            qualifiers=(
                Generator("y", Ref("x")),
                Guard(Compare(">", Ref("y"), Ref("x"))),
                Generator("x", Ref("xs")),
                Guard(Compare("<", Ref("x"), Ref("k"))),
            ),
        )
        assert agrees(expr) == {"x": 2, "xs": 1, "k": 1}

    def test_fused_spec_binds_its_var_in_head_and_guards(self):
        spec = AlgebraSpec("sum").fused_with(
            "x",
            BinOp("*", Ref("x"), Ref("k")),
            (Compare(">", Ref("x"), Ref("k")),),
        )
        expr = FoldCall(Ref("xs"), spec)
        assert agrees(expr) == {"xs": 1, "k": 2}

    def test_walk_visits_the_fused_head_and_guards(self):
        spec = AlgebraSpec("sum").fused_with(
            "x",
            BinOp("*", Ref("x"), Ref("k")),
            (Compare(">", Ref("x"), Ref("j")),),
        )
        nodes = list(walk(FoldCall(Ref("xs"), spec)))
        assert Ref("k") in nodes and Ref("j") in nodes
        comp = Comprehension(
            head=Ref("y"),
            qualifiers=(Generator("y", Ref("ys")),),
            kind=FoldKind(spec),
        )
        nodes = list(walk(comp))
        assert Ref("k") in nodes and Ref("j") in nodes

    def test_plan_expr_is_opaque(self):
        expr = PlanExpr(kind="write", path=Ref("out"))
        assert agrees(expr) == {}


def _all_nodes(program) -> list[Expr]:
    compiled = compile_program(program, EmmaConfig())
    roots = [e for s in program.walk() for e in stmt_exprs(s)]
    roots += [view for view, _plan, _in_loop in compiled.sites]
    return [node for root in roots for node in walk(root)]


@pytest.mark.parametrize("algo", PROGRAMS, ids=lambda a: a.name)
def test_keys_are_free_vars_on_shipped_programs(algo):
    """Every node of the lifted program and of each site's rewritten
    view (comprehensions, fused folds) counts exactly its free names."""
    nodes = _all_nodes(algo.lifted.program)
    assert nodes
    mismatched = [
        n for n in nodes if set(use_counts(n)) != n.free_vars()
    ]
    assert mismatched == []


def _chain_program(n: int) -> DriverProgram:
    """``n`` bag definitions used twice each, and ``n`` single-use
    definitions chained into the return: ``n`` inlining rounds."""
    def mapped(source: Expr) -> Expr:
        return MapCall(
            source, Lambda(("x",), BinOp("+", Ref("x"), Const(1)))
        )

    body = [
        SAssign(name=f"m{k}", value=mapped(Ref("xs")), bag_typed=True)
        for k in range(n)
    ]
    prev = "xs"
    for k in range(n):
        body.append(
            SAssign(name=f"c{k}", value=mapped(Ref(prev)), bag_typed=True)
        )
        prev = f"c{k}"
    uses = [Ref(prev)]
    for k in range(n):
        uses += [
            FoldCall(Ref(f"m{k}"), AlgebraSpec("count")),
            FoldCall(Ref(f"m{k}"), AlgebraSpec("sum")),
        ]
    body.append(SReturn(value=TupleExpr(tuple(uses))))
    return DriverProgram(
        name="chain",
        params=("xs",),
        body=tuple(body),
        bag_params=frozenset({"xs"}),
    )


def test_inlining_work_grows_at_most_quadratically(monkeypatch):
    """Re-counting only the spliced statement keeps the ``children``
    calls of a whole inlining run quadratic in program size (the
    spliced expression itself grows); re-walking the program for every
    candidate made them cubic (7.6x per doubling)."""
    calls = 0
    children = Expr.children

    def counting(self):
        nonlocal calls
        calls += 1
        return children(self)

    monkeypatch.setattr(Expr, "children", counting)
    made = {}
    for n in (16, 32):
        calls = 0
        _program, inlined = inline_single_use(_chain_program(n))
        assert inlined == n
        made[n] = calls
    assert made[32] <= 4.5 * made[16]


def test_field_table_built_once_per_class(monkeypatch):
    """Once every class has been seen, compiling reads no
    ``dataclasses.fields`` from the IR module."""
    for algo in PROGRAMS:
        compile_program(algo.lifted.program, EmmaConfig())
    calls = 0
    fields = exprs.fields

    def counting(cls):
        nonlocal calls
        calls += 1
        return fields(cls)

    monkeypatch.setattr(exprs, "fields", counting)
    for algo in PROGRAMS:
        compile_program(algo.lifted.program, EmmaConfig())
    assert calls == 0
