"""Pretty-printer for the IR — renders Grust-style comprehension views.

Used by tests, documentation examples, and the compiler's ``explain``
output.  The notation follows the paper: ``[[ head | q1, q2 ]]^Bag`` for
bag comprehensions and ``[[ head | qs ]]^fold(name)`` for folds (with the
algebra's arguments and fused pipeline, when it has any);
generators print as ``x <- xs`` (``x <~ xs`` for EXISTS mode, ``x </~ xs``
for NOT_EXISTS).
"""

from __future__ import annotations

from repro.comprehension.exprs import (
    AggByCall,
    AlgebraSpec,
    Attr,
    BagLiteral,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    DistinctCall,
    Expr,
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
    StatefulBagOf,
    StatefulCreate,
    StatefulUpdate,
    StatefulUpdateWithMessages,
    TupleExpr,
    UnaryOp,
    WriteCall,
)
from repro.comprehension.ir import (
    Comprehension,
    Flatten,
    FoldKind,
    GenMode,
    Generator,
    Guard,
)

_GEN_ARROWS = {
    GenMode.NORMAL: "<-",
    GenMode.EXISTS: "<~",
    GenMode.NOT_EXISTS: "</~",
}


def pretty(expr: Expr) -> str:
    """Render an IR expression as a single-line string."""
    if isinstance(expr, Comprehension):
        quals = ", ".join(_pretty_qualifier(q) for q in expr.qualifiers)
        kind = (
            f"fold({_pretty_spec(expr.kind.spec, bare=True)})"
            if isinstance(expr.kind, FoldKind)
            else "Bag"
        )
        return f"[[ {pretty(expr.head)} | {quals} ]]^{kind}"
    if isinstance(expr, Flatten):
        return f"flatten {pretty(expr.source)}"
    if isinstance(expr, Const):
        name = getattr(expr.value, "__name__", None)
        return name if name else repr(expr.value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Attr):
        return f"{pretty(expr.obj)}.{expr.name}"
    if isinstance(expr, Index):
        return f"{pretty(expr.obj)}[{pretty(expr.index)}]"
    if isinstance(expr, TupleExpr):
        inner = ", ".join(pretty(i) for i in expr.items)
        return f"({inner})"
    if isinstance(expr, ListExpr):
        inner = ", ".join(pretty(i) for i in expr.items)
        return f"[{inner}]"
    if isinstance(expr, BinOp):
        return f"({pretty(expr.left)} {expr.op} {pretty(expr.right)})"
    if isinstance(expr, UnaryOp):
        sep = " " if expr.op == "not" else ""
        return f"({expr.op}{sep}{pretty(expr.operand)})"
    if isinstance(expr, Compare):
        return f"({pretty(expr.left)} {expr.op} {pretty(expr.right)})"
    if isinstance(expr, BoolOp):
        inner = f" {expr.op} ".join(pretty(o) for o in expr.operands)
        return f"({inner})"
    if isinstance(expr, IfElse):
        return (
            f"({pretty(expr.then)} if {pretty(expr.cond)} "
            f"else {pretty(expr.orelse)})"
        )
    if isinstance(expr, Call):
        args = [pretty(a) for a in expr.args]
        args += [
            f"**{pretty(v)}" if k == "**" else f"{k}={pretty(v)}"
            for k, v in expr.kwargs
        ]
        return f"{pretty(expr.func)}({', '.join(args)})"
    if isinstance(expr, Lambda):
        params = ", ".join(expr.params)
        return f"(\\{params} -> {pretty(expr.body)})"
    if isinstance(expr, MapCall):
        return f"{pretty(expr.source)}.map{pretty(expr.fn)}"
    if isinstance(expr, FlatMapCall):
        return f"{pretty(expr.source)}.flat_map{pretty(expr.fn)}"
    if isinstance(expr, FilterCall):
        return f"{pretty(expr.source)}.with_filter{pretty(expr.fn)}"
    if isinstance(expr, GroupByCall):
        return f"{pretty(expr.source)}.group_by{pretty(expr.key)}"
    if isinstance(expr, FoldCall):
        return f"{pretty(expr.source)}.{_pretty_spec(expr.spec)}"
    if isinstance(expr, PlusCall):
        return f"({pretty(expr.left)} plus {pretty(expr.right)})"
    if isinstance(expr, MinusCall):
        return f"({pretty(expr.left)} minus {pretty(expr.right)})"
    if isinstance(expr, DistinctCall):
        return f"{pretty(expr.source)}.distinct()"
    if isinstance(expr, ReadCall):
        return f"read({pretty(expr.path)})"
    if isinstance(expr, WriteCall):
        return f"write({pretty(expr.path)}, {pretty(expr.source)})"
    if isinstance(expr, BagLiteral):
        return f"DataBag({pretty(expr.seq)})"
    if isinstance(expr, FetchCall):
        return f"{pretty(expr.source)}.fetch()"
    if isinstance(expr, AggByCall):
        specs = ", ".join(s.alias for s in expr.specs)
        return (
            f"{pretty(expr.source)}.agg_by{pretty(expr.key)}"
            f"[{specs}]"
        )
    if isinstance(expr, StatefulCreate):
        return f"stateful({pretty(expr.source)})"
    if isinstance(expr, StatefulBagOf):
        return f"{pretty(expr.state)}.bag()"
    if isinstance(expr, StatefulUpdate):
        return (
            f"{pretty(expr.state)}.update({pretty(expr.update_fn)})"
        )
    if isinstance(expr, StatefulUpdateWithMessages):
        return (
            f"{pretty(expr.state)}.update_with_messages("
            f"{pretty(expr.messages)}, {pretty(expr.update_fn)})"
        )
    # Compiled dataflow sites (PlanExpr) — matched structurally to
    # avoid importing the optimizer from the IR layer.
    plan = getattr(expr, "plan", None)
    kind = getattr(expr, "kind", None)
    if plan is not None and isinstance(kind, str):
        return f"<dataflow:{kind} {plan.describe()}>"
    return repr(expr)


def _pretty_qualifier(q: Generator | Guard) -> str:
    if isinstance(q, Generator):
        arrow = _GEN_ARROWS[q.mode]
        return f"{q.var} {arrow} {pretty(q.source)}"
    return pretty(q.predicate)


def _pretty_spec(spec: AlgebraSpec, bare: bool = False) -> str:
    """``alias(args)`` (just ``alias`` when ``bare`` and there are no
    args), then any fused pipeline as ``[\\x -> head | guards]``."""
    args = ", ".join(pretty(a) for a in spec.args)
    out = spec.alias if bare and not args else f"{spec.alias}({args})"
    if spec.head is None and not spec.guards:
        return out
    head = spec.var if spec.head is None else pretty(spec.head)
    fused = f"\\{spec.var} -> {head}"
    if spec.guards:
        fused += " | " + ", ".join(pretty(g) for g in spec.guards)
    return f"{out}[{fused}]"
