"""Field-level read/write-set inference over lifted UDF bodies.

The deep embedding lifts whole Python UDFs into the scalar IR, but the
comprehension calculus only reasons about their *syntactic free
variables*: a residual guard such as ``p[1].commit_date <
p[1].receipt_date`` over a join pair mentions both pair components
(``p`` expands to ``(o, li)`` during unnesting) and therefore blocks
every pushdown the calculus could otherwise prove.  Following Hueske et
al., "Enabling Operator Reordering in Data Flow Programs Through Static
Code Analysis", this module recovers the *semantic* access pattern:

* :func:`analyze_read_set` infers, per UDF parameter, the set of
  :class:`FieldPath`\\ s the body may read — field-level for tuple and
  dataclass access through ``Attr``/``Index(Const)`` chains, widening
  to the whole subtree on a dynamic index, and collapsing to the
  conservative TOP element on anything that defeats path tracking
  (``getattr``, ``**`` argument expansion).
* :func:`analyze_emit_set` infers a map UDF's write/emit set: how each
  component of its output record is produced — a pure *copy* of an
  input field path, or a *computed* value.

UDF bodies are pure expressions (the frontend lifts no statements), so
there is no mutation to track: the "write set" of a map is exactly its
emit structure, and two operators conflict only when one reads a field
the other computes.  :mod:`repro.optimizer.reorder` consumes both
analyses to push filters below joins and groupings and to swap filters
past maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.comprehension.exprs import (
    Attr,
    Call,
    Const,
    Expr,
    Index,
    Lambda,
    Ref,
    TupleExpr,
    transform,
)
from repro.lowering.combinators import ScalarFn

#: the ``Call.kwargs`` key the frontend uses for ``**`` expansion
DOUBLE_STAR = "**"


# ---------------------------------------------------------------------------
# Field paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldPath:
    """An access path rooted at a UDF parameter.

    ``steps`` is a sequence of ``("attr", name)`` / ``("index", i)``
    pairs; the empty path denotes the whole record.  A recorded path
    means "this subtree (and anything below it) may be read" — so a
    shorter path subsumes every extension of it.
    """

    steps: tuple[tuple[str, Any], ...] = ()

    def extend(self, step: tuple[str, Any]) -> "FieldPath":
        """The path one access deeper."""
        return FieldPath(self.steps + (step,))

    def starts_with(self, prefix: "FieldPath") -> bool:
        """Whether ``prefix`` is a (non-strict) prefix of this path."""
        n = len(prefix.steps)
        return self.steps[:n] == prefix.steps

    def drop(self, n: int) -> "FieldPath":
        """The path with its first ``n`` steps removed."""
        return FieldPath(self.steps[n:])

    def render(self) -> str:
        """Human-readable form, e.g. ``[1].commit_date`` or ``<all>``."""
        if not self.steps:
            return "<all>"
        out = []
        for kind, value in self.steps:
            out.append(f".{value}" if kind == "attr" else f"[{value}]")
        return "".join(out)


def render_paths(paths: frozenset[FieldPath] | set[FieldPath]) -> str:
    """``{a, b, ...}`` rendering of a path set, deterministic order."""
    names = sorted(p.render().lstrip(".") for p in paths)
    return "{" + ", ".join(names) + "}"


# ---------------------------------------------------------------------------
# Read sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadSet:
    """What one UDF may read, per parameter.

    ``paths`` maps each parameter to the field paths the body may read
    from it.  ``top`` marks the conservative TOP element: the body
    contains an access the analysis cannot bound (``getattr``, ``**``
    expansion), so *any* field of *any* parameter must be assumed read.
    ``free`` lists the non-parameter names the body reads — broadcast
    and closure captures, which reordering checks against loop-mutated
    driver state.
    """

    params: tuple[str, ...]
    paths: Mapping[str, frozenset[FieldPath]]
    top: bool = False
    top_reason: str = ""
    free: frozenset[str] = frozenset()

    def reads(self, param: str) -> frozenset[FieldPath]:
        """The field paths read from ``param`` (meaningless under TOP)."""
        return self.paths.get(param, frozenset())

    def pair_side(self, param: str) -> int | None:
        """0/1 when every read of ``param`` is confined to that pair
        component (``param[0]...`` / ``param[1]...``); else ``None``."""
        if self.top:
            return None
        sides = set()
        for path in self.reads(param):
            if not path.steps or path.steps[0][0] != "index":
                return None
            sides.add(path.steps[0][1])
        if len(sides) == 1 and sides <= {0, 1}:
            return sides.pop()
        return None

    def only_attr(self, param: str, name: str) -> bool:
        """Whether every read of ``param`` goes through ``.name``."""
        if self.top:
            return False
        reads = self.reads(param)
        return bool(reads) and all(
            p.steps and p.steps[0] == ("attr", name) for p in reads
        )

    def describe(self, param: str | None = None) -> str:
        """``reads {...}`` text for traces and plan annotations."""
        if self.top:
            return f"reads TOP ({self.top_reason})"
        if param is not None:
            return f"reads {render_paths(self.reads(param))}"
        parts = [
            f"{p}: {render_paths(self.reads(p))}" for p in self.params
        ]
        return "reads {" + "; ".join(parts) + "}"


class _Collector:
    """Mutable state of one read-set traversal."""

    def __init__(self, params: tuple[str, ...]) -> None:
        self.params = frozenset(params)
        self.paths: dict[str, set[FieldPath]] = {p: set() for p in params}
        self.free: set[str] = set()
        self.top = False
        self.top_reason = ""

    def mark_top(self, reason: str) -> None:
        if not self.top:
            self.top = True
            self.top_reason = reason

    def record(self, name: str, path: FieldPath, bound: frozenset[str]) -> None:
        if name in bound:
            return
        if name in self.params:
            self.paths[name].add(path)
        else:
            self.free.add(name)


def analyze_read_set(fn: ScalarFn) -> ReadSet:
    """Infer the per-parameter read set of a lifted UDF body."""
    body = simplify_projections(fn.body)
    col = _Collector(fn.params)
    _visit(body, frozenset(), col)
    return ReadSet(
        params=fn.params,
        paths={p: frozenset(s) for p, s in col.paths.items()},
        top=col.top,
        top_reason=col.top_reason,
        free=frozenset(col.free),
    )


def _visit(expr: Expr, bound: frozenset[str], col: _Collector) -> None:
    if isinstance(expr, Ref):
        col.record(expr.name, FieldPath(), bound)
        return
    if isinstance(expr, (Attr, Index)):
        base, steps = _peel_access(expr)
        if base is expr:
            # A dynamic subscript heads the chain: the whole object
            # subtree is read (sound, still side-confined), and the
            # index expression is read normally.
            assert isinstance(expr, Index)
            _visit(expr.obj, bound, col)
            _visit(expr.index, bound, col)
            return
        if isinstance(base, Ref):
            col.record(base.name, FieldPath(steps), bound)
            return
        # Accesses on a non-reference base (call result, conditional):
        # the reads happen inside the base.
        _visit(base, bound, col)
        return
    if isinstance(expr, Lambda):
        _visit(expr.body, bound | frozenset(expr.params), col)
        return
    if isinstance(expr, Call):
        if _is_getattr(expr) and _touches_params(expr, bound, col):
            col.mark_top("dynamic getattr access")
        for key, value in expr.kwargs:
            if key == DOUBLE_STAR and _touches_params(value, bound, col):
                col.mark_top("** argument expansion")
        _visit(expr.func, bound, col)
        for arg in expr.args:
            _visit(arg, bound, col)
        for _key, value in expr.kwargs:
            _visit(value, bound, col)
        return
    for child in expr.children():
        _visit(child, bound, col)


def _peel_access(expr: Expr) -> tuple[Expr, tuple[tuple[str, Any], ...]]:
    """Peel an ``Attr``/constant-``Index`` chain down to its base."""
    steps: list[tuple[str, Any]] = []
    while True:
        if isinstance(expr, Attr):
            steps.append(("attr", expr.name))
            expr = expr.obj
        elif (
            isinstance(expr, Index)
            and isinstance(expr.index, Const)
            and isinstance(expr.index.value, int)
            and not isinstance(expr.index.value, bool)
        ):
            steps.append(("index", expr.index.value))
            expr = expr.obj
        else:
            return expr, tuple(reversed(steps))


def _is_getattr(call: Call) -> bool:
    f = call.func
    if isinstance(f, Ref) and f.name == "getattr":
        return True
    return isinstance(f, Const) and f.value is getattr


def _touches_params(
    expr: Expr, bound: frozenset[str], col: _Collector
) -> bool:
    """Whether ``expr`` reaches any UDF parameter (TOP trigger check).

    A ``getattr``/``**`` over pure broadcast state stays precise — only
    dynamic access *into a parameter* defeats path tracking.
    """
    return bool((expr.free_vars() - bound) & col.params)


# ---------------------------------------------------------------------------
# Write/emit sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmitComponent:
    """One output component of a map UDF.

    ``path`` locates the component in the output record; ``source`` is
    the input field path it copies, or ``None`` when the component is
    computed (arithmetic, calls — a *written* field).
    """

    path: FieldPath
    source: FieldPath | None


@dataclass(frozen=True)
class EmitSet:
    """The write/emit set of a single-parameter map UDF.

    ``components`` is ``None`` when the output structure is opaque to
    the analysis (multi-parameter UDFs, constructor calls whose field
    layout is unknowable at compile time, ``**`` expansion).
    """

    components: tuple[EmitComponent, ...] | None
    opaque_reason: str = ""

    def resolves(self, read: FieldPath) -> bool:
        """Whether a downstream read of ``read`` lands on a copied
        (never computed) component of the output."""
        if self.components is None:
            return False
        for comp in self.components:
            if read.starts_with(comp.path) or comp.path.starts_with(read):
                if comp.source is None:
                    return False
        return any(
            comp.source is not None and read.starts_with(comp.path)
            for comp in self.components
        )

    def describe(self) -> str:
        """``emits {...}`` text for traces and plan annotations."""
        if self.components is None:
            return f"emits TOP ({self.opaque_reason})"
        parts = []
        for comp in self.components:
            where = comp.path.render() if comp.path.steps else "<out>"
            what = (
                comp.source.render().lstrip(".") or "<all>"
                if comp.source is not None
                else "computed"
            )
            if comp.source is not None and not comp.source.steps:
                what = "<all>"
            parts.append(f"{where}: {what}")
        return "emits {" + ", ".join(parts) + "}"


def analyze_emit_set(fn: ScalarFn) -> EmitSet:
    """Infer the emit structure of a map UDF.

    Supported shapes: the identity map, a pure access chain over the
    parameter, and tuple construction whose items are themselves access
    chains or computed scalars.  Constructor calls are opaque — without
    the runtime environment the pass cannot prove which attribute a
    keyword argument lands on.
    """
    if len(fn.params) != 1:
        return EmitSet(None, "multi-parameter UDF")
    param = fn.params[0]
    body = simplify_projections(fn.body)
    if isinstance(body, TupleExpr):
        components = tuple(
            EmitComponent(
                path=FieldPath((("index", i),)),
                source=_copy_source(item, param),
            )
            for i, item in enumerate(body.items)
        )
        return EmitSet(components)
    source = _copy_source(body, param)
    if source is not None:
        return EmitSet((EmitComponent(path=FieldPath(), source=source),))
    if isinstance(body, Call):
        return EmitSet(None, "constructor call with unknown field layout")
    return EmitSet((EmitComponent(path=FieldPath(), source=None),))


def _copy_source(expr: Expr, param: str) -> FieldPath | None:
    """The input field path ``expr`` copies, or ``None`` if computed."""
    base, steps = _peel_access(expr)
    if isinstance(base, Ref) and base.name == param:
        return FieldPath(steps)
    return None


# ---------------------------------------------------------------------------
# Projection simplification
# ---------------------------------------------------------------------------


def simplify_projections(expr: Expr) -> Expr:
    """Collapse ``(a, b, ...)[i]`` to its ``i``-th component, bottom-up.

    Generator unnesting substitutes tuple heads into downstream guards,
    so a filter over a join pair arrives as
    ``Index(TupleExpr((..., ...)), Const(i))`` — syntactically touching
    both components while semantically reading one.  Tuple construction
    and constant indexing are pure, so the rewrite is semantics-
    preserving and makes the genuine access path visible to the
    read-set analysis.
    """

    def step(node: Expr) -> Expr:
        if (
            isinstance(node, Index)
            and isinstance(node.obj, TupleExpr)
            and isinstance(node.index, Const)
            and isinstance(node.index.value, int)
            and not isinstance(node.index.value, bool)
            and -len(node.obj.items)
            <= node.index.value
            < len(node.obj.items)
        ):
            return node.obj.items[node.index.value]
        return node

    return transform(expr, step)
