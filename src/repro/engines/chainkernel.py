"""Fused per-partition kernels for physical operator chains.

Given the steps of a :class:`~repro.lowering.combinators.CChain`, this
module generates *one* Python function for the whole chain and
``compile()``s it, so a fused run of maps/filters/flat-maps costs a
single Python-level loop per partition — no intermediate lists, no
per-operator dispatch, and (when every UDF body is in the natively
compilable scalar subset) no function call per record either, because
the bodies are inlined straight into the kernel source.

For ``Chain[Map(f) -> Filter(p) -> FlatMap(g)]`` the generated source
looks like::

    def _chain_kernel(_partition, _emit):
        _k0 = 0
        _k1 = 0
        for _x0 in _partition:
            _x1 = <body of f over _x0>
            if not (<body of p over _x1>):
                continue
            _k0 += 1
            for _x2 in _seq(<body of g over _x1>):
                _k1 += 1
                _emit(_x2)
        return (_k0, _k1)

Counters exist only at the count-changing steps: filters count their
survivors and flat-maps count produced records.  The executor
reconstructs every step's exact input count from those few integers,
so the fused chain charges the cost model precisely what the unfused
operators would have — minus the per-operator overheads it eliminates.

A kernel that feeds an aggregation or a fold does not ``_emit`` its
records at all: it ends in a *sink* (:class:`AggSink`,
:class:`FoldSink`) that folds them where they are produced.  For
``tpch_q1`` — an ``agg_by`` over the banana-split product of six folds,
five of them with a fused head — the whole mapper side is::

    def _chain_kernel(_partition, _emit):
        _acc = {}
        for _x0 in _partition:
            _key = ((_x0).return_flag, (_x0).line_status)
            _e = _acc.get(_key)
            if _e is None:
                _e = _acc[_key] = [0, 0, 0, 0, 0, 0]
            _e[0] = (_e[0] + (_x0).quantity)
            _e[1] = (_e[1] + (_x0).extended_price)
            _e[2] = (_e[2] + ((_x0).extended_price * (1 - (_x0).discount)))
            ...
            _e[4] = (_e[4] + 1)
            _e[5] = (_e[5] + (_x0).discount)
        for _key, _e in _acc.items():
            _emit((_key, (*_e,)))
        return ()

and when a private chain feeds the aggregation its steps — ``_x1 =``,
``if not (...): continue``, their counters — come first in the same
loop.  Key, fused heads, guards and unions are inlined from the same
``FOLD_TEMPLATES`` the comprehension emitter uses; per-group order is
the partition's order, and a key's first record still computes
``union(zero, singleton(x))``, so results equal the interpreter's
``AggByCall.evaluate`` bit for bit.  A ``min_by`` / ``max_by``
accumulator carries its key beside it (``KEYED_STEP``; in a slot behind
the partials of ``_e``), so its key runs at most once per record, as
the interpreter's ``FoldAlgebra.step`` runs it.  The counts tuple is the
chain's own: a sink adds no counter.  The reducer side (records are
``(key, partials)`` pairs, unioned component-wise) and a structural
fold (``_acc = <zero>`` ahead of the loop, ``_acc = <union>`` in it,
one ``_emit(_acc)`` behind it) are the same generator with another
tail.

A step or fold component whose body cannot be inlined (an IR node
outside the compilable subset, a free name that conflicts with another
step's binding, a multi-parameter UDF) degrades gracefully to a call of
its compiled closure from inside the same loop; semantics are identical.

Kernels never pickle.  What crosses a process boundary is a task spec
carrying :class:`Udf` values — parameters, lifted body, resolved
bindings, never a code object — and the receiving process regenerates
and compiles the same kernel source from them (see
:mod:`repro.engines.scheduler`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Env,
    Expr,
    FoldSource,
    Index,
    NativeCodegen,
    NotCompilable,
    Ref,
    TupleExpr,
    UnaryOp,
    fallback_reason,
)
from repro.core.databag import DataBag
from repro.engines.columnar import (
    ColumnBatch,
    ColumnSchema,
    _dataclass_schema,
    as_mask,
    as_vector,
    broadcast,
    mask_and,
    mask_count,
    mask_not,
    mask_or,
    select_column,
)
from repro.lowering.combinators import ScalarFn

#: step kinds, matching the narrow combinators they come from
MAP, FILTER, FLATMAP = "map", "filter", "flatmap"

#: names reserved by the generated kernel — a UDF free name matching
#: one of these cannot share the kernel namespace and forces the
#: closure fallback for its step
_RESERVED = re.compile(
    r"\A(_x\d+|_k\d+|_f\d+|_g\d+|_seq|_emit|_partition|_chain_kernel"
    r"|_acc|_key|_e|_p|_a|_b|_ak|_bk)\Z"
)


def _as_sequence(value: Any) -> Any:
    if isinstance(value, DataBag):
        return value.fetch()
    return value


@dataclass(eq=False)
class Udf:
    """A UDF closed over the driver env: one value, driver to worker.

    ``params`` and ``body`` are the lifted (post-hoist) UDF, ``bindings``
    the resolved values of its free names — broadcast bags included, the
    paper's transparent driver-to-UDF data motion — and ``extra`` the
    per-element broadcast-scan op weight.  That is also exactly what
    pickles: the ``closure`` is compiled from them on first use, with
    the same native-vs-interpreter fallback in every process, cached on
    the value together with the reason for a fallback, and never
    travels (code objects do not cross process boundaries).  Kernel
    generation inlines ``body`` over ``bindings`` and falls back to
    calling ``closure``.
    """

    params: tuple[str, ...]
    body: Expr
    bindings: dict[str, Any] = field(default_factory=dict)
    extra: int = 0

    @cached_property
    def _compiled(self) -> tuple[Callable, str | None]:
        fn = ScalarFn(self.params, self.body)
        closure, native = fn.compile_native(self.bindings)
        if native:
            return closure, None
        return closure, fallback_reason(self.params, self.body, self.bindings)

    @property
    def closure(self) -> Callable:
        """The compiled UDF, built once per process."""
        return self._compiled[0]

    @property
    def native(self) -> bool:
        """Whether ``closure`` is native code, not the tree walker."""
        return self._compiled[1] is None

    @property
    def fallback(self) -> str | None:
        """Why ``closure`` walks the tree (``None`` when it is native)."""
        return self._compiled[1]

    def __getstate__(self) -> dict[str, Any]:
        """Pickle as IR + bindings, dropping the compiled closure and
        its fallback reason."""
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class KernelStep:
    """One operator of a chain: its kind and its UDF."""

    kind: str  # "map" | "filter" | "flatmap"
    udf: Udf

    @property
    def counted(self) -> bool:
        """Whether this step changes the record count downstream."""
        return self.kind in (FILTER, FLATMAP)


@dataclass(frozen=True)
class AggSink:
    """Kernel tail of an ``agg_by``: per-key product-fold accumulators.

    With a ``key`` the kernel is the mapper side — every chain output
    is folded into its key's accumulator list through each algebra's
    singleton, and the kernel emits one ``(key, partials)`` pair per
    distinct key, in first-seen order.  Without one it is the reducer
    side: records *are* such pairs and are unioned in component-wise.
    """

    specs: tuple[AlgebraSpec, ...]
    bindings: dict[str, Any]
    key: Udf | None = None


@dataclass(frozen=True)
class FoldSink:
    """Kernel tail of a structural fold: one accumulator, emitted once.

    ``merge`` marks the records as partial results, unioned in without
    the singleton (``FoldAlgebra.merge``).
    """

    spec: AlgebraSpec
    bindings: dict[str, Any]
    merge: bool = False


class ChainKernel:
    """A compiled whole-chain per-partition kernel."""

    def __init__(
        self,
        run: Callable[[Any, Callable[[Any], Any]], tuple],
        source: str = "",
    ) -> None:
        #: ``run(partition, emit) -> counts`` streams every record of
        #: the partition through the chain, calling ``emit`` per output
        self.run = run
        #: the generated kernel source
        self.source = source


def entered_counts(
    steps: Sequence[KernelStep], n_in: int, counts: tuple
) -> tuple[list[int], int]:
    """Per-step input counts, plus the emitted-record count.

    ``counts`` is the tuple the kernel of ``steps`` returned for a
    partition of ``n_in`` records; maps pass their input count through,
    filters and flat-maps reset it to their counter.
    """
    entered: list[int] = []
    cur = n_in
    ci = 0
    for step in steps:
        entered.append(cur)
        if step.counted:
            cur = counts[ci]
            ci += 1
    return entered, cur


def _sink_source(
    sink: AggSink | FoldSink | None,
    var: str,
    codegen: NativeCodegen,
    call_source: Callable[..., str],
) -> tuple[list[str], list[str], list[str]]:
    """What a kernel does with each record ``var`` its chain lets through.

    Returns the statements ahead of the record loop, inside it, and
    behind it.  ``call_source(udf, *args)`` renders a UDF applied to
    locals (inlined, or as a closure call).
    """
    if sink is None:
        return [], [f"_emit({var})"], []
    before: list[str] = []
    numbers = itertools.count()

    def fold_source(spec: AlgebraSpec) -> FoldSource:
        """The algebra's templates over its arguments, each evaluated
        once ahead of the loop (as ``make_algebra`` evaluates them)."""
        args = tuple(f"_g{next(numbers)}" for _ in spec.args)
        for name, arg in zip(args, spec.args):
            closed = Udf((), arg, sink.bindings)
            before.append(f"{name} = {call_source(closed)}")
        return codegen.fold_source(spec.alias, args)

    def singleton(fold: FoldSource, spec: AlgebraSpec) -> str:
        """``singleton(var)`` with the fused head and guards inlined: a
        failed guard contributes the zero, as the interpreter's does."""
        x = (spec.var or "_x",)
        src = fold.singleton(
            var
            if spec.head is None
            else call_source(Udf(x, spec.head, sink.bindings), var)
        )
        if not spec.guards:
            return src
        guards = " and ".join(
            call_source(Udf(x, g, sink.bindings), var) for g in spec.guards
        )
        return f"({src} if {guards} else {fold.zero})"

    def union_into(
        fold: FoldSource, target: str, operand: str, key: str = ""
    ) -> list[str]:
        """Statements for ``target = union(target, operand)``; a keyed
        alias carries ``target``'s key in ``key``."""
        if fold.keyed:
            return fold.keyed_step(target, key, operand)
        if fold.repeats_operands:
            return [
                f"_a = {target}",
                f"_b = {operand}",
                f"{target} = {fold.union('_a', '_b')}",
            ]
        return [f"{target} = {fold.union(target, operand)}"]

    if isinstance(sink, FoldSink):
        fold = fold_source(sink.spec)
        before.append(f"_acc = {fold.zero}")
        if fold.keyed:
            before.append("_ak = _cv_unkeyed")
        operand = var if sink.merge else singleton(fold, sink.spec)
        return (
            before,
            union_into(fold, "_acc", operand, "_ak"),
            ["_emit(_acc)"],
        )

    folds = [fold_source(spec) for spec in sink.specs]
    # a keyed fold's accumulator carries its key in a slot behind the
    # partials: ``_e[n + i]`` for the i-th keyed fold
    n = len(folds)
    slots = {}
    for j, fold in enumerate(folds):
        if fold.keyed:
            slots[j] = f"_e[{n + len(slots)}]"
    keys = ["_cv_unkeyed"] * len(slots)
    before.append("_acc = {}")
    if sink.key is not None:
        fresh = ", ".join([*(f.zero for f in folds), *keys])
        tail = [
            f"_key = {call_source(sink.key, var)}",
            "_e = _acc.get(_key)",
            "if _e is None:",
            f"    _e = _acc[_key] = [{fresh}]",
        ]
        for j, (fold, spec) in enumerate(zip(folds, sink.specs)):
            tail.extend(
                union_into(
                    fold, f"_e[{j}]", singleton(fold, spec), slots.get(j, "")
                )
            )
    else:
        tail = [
            f"_key, _p = {var}",
            "_e = _acc.get(_key)",
            "if _e is None:",
            f"    _acc[_key] = [{', '.join(['*_p', *keys])}]",
            "else:",
        ]
        for j, fold in enumerate(folds):
            tail.extend(
                f"    {line}"
                for line in union_into(
                    fold, f"_e[{j}]", f"_p[{j}]", slots.get(j, "")
                )
            )
    partials = f"(*_e[:{n}],)" if slots else "(*_e,)"
    after = ["for _key, _e in _acc.items():", f"    _emit((_key, {partials}))"]
    return before, tail, after


def build_chain_kernel(
    steps: Sequence[KernelStep],
    sink: AggSink | FoldSink | None = None,
) -> ChainKernel:
    """Generate, compile, and wrap the fused kernel for ``steps``.

    Without a ``sink`` the chain's outputs go to ``_emit`` one by one;
    with one they are folded inside the loop and ``_emit`` receives the
    sink's results when the partition is exhausted.
    """
    codegen = NativeCodegen()
    namespace = codegen.globals_
    namespace["_seq"] = _as_sequence
    numbers = itertools.count()

    def call_source(udf: Udf, *args: str) -> str:
        """Source of ``udf`` applied to the locals ``args``: its body
        inlined when it compiles into this namespace, a call of its
        closure otherwise."""
        if len(udf.params) == len(args):
            bindings = udf.bindings

            def resolve(name: str) -> Any:
                if _RESERVED.match(name):
                    raise KeyError(name)
                return bindings[name]

            try:
                return codegen.emit(
                    udf.body, dict(zip(udf.params, args)), resolve
                )
            except NotCompilable:
                pass
        name = f"_f{next(numbers)}"
        namespace[name] = udf.closure
        return f"{name}({', '.join(args)})"

    counters: list[str] = []
    body: list[str] = ["    for _x0 in _partition:"]
    depth, var, vi = 2, "_x0", 1
    for step in steps:
        ind = "    " * depth
        src = call_source(step.udf, var)
        if step.kind == MAP:
            nxt = f"_x{vi}"
            vi += 1
            body.append(f"{ind}{nxt} = {src}")
            var = nxt
        elif step.kind == FILTER:
            counter = f"_k{len(counters)}"
            counters.append(counter)
            body.append(f"{ind}if not ({src}):")
            body.append(f"{ind}    continue")
            body.append(f"{ind}{counter} += 1")
        elif step.kind == FLATMAP:
            counter = f"_k{len(counters)}"
            counters.append(counter)
            nxt = f"_x{vi}"
            vi += 1
            body.append(f"{ind}for {nxt} in _seq({src}):")
            depth += 1
            body.append(f"{'    ' * depth}{counter} += 1")
            var = nxt
        else:
            raise ValueError(f"unknown chain step kind {step.kind!r}")

    before, tail, after = _sink_source(sink, var, codegen, call_source)
    ind = "    " * depth
    body.extend(f"{ind}{line}" for line in tail)

    lines = ["def _chain_kernel(_partition, _emit):"]
    lines.extend(f"    {c} = 0" for c in counters)
    lines.extend(f"    {line}" for line in before)
    lines.extend(body)
    lines.extend(f"    {line}" for line in after)
    counts = ", ".join(counters) + ("," if len(counters) == 1 else "")
    lines.append(f"    return ({counts})")
    source = "\n".join(lines)
    code = compile(source, "<chain-kernel>", "exec")
    exec(code, namespace)  # noqa: S102 - compiler-generated source
    return ChainKernel(namespace["_chain_kernel"], source=source)


# ---------------------------------------------------------------------------
# Vectorized (batch-at-a-time) kernels
# ---------------------------------------------------------------------------
#
# When every UDF of a chain is in the vectorizable subset below, the
# chain compiles to a *batch* kernel over a ColumnBatch: maps become
# whole-column expressions, filters become selection masks, and the
# per-record Python loop disappears.  For
# ``Chain[Filter(p) -> Map(f)]`` over a dataclass batch the generated
# source looks like::
#
#     def _vector_kernel(_cols, _n):
#         _c2 = _vcol(_cols[2])
#         _c5 = _vcol(_cols[5])
#         _m0 = _vmask((_c5 <= _cv0), _n)
#         _k0 = _vcount(_m0)
#         _c2 = _vsel(_c2, _m0)
#         _n = _k0
#         _v0 = (_c2 * 2.0)
#         return ((_v0,), _n, (_k0,))
#
# The counts tuple has exactly the shape and values of the row
# kernel's, so the executor charges the cost model identically — the
# vector path changes wall clock and bytes, never ``simulated_seconds``
# or results.

#: operators with element-wise semantics identical to Python's
_VEC_BIN = frozenset({"+", "-", "*", "/", "//", "%"})
#: division-like operators: only safe with a constant nonzero divisor
#: (a zero divisor must raise exactly where the row kernel raises)
_VEC_DIV = frozenset({"/", "//", "%"})
_VEC_CMP = frozenset({"==", "!=", "<", "<=", ">", ">="})


class NotVectorizable(Exception):
    """A chain (or one partition's schema) cannot run batch-at-a-time.

    The message is the human-readable reason, surfaced in the compile
    trace and in runtime fallback events.
    """


def _is_masky(expr: Expr) -> bool:
    """Whether ``expr`` statically evaluates to a boolean."""
    if isinstance(expr, (Compare, BoolOp)):
        return True
    if isinstance(expr, UnaryOp) and expr.op == "not":
        return True
    return isinstance(expr, Const) and isinstance(expr.value, bool)


def _contains_call(expr: Expr) -> bool:
    if isinstance(expr, Call):
        return True
    return any(_contains_call(c) for c in expr.children())


def _check_vec_expr(expr: Expr, param: str) -> str:
    """Reason ``expr`` cannot be a vector expression, or ``""``."""
    if param not in expr.free_vars():
        if _contains_call(expr):
            return "free function call (not provably pure)"
        return ""  # evaluated once at kernel-build time
    if isinstance(expr, Ref):
        return ""  # the record itself; kind-checked at build time
    if isinstance(expr, Attr):
        if isinstance(expr.obj, Ref):
            return ""
        return "nested attribute access"
    if isinstance(expr, Index):
        if (
            isinstance(expr.obj, TupleExpr)
            and isinstance(expr.index, Const)
            and isinstance(expr.index.value, int)
            and not isinstance(expr.index.value, bool)
            and -len(expr.obj.items)
            <= expr.index.value
            < len(expr.obj.items)
        ):
            # A constant index into a literal tuple — the shape filter
            # pushdown leaves behind.  Every element must stay in the
            # subset (the row kernel evaluates them all), but only the
            # selected one is live.
            for item in expr.obj.items:
                reason = _check_vec_expr(item, param)
                if reason:
                    return reason
            return ""
        if (
            isinstance(expr.obj, Ref)
            and isinstance(expr.index, Const)
            and isinstance(expr.index.value, int)
            and not isinstance(expr.index.value, bool)
        ):
            return ""
        return "non-constant or nested index"
    if isinstance(expr, BinOp):
        if expr.op not in _VEC_BIN:
            return f"operator {expr.op!r}"
        if _is_masky(expr.left) or _is_masky(expr.right):
            return "arithmetic over boolean operands"
        if expr.op in _VEC_DIV and param in expr.right.free_vars():
            return "data-dependent divisor"
        return _check_vec_expr(expr.left, param) or _check_vec_expr(
            expr.right, param
        )
    if isinstance(expr, UnaryOp):
        if expr.op == "-":
            if _is_masky(expr.operand):
                return "negating a boolean"
            return _check_vec_expr(expr.operand, param)
        if expr.op == "not":
            return _check_vec_expr(expr.operand, param)
        return f"operator {expr.op!r}"
    if isinstance(expr, Compare):
        if expr.op not in _VEC_CMP:
            return f"comparison {expr.op!r}"
        return _check_vec_expr(expr.left, param) or _check_vec_expr(
            expr.right, param
        )
    if isinstance(expr, BoolOp):
        for part in expr.operands:
            if param in part.free_vars() and not _is_masky(part):
                return "short-circuit over non-boolean operands"
            reason = _check_vec_expr(part, param)
            if reason:
                return reason
        return ""
    return f"{type(expr).__name__} in UDF body"


def _check_vec_step(
    kind: str, params: tuple[str, ...], body: Expr | None
) -> str:
    """Reason one chain step cannot vectorize, or ``""``."""
    if body is None:
        return "UDF body is not lifted IR"
    if len(params) != 1:
        return "multi-parameter UDF"
    if kind == FLATMAP:
        return "flat-map requires row-at-a-time emission"
    param = params[0]
    if kind == FILTER:
        return _check_vec_expr(body, param)
    # map: the output may be a scalar, a tuple of scalars, or a
    # record-constructor call over scalars
    if isinstance(body, Ref) and body.name == param:
        return ""
    if isinstance(body, TupleExpr):
        for item in body.items:
            reason = _check_vec_expr(item, param)
            if reason:
                return reason
        return ""
    if isinstance(body, Call):
        if body.kwargs:
            return "constructor keyword arguments"
        if not isinstance(body.func, Ref) or body.func.name == param:
            return "computed constructor"
        for arg in body.args:
            reason = _check_vec_expr(arg, param)
            if reason:
                return reason
        return ""
    return _check_vec_expr(body, param)


def vectorizable_reason(
    steps_desc: Sequence[tuple[str, tuple[str, ...], Expr | None]],
) -> str:
    """Why a chain of ``(kind, params, body)`` steps cannot vectorize.

    Returns ``""`` when every step is in the vectorizable subset — the
    static half of the kernel-selection rule the optimizer applies
    per chain.  The dynamic half (record kinds, binding values, zero
    divisors) is re-checked when :func:`build_vector_kernel` meets the
    actual partition schema, falling back to the row kernel per chain.
    """
    for kind, params, body in steps_desc:
        reason = _check_vec_step(kind, params, body)
        if reason:
            return reason
    return ""


def _is_scalar_value(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


class _Rep:
    """The column layout of the record stream at one point of a chain."""

    __slots__ = ("kind", "vars", "fields", "ctor")

    def __init__(
        self,
        kind: str,
        vars_: list[str],
        fields: tuple[str, ...],
        ctor: type | None,
    ) -> None:
        self.kind = kind
        self.vars = vars_
        self.fields = fields
        self.ctor = ctor


class VectorKernel:
    """A compiled whole-chain batch-at-a-time kernel.

    ``run(columns, nrows)`` returns ``(out_columns, out_nrows,
    counts)`` where ``counts`` is value-identical to what the row
    kernel would return for the same partition.
    """

    def __init__(
        self,
        schema: ColumnSchema,
        run: Callable,
        source: str,
        out_schema: ColumnSchema,
        needed: frozenset[int],
        n_counters: int,
    ) -> None:
        self.schema = schema
        self.run = run
        self.source = source
        self.out_schema = out_schema
        #: input column positions the kernel actually reads — the
        #: batch builder projects every other column away
        self.needed = needed
        self.n_counters = n_counters

    def run_batch(self, batch: ColumnBatch) -> tuple[ColumnBatch, tuple]:
        """Run the kernel over one batch: ``(out_batch, counts)``."""
        cols, n, counts = self.run(batch.columns, batch.nrows)
        return ColumnBatch(self.out_schema, tuple(cols), n), counts


def build_vector_kernel(
    steps: Sequence[KernelStep], schema: ColumnSchema
) -> VectorKernel:
    """Generate and compile the batch kernel for ``steps`` over ``schema``.

    Raises :exc:`NotVectorizable` (with the reason) when the chain, the
    record layout, or a binding value is outside the vectorizable
    subset; the caller falls back to the row kernel.
    """
    namespace: dict[str, Any] = {
        "_vcol": as_vector,
        "_bcast": broadcast,
        "_vmask": as_mask,
        "_vcount": mask_count,
        "_vsel": select_column,
        "_vand": mask_and,
        "_vor": mask_or,
        "_vnot": mask_not,
    }
    interned: dict[int, str] = {}

    def intern(value: Any) -> str:
        name = interned.get(id(value))
        if name is None:
            name = f"_cv{len(interned)}"
            interned[id(value)] = name
            namespace[name] = value
        return name

    def render_scalar(value: Any) -> str:
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return intern(value)

    _UNKNOWN = object()

    def emit(
        expr: Expr, param: str, rep: _Rep, env: Env
    ) -> tuple[str, bool, bool, Any]:
        """Emit one scalar expression over the current column layout.

        Returns ``(source, is_column, is_mask, value)`` where ``value``
        is the build-time value for non-column operands.
        """
        if param not in expr.free_vars():
            if _contains_call(expr):
                raise NotVectorizable(
                    "free function call (not provably pure)"
                )
            try:
                value = expr.evaluate(env)
            except Exception as exc:
                raise NotVectorizable(
                    f"constant subexpression failed: {exc}"
                )
            if not _is_scalar_value(value):
                raise NotVectorizable(
                    "non-scalar operand of type "
                    f"{type(value).__name__}"
                )
            return (
                render_scalar(value),
                False,
                isinstance(value, bool),
                value,
            )
        if isinstance(expr, Ref):
            if rep.kind != "scalar":
                raise NotVectorizable(
                    "whole-record reference on composite records"
                )
            return rep.vars[0], True, False, _UNKNOWN
        if isinstance(expr, Attr):
            if not (
                isinstance(expr.obj, Ref) and expr.obj.name == param
            ):
                raise NotVectorizable("nested attribute access")
            if rep.kind != "dataclass" or expr.name not in rep.fields:
                raise NotVectorizable(
                    f"no column for field {expr.name!r}"
                )
            var = rep.vars[rep.fields.index(expr.name)]
            return var, True, False, _UNKNOWN
        if isinstance(expr, Index):
            if (
                isinstance(expr.obj, TupleExpr)
                and isinstance(expr.index, Const)
                and isinstance(expr.index.value, int)
                and not isinstance(expr.index.value, bool)
                and -len(expr.obj.items)
                <= expr.index.value
                < len(expr.obj.items)
            ):
                # Constant index into a literal tuple: emit every
                # element (all must be in the subset, mirroring the
                # row kernel's full evaluation) but wire up only the
                # selected one; dead emits never reach the source.
                picked = None
                for j, item in enumerate(expr.obj.items):
                    emitted = emit(item, param, rep, env)
                    if j == expr.index.value % len(expr.obj.items):
                        picked = emitted
                return picked
            if not (
                isinstance(expr.obj, Ref)
                and expr.obj.name == param
                and isinstance(expr.index, Const)
                and isinstance(expr.index.value, int)
                and not isinstance(expr.index.value, bool)
            ):
                raise NotVectorizable("non-constant or nested index")
            if rep.kind != "tuple":
                raise NotVectorizable(
                    "positional index on non-tuple records"
                )
            i = expr.index.value
            arity = len(rep.vars)
            if not (-arity <= i < arity):
                raise NotVectorizable(f"index {i} out of arity {arity}")
            return rep.vars[i], True, False, _UNKNOWN
        if isinstance(expr, BinOp):
            if expr.op not in _VEC_BIN:
                raise NotVectorizable(f"operator {expr.op!r}")
            if _is_masky(expr.left) or _is_masky(expr.right):
                raise NotVectorizable("arithmetic over boolean operands")
            lsrc, lcol, _lm, _lv = emit(expr.left, param, rep, env)
            rsrc, rcol, _rm, rvalue = emit(expr.right, param, rep, env)
            if expr.op in _VEC_DIV:
                if rcol:
                    raise NotVectorizable("data-dependent divisor")
                if (
                    not isinstance(rvalue, (int, float))
                    or isinstance(rvalue, bool)
                    or rvalue == 0
                ):
                    raise NotVectorizable(
                        "unsafe divisor for vector division"
                    )
            return (
                f"({lsrc} {expr.op} {rsrc})",
                lcol or rcol,
                False,
                _UNKNOWN,
            )
        if isinstance(expr, UnaryOp):
            if expr.op == "-":
                if _is_masky(expr.operand):
                    raise NotVectorizable("negating a boolean")
                osrc, ocol, _om, _ov = emit(expr.operand, param, rep, env)
                return f"(- {osrc})", ocol, False, _UNKNOWN
            if expr.op == "not":
                osrc, ocol, omask, _ov = emit(
                    expr.operand, param, rep, env
                )
                if not omask:
                    osrc = f"_vmask({osrc}, _n)"
                return f"_vnot({osrc})", True, True, _UNKNOWN
            raise NotVectorizable(f"operator {expr.op!r}")
        if isinstance(expr, Compare):
            if expr.op not in _VEC_CMP:
                raise NotVectorizable(f"comparison {expr.op!r}")
            lsrc, lcol, _lm, _lv = emit(expr.left, param, rep, env)
            rsrc, rcol, _rm, _rv = emit(expr.right, param, rep, env)
            return (
                f"({lsrc} {expr.op} {rsrc})",
                True,
                True,
                _UNKNOWN,
            )
        if isinstance(expr, BoolOp):
            if expr.op not in ("and", "or") or not expr.operands:
                raise NotVectorizable(f"operator {expr.op!r}")
            parts = []
            for part in expr.operands:
                psrc, pcol, pmask, pvalue = emit(part, param, rep, env)
                if not pcol and not isinstance(pvalue, bool):
                    raise NotVectorizable(
                        "short-circuit over non-boolean operands"
                    )
                if pcol and not pmask:
                    raise NotVectorizable(
                        "short-circuit over non-boolean operands"
                    )
                if not pcol:
                    psrc = f"_vmask({psrc}, _n)"
                parts.append(psrc)
            fn = "_vand" if expr.op == "and" else "_vor"
            src = parts[0]
            for part in parts[1:]:
                src = f"{fn}({src}, {part})"
            return src, True, True, _UNKNOWN
        raise NotVectorizable(f"{type(expr).__name__} in UDF body")

    rep = _Rep(
        schema.kind,
        [f"_c{i}" for i in range(schema.arity)],
        schema.fields,
        schema.ctor,
    )
    lines: list[Any] = []  # str | ("select", mask_var, live_candidates)
    counters: list[str] = []
    vi = mi = 0
    for step in steps:
        udf = step.udf
        if len(udf.params) != 1:
            raise NotVectorizable("multi-parameter UDF")
        if udf.extra:
            raise NotVectorizable("broadcast scan inside UDF")
        param = udf.params[0]
        env = Env.of(udf.bindings)
        if step.kind == FLATMAP:
            raise NotVectorizable(
                "flat-map requires row-at-a-time emission"
            )
        if step.kind == FILTER:
            src, _is_col, _masky, _value = emit(udf.body, param, rep, env)
            mask = f"_m{mi}"
            mi += 1
            counter = f"_k{len(counters)}"
            counters.append(counter)
            lines.append(f"{mask} = _vmask({src}, _n)")
            lines.append(f"{counter} = _vcount({mask})")
            lines.append(("select", mask, tuple(rep.vars)))
            lines.append(f"_n = {counter}")
            continue
        if step.kind != MAP:
            raise NotVectorizable(f"unknown step kind {step.kind!r}")
        body = udf.body
        if isinstance(body, Ref) and body.name == param:
            continue  # identity map: layout unchanged
        if isinstance(body, TupleExpr):
            items = body.items
            out_kind, out_ctor = "tuple", None
        elif isinstance(body, Call):
            if body.kwargs:
                raise NotVectorizable("constructor keyword arguments")
            if (
                not isinstance(body.func, Ref)
                or body.func.name == param
            ):
                raise NotVectorizable("computed constructor")
            ctor = udf.bindings.get(body.func.name)
            cschema = (
                _dataclass_schema(ctor)
                if isinstance(ctor, type)
                else None
            )
            if cschema is None:
                raise NotVectorizable(
                    "constructor is not a plain dataclass"
                )
            if cschema.arity != len(body.args):
                raise NotVectorizable(
                    "constructor arity mismatch"
                )
            items = body.args
            out_kind, out_ctor = "dataclass", ctor
        else:
            items = (body,)
            out_kind, out_ctor = "scalar", None
        new_vars: list[str] = []
        for item in items:
            src, is_col, _masky, _value = emit(item, param, rep, env)
            var = f"_v{vi}"
            vi += 1
            if not is_col:
                src = f"_bcast({src}, _n)"
            lines.append(f"{var} = {src}")
            new_vars.append(var)
        if out_kind == "dataclass":
            fields = tuple(
                f.name for f in dataclasses.fields(out_ctor)
            )
        elif out_kind == "scalar":
            fields = ("_0",)
        else:
            fields = tuple(f"_{j}" for j in range(len(new_vars)))
        rep = _Rep(out_kind, new_vars, fields, out_ctor)

    out_tuple = ", ".join(rep.vars) + ("," if len(rep.vars) == 1 else "")
    ctr_tuple = ", ".join(counters) + ("," if len(counters) == 1 else "")
    lines.append(f"return (({out_tuple}), _n, ({ctr_tuple}))")

    # Resolve filter selections back-to-front: a column is re-selected
    # at a filter only if some later line (or the return) still reads
    # it — dead columns are never selected, and input columns never
    # read at all are never even built (projection pushdown).
    resolved_rev: list[str] = []
    tail_text = ""
    for entry in reversed(lines):
        if isinstance(entry, tuple):
            _tag, mask, candidates = entry
            live = [
                v
                for v in dict.fromkeys(candidates)
                if re.search(rf"{re.escape(v)}\b", tail_text)
            ]
            sel = [f"{v} = _vsel({v}, {mask})" for v in live]
            resolved_rev.extend(reversed(sel))
            tail_text = "\n".join(sel) + "\n" + tail_text
        else:
            resolved_rev.append(entry)
            tail_text = entry + "\n" + tail_text
    body_lines = list(reversed(resolved_rev))
    body_text = "\n".join(body_lines)
    needed = frozenset(
        i
        for i in range(schema.arity)
        if re.search(rf"_c{i}\b", body_text)
    )

    src_lines = ["def _vector_kernel(_cols, _n):"]
    src_lines.extend(
        f"    _c{i} = _vcol(_cols[{i}])" for i in sorted(needed)
    )
    src_lines.extend(f"    {line}" for line in body_lines)
    source = "\n".join(src_lines)
    code = compile(source, "<vector-kernel>", "exec")
    exec(code, namespace)  # noqa: S102 - compiler-generated source
    out_schema = ColumnSchema(rep.kind, rep.fields, rep.ctor)
    return VectorKernel(
        schema,
        namespace["_vector_kernel"],
        source,
        out_schema,
        needed,
        len(counters),
    )


def build_key_kernel(key: Udf, schema: ColumnSchema) -> VectorKernel:
    """The vector kernel evaluating one *key* UDF as a column.

    Exchange operators (shuffle, hash join, group-by) need the key of
    every record; running the key :class:`Udf` as a single-step MAP
    chain reuses the whole scalar-subset evaluator — same vectorizable
    subset, same bit-identical Python semantics — and yields a kernel
    whose output batch is the key column(s).  Raises
    :exc:`NotVectorizable` exactly like :func:`build_vector_kernel`.
    """
    return build_vector_kernel((KernelStep(MAP, key),), schema)
