"""The lifted expression language.

Python expressions inside a ``@parallelize`` bracket are lifted into the
node types defined here.  The language has three strata:

1. **Scalar expressions** — constants, references, attribute/index
   access, arithmetic, boolean logic, calls, conditionals, lambdas.
2. **Bag operator calls** — the DataBag API surface as first-class IR
   nodes (``MapCall``, ``FlatMapCall``, ``FilterCall``, ``FoldCall``,
   ``GroupByCall``, ``PlusCall``, ``MinusCall``, ``DistinctCall``,
   ``ReadCall``, ``WriteCall``, ``BagLiteral``, ``FetchCall``).
3. **Comprehensions** — defined in :mod:`repro.comprehension.ir`; they
   are also ``Expr`` subclasses so they can nest inside heads and
   predicates, which is what makes the unnesting rewrites expressible.

Every node supports:

* ``evaluate(env)`` — direct host-language semantics (the oracle);
* ``free_vars()`` — free variable set, respecting binders;
* ``substitute(mapping)`` — capture-avoiding substitution (binders
  shadow);
* generic traversal via :func:`walk` / :func:`transform`.

Nodes are immutable; transformations build new trees.
"""

from __future__ import annotations

import dataclasses
import functools
import keyword
import math
import operator
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Mapping

from repro.algebra.fold import FoldAlgebra, product_algebra
from repro.core.databag import DataBag
from repro.errors import ComprehensionError


class Env:
    """A chained evaluation environment (innermost scope first)."""

    __slots__ = ("_scopes",)

    def __init__(self, *scopes: Mapping[str, Any]) -> None:
        self._scopes: tuple[Mapping[str, Any], ...] = scopes or ({},)

    def lookup(self, name: str) -> Any:
        """Resolve ``name`` in the innermost scope that binds it."""
        for scope in self._scopes:
            if name in scope:
                return scope[name]
        raise ComprehensionError(f"unbound variable {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def child(self, bindings: Mapping[str, Any]) -> "Env":
        """A new environment with ``bindings`` as the innermost scope."""
        return Env(bindings, *self._scopes)

    @staticmethod
    def of(mapping: Mapping[str, Any] | "Env" | None) -> "Env":
        if mapping is None:
            return Env({})
        if isinstance(mapping, Env):
            return mapping
        return Env(mapping)


@dataclass(frozen=True)
class Expr:
    """Base class for all IR expression nodes."""

    # -- generic structure --------------------------------------------

    def children(self) -> Iterator["Expr"]:
        """Yield direct sub-expressions (generic, field-driven)."""
        for value in self._field_values():
            yield from _exprs_in(value)

    def _field_values(self) -> Iterator[Any]:
        for f in fields(self):
            yield getattr(self, f.name)

    def rebuild(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild this node with ``fn`` applied to each direct child."""
        changes: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            new_value = _map_exprs(value, fn)
            if new_value is not value:
                changes[f.name] = new_value
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    # -- binding structure ---------------------------------------------

    def bound_vars(self) -> frozenset[str]:
        """Variables this node binds in (some of) its children."""
        return frozenset()

    def free_vars(self) -> frozenset[str]:
        """Free variables of this expression."""
        inner: frozenset[str] = frozenset()
        for child in self.children():
            inner |= child.free_vars()
        return inner - self.bound_vars()

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Capture-avoiding substitution of free references.

        Bound names shadow: entries of ``mapping`` whose key this node
        binds are not propagated into the children.
        """
        live = {
            k: v for k, v in mapping.items() if k not in self.bound_vars()
        }
        if not live:
            return self
        return self.rebuild(lambda c: c.substitute(live))

    # -- semantics -------------------------------------------------------

    def evaluate(self, env: Env) -> Any:
        """Evaluate with host-language semantics against ``env``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement evaluate"
        )

    def is_bag_typed(self) -> bool:
        """Whether this expression denotes a DataBag value."""
        return False


def _exprs_in(value: Any) -> Iterator[Expr]:
    if isinstance(value, Expr):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _exprs_in(item)
    elif isinstance(value, AlgebraSpec):
        for item in value.args:
            yield from _exprs_in(item)


def _map_exprs(value: Any, fn: Callable[[Expr], Expr]) -> Any:
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, tuple):
        mapped = tuple(_map_exprs(item, fn) for item in value)
        return mapped if any(
            m is not o for m, o in zip(mapped, value)
        ) else value
    if isinstance(value, AlgebraSpec):
        new_args = tuple(_map_exprs(a, fn) for a in value.args)
        if all(n is o for n, o in zip(new_args, value.args)):
            return value
        return dataclasses.replace(value, args=new_args)
    return value


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all nodes below it, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def transform(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up transformation: apply ``fn`` to every rebuilt node."""
    rebuilt = expr.rebuild(lambda c: transform(c, fn))
    return fn(rebuilt)


def free_vars(expr: Expr) -> frozenset[str]:
    """Module-level alias for :meth:`Expr.free_vars`."""
    return expr.free_vars()


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Module-level alias for :meth:`Expr.substitute`."""
    return expr.substitute(mapping)


def evaluate(expr: Expr, env: Mapping[str, Any] | Env | None = None) -> Any:
    """Evaluate with host-language semantics against ``env``."""
    return expr.evaluate(Env.of(env))


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const(Expr):
    """A literal or an opaque host value (including host callables)."""

    value: Any

    def evaluate(self, env: Env) -> Any:
        return self.value

    def __repr__(self) -> str:
        name = getattr(self.value, "__name__", None)
        return f"Const({name or self.value!r})"


@dataclass(frozen=True)
class Ref(Expr):
    """A variable reference, resolved in the environment."""

    name: str

    def free_vars(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def evaluate(self, env: Env) -> Any:
        return env.lookup(self.name)


@dataclass(frozen=True)
class Attr(Expr):
    """Attribute access ``obj.name``."""

    obj: Expr
    name: str

    def evaluate(self, env: Env) -> Any:
        return getattr(self.obj.evaluate(env), self.name)


@dataclass(frozen=True)
class Index(Expr):
    """Subscript access ``obj[index]``."""

    obj: Expr
    index: Expr

    def evaluate(self, env: Env) -> Any:
        return self.obj.evaluate(env)[self.index.evaluate(env)]


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Tuple construction ``(a, b, ...)``."""

    items: tuple[Expr, ...]

    def evaluate(self, env: Env) -> tuple:
        return tuple(item.evaluate(env) for item in self.items)


@dataclass(frozen=True)
class ListExpr(Expr):
    """List construction ``[a, b, ...]``."""

    items: tuple[Expr, ...]

    def evaluate(self, env: Env) -> list:
        return [item.evaluate(env) for item in self.items]


_BIN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "**": operator.pow,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda a, b: a in b,
    "not in": lambda a, b: a not in b,
}


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic binary operation."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> Any:
        return _BIN_OPS[self.op](
            self.left.evaluate(env), self.right.evaluate(env)
        )


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation: ``-x`` or ``not x``."""

    op: str
    operand: Expr

    def evaluate(self, env: Env) -> Any:
        value = self.operand.evaluate(env)
        if self.op == "-":
            return -value
        if self.op == "not":
            return not value
        raise ComprehensionError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison ``left <op> right``."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> bool:
        return _CMP_OPS[self.op](
            self.left.evaluate(env), self.right.evaluate(env)
        )


@dataclass(frozen=True)
class BoolOp(Expr):
    """Short-circuiting ``and`` / ``or`` over two or more operands."""

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]

    def evaluate(self, env: Env) -> Any:
        if self.op == "and":
            result: Any = True
            for part in self.operands:
                result = part.evaluate(env)
                if not result:
                    return result
            return result
        if self.op == "or":
            result = False
            for part in self.operands:
                result = part.evaluate(env)
                if result:
                    return result
            return result
        raise ComprehensionError(f"unknown boolean operator {self.op!r}")


@dataclass(frozen=True)
class IfElse(Expr):
    """Conditional expression ``then if cond else orelse``."""

    cond: Expr
    then: Expr
    orelse: Expr

    def evaluate(self, env: Env) -> Any:
        if self.cond.evaluate(env):
            return self.then.evaluate(env)
        return self.orelse.evaluate(env)


@dataclass(frozen=True)
class Call(Expr):
    """A call of a host function/constructor: ``func(*args, **kwargs)``."""

    func: Expr
    args: tuple[Expr, ...] = ()
    kwargs: tuple[tuple[str, Expr], ...] = ()

    def evaluate(self, env: Env) -> Any:
        fn = self.func.evaluate(env)
        args = [a.evaluate(env) for a in self.args]
        kwargs: dict[str, Any] = {}
        for k, v in self.kwargs:
            if k == "**":
                # A lifted ``**mapping`` expansion: splice the mapping
                # in place, preserving Python's call-site ordering.
                kwargs.update(v.evaluate(env))
            else:
                kwargs[k] = v.evaluate(env)
        return fn(*args, **kwargs)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A variant of ``base`` not occurring in ``avoid``."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


@dataclass(frozen=True)
class Lambda(Expr):
    """An anonymous function with lifted body."""

    params: tuple[str, ...]
    body: Expr

    def bound_vars(self) -> frozenset[str]:
        return frozenset(self.params)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        live = {k: v for k, v in mapping.items() if k not in self.params}
        if not live:
            return self
        # Alpha-rename any parameter that a substituted value would
        # capture.
        incoming: frozenset[str] = frozenset()
        for value in live.values():
            incoming |= value.free_vars()
        params, body = self.params, self.body
        if incoming & frozenset(params):
            renames: dict[str, Expr] = {}
            new_params: list[str] = []
            taken = set(incoming) | set(params) | body.free_vars()
            for p in params:
                if p in incoming:
                    new_p = fresh_name(p, taken)
                    taken.add(new_p)
                    renames[p] = Ref(new_p)
                    new_params.append(new_p)
                else:
                    new_params.append(p)
            body = body.substitute(renames)
            params = tuple(new_params)
        return Lambda(params, body.substitute(live))

    def evaluate(self, env: Env) -> Callable:
        params, body = self.params, self.body

        def closure(*values: Any) -> Any:
            if len(values) != len(params):
                raise ComprehensionError(
                    f"lambda expects {len(params)} arguments, "
                    f"got {len(values)}"
                )
            return body.evaluate(env.child(dict(zip(params, values))))

        return closure


# ---------------------------------------------------------------------------
# Native compilation of expressions
#
# The tree-walking ``evaluate`` above is the semantic oracle, but it is
# far too slow for the per-element hot path of the simulated engines: a
# UDF applied to a million records re-walks its AST a million times.
# ``NativeCodegen`` is the second interpretation of the same IR: it
# renders an expression as Python source, which ``compile_scalar`` (one
# UDF) and the chain kernel builder (a whole chain plus its fold sink)
# ``compile()`` into plain functions, so the hot path runs at host
# speed.  The subset covers the scalar nodes, comprehensions over
# ``NORMAL`` generators (a generator expression; a fold kind feeds it to
# the alias's reduction loop from ``FOLD_TEMPLATES``) and, through
# :class:`FoldSource`, fold algebras.  Anything else — a bag operator
# call, an ``EXISTS``-mode generator, a free name that cannot be
# resolved eagerly — raises :class:`NotCompilable` with the reason, and
# the caller keeps the interpreting closure; semantics are identical
# either way.
# ---------------------------------------------------------------------------


class NotCompilable(Exception):
    """An expression outside the natively compilable subset.

    The message is the human-readable reason; it travels on
    ``Udf.fallback`` into traces and ``explain()``.
    """


#: operators whose IR spelling is also their Python spelling
_PY_BIN = frozenset(_BIN_OPS)
_PY_CMP = frozenset(_CMP_OPS)
_CONST_PREFIX = "_cv"


def _is_plain_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


def _check_params(params: tuple[str, ...]) -> None:
    """Parameters must be plain names outside the ``_cv`` namespace."""
    for p in params:
        if not _is_plain_name(p) or p.startswith(_CONST_PREFIX):
            raise NotCompilable(f"parameter name {p!r} is not usable")


class NativeCodegen:
    """Renders ``Expr`` trees as Python source fragments.

    Host values (constants, resolved free names) are interned into
    ``globals_`` — the namespace the generated code is compiled
    against.  One codegen instance may serve several expressions (the
    chain kernel builder relies on this to share one namespace), so
    interned constants get collision-free ``_cv<N>`` names and free
    names are checked for conflicting bindings.  Everything else the
    emitter introduces — runtime helpers, comprehension variables —
    lives under the same ``_cv`` prefix, which no free name or
    parameter may carry.
    """

    def __init__(self) -> None:
        self.globals_: dict[str, Any] = {}
        self._const_names: dict[int, str] = {}
        self._locals = 0

    # -- host-value interning ---------------------------------------------

    def intern_const(self, value: Any) -> str:
        """Expose a host constant under a fresh ``_cv{N}`` global name."""
        name = self._const_names.get(id(value))
        if name is None:
            name = f"{_CONST_PREFIX}{len(self._const_names)}"
            self._const_names[id(value)] = name
            self.globals_[name] = value
        return name

    def helper(self, name: str, value: Any) -> str:
        """Expose a runtime helper of the emitter as ``_cv_{name}``."""
        name = f"{_CONST_PREFIX}_{name}"
        self.globals_[name] = value
        return name

    def fresh_local(self) -> str:
        """A variable name for generated code to bind (``_cvq{N}``)."""
        self._locals += 1
        return f"{_CONST_PREFIX}q{self._locals}"

    def fold_source(self, alias: str, args: tuple[str, ...]) -> "FoldSource":
        """The alias's source templates over argument sources ``args``,
        with the helpers they call bound into the namespace."""
        self.globals_.update(_FOLD_HELPERS)
        return FoldSource(alias, args)

    def bind_free(self, name: str, value: Any) -> None:
        """Bind a free name into the namespace; reject conflicts."""
        if not _is_plain_name(name) or name.startswith(_CONST_PREFIX):
            raise NotCompilable(f"free name {name!r} is not usable")
        if name in self.globals_ and self.globals_[name] is not value:
            raise NotCompilable(f"conflicting binding for {name!r}")
        self.globals_[name] = value

    # -- source emission --------------------------------------------------

    def emit(self, expr: Expr, bound: Mapping[str, str], resolve) -> str:
        """Python source for ``expr``.

        ``bound`` maps bound variable names to the local names they
        carry in the generated code; ``resolve(name)`` supplies the
        value of a free name (raising ``KeyError``/``ComprehensionError``
        when unbound aborts compilation).
        """
        if isinstance(expr, Const):
            value = expr.value
            # Literal-render the common immutable scalars (non-finite
            # floats have no literal spelling); intern the rest.
            if value is None or isinstance(value, (bool, int, str)):
                return repr(value)
            if isinstance(value, float) and math.isfinite(value):
                return repr(value)
            return self.intern_const(value)
        if isinstance(expr, Ref):
            target = bound.get(expr.name)
            if target is not None:
                return target
            try:
                value = resolve(expr.name)
            except (KeyError, ComprehensionError):
                raise NotCompilable(f"unbound name {expr.name!r}")
            self.bind_free(expr.name, value)
            return expr.name
        if isinstance(expr, Attr):
            if not _is_plain_name(expr.name):
                raise NotCompilable(f"attribute name {expr.name!r}")
            return f"({self.emit(expr.obj, bound, resolve)}).{expr.name}"
        if isinstance(expr, Index):
            obj = self.emit(expr.obj, bound, resolve)
            index = self.emit(expr.index, bound, resolve)
            return f"({obj})[{index}]"
        if isinstance(expr, TupleExpr):
            items = [self.emit(i, bound, resolve) for i in expr.items]
            inner = ", ".join(items) + ("," if len(items) == 1 else "")
            return f"({inner})"
        if isinstance(expr, ListExpr):
            items = [self.emit(i, bound, resolve) for i in expr.items]
            return f"[{', '.join(items)}]"
        if isinstance(expr, BinOp):
            if expr.op not in _PY_BIN:
                raise NotCompilable(f"operator {expr.op!r}")
            left = self.emit(expr.left, bound, resolve)
            right = self.emit(expr.right, bound, resolve)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, UnaryOp):
            if expr.op not in ("-", "not"):
                raise NotCompilable(f"operator {expr.op!r}")
            operand = self.emit(expr.operand, bound, resolve)
            return f"({expr.op} {operand})"
        if isinstance(expr, Compare):
            if expr.op not in _PY_CMP:
                raise NotCompilable(f"operator {expr.op!r}")
            left = self.emit(expr.left, bound, resolve)
            right = self.emit(expr.right, bound, resolve)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, BoolOp):
            if expr.op not in ("and", "or") or not expr.operands:
                raise NotCompilable(f"operator {expr.op!r}")
            parts = [
                self.emit(p, bound, resolve) for p in expr.operands
            ]
            return f"({f' {expr.op} '.join(parts)})"
        if isinstance(expr, IfElse):
            then = self.emit(expr.then, bound, resolve)
            cond = self.emit(expr.cond, bound, resolve)
            orelse = self.emit(expr.orelse, bound, resolve)
            return f"({then} if {cond} else {orelse})"
        if isinstance(expr, Call):
            func = self.emit(expr.func, bound, resolve)
            parts = [self.emit(a, bound, resolve) for a in expr.args]
            for k, v in expr.kwargs:
                if not _is_plain_name(k):
                    raise NotCompilable(f"keyword argument {k!r}")
                parts.append(f"{k}={self.emit(v, bound, resolve)}")
            return f"({func})({', '.join(parts)})"
        if isinstance(expr, Lambda):
            _check_params(expr.params)
            inner = dict(bound)
            inner.update({p: p for p in expr.params})
            body = self.emit(expr.body, inner, resolve)
            return f"(lambda {', '.join(expr.params)}: {body})"
        # Node types defined downstream of this module (comprehensions)
        # bring their own case.
        emit_native = getattr(expr, "emit_native", None)
        if emit_native is None:
            raise NotCompilable(
                f"{type(expr).__name__} is outside the compilable subset"
            )
        return emit_native(self, bound, resolve)


def _emit_scalar(
    params: tuple[str, ...], body: Expr, lookup: Callable[[str], Any]
) -> tuple[str, dict[str, Any]]:
    """(body source, namespace) of ``lambda params: body``."""
    _check_params(params)
    codegen = NativeCodegen()
    src = codegen.emit(body, {p: p for p in params}, lookup)
    return src, codegen.globals_


def compile_scalar(
    params: tuple[str, ...],
    body: Expr,
    env: "Env | Mapping[str, Any] | None",
) -> Callable | None:
    """Compile ``lambda params: body`` into a plain Python function.

    Free names are resolved *eagerly* from ``env`` and closed over via
    the compiled function's globals.  Returns ``None`` when the body
    falls outside the compilable subset or a free name is unbound — the
    caller keeps the interpreting closure in that case
    (:func:`fallback_reason` says why).
    """
    try:
        src, namespace = _emit_scalar(params, body, Env.of(env).lookup)
    except NotCompilable:
        return None
    return compile_scalar_source(params, src, namespace)


#: stands for the value of every free name when no environment is given
_ANY_VALUE = object()


def fallback_reason(
    params: tuple[str, ...],
    body: Expr,
    env: "Env | Mapping[str, Any] | None" = None,
) -> str | None:
    """Why ``lambda params: body`` is interpreted; ``None`` if it compiles.

    Without an ``env`` every free name counts as bound: the static
    answer ``explain()`` prints before anything has run.
    """
    lookup = (
        Env.of(env).lookup if env is not None else lambda name: _ANY_VALUE
    )
    try:
        _emit_scalar(params, body, lookup)
    except NotCompilable as exc:
        return str(exc)
    return None


def compile_scalar_source(
    params: tuple[str, ...], body_src: str, namespace: dict[str, Any]
) -> Callable:
    """``compile()`` an already-rendered body over ``namespace``."""
    source = f"lambda {', '.join(params)}: {body_src}"
    code = compile(source, "<scalarfn>", "eval")
    return eval(code, namespace)  # noqa: S307 - compiler-generated source


# ---------------------------------------------------------------------------
# Fold algebra specifications
# ---------------------------------------------------------------------------


def _as_zero_factory(value: Any) -> Callable[[], Any]:
    """Interpret a fold zero argument: 0-ary callables act as factories."""
    if callable(value):
        return value
    return lambda: value


def _build_fold(zero: Any, sng: Callable, uni: Callable) -> FoldAlgebra:
    return FoldAlgebra(
        zero=_as_zero_factory(zero), singleton=sng, union=uni, name="fold"
    )


#: alias name -> (argument count, algebra builder over evaluated args)
FOLD_ALIASES: dict[str, tuple[int, Callable[..., FoldAlgebra]]] = {
    "fold": (3, _build_fold),
    "sum": (
        0,
        lambda: FoldAlgebra(
            lambda: 0, lambda x: x, lambda a, b: a + b, name="sum"
        ),
    ),
    "product": (
        0,
        lambda: FoldAlgebra(
            lambda: 1, lambda x: x, lambda a, b: a * b, name="product"
        ),
    ),
    "count": (
        0,
        lambda: FoldAlgebra(
            lambda: 0, lambda _x: 1, lambda a, b: a + b, name="count"
        ),
    ),
    "is_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: True,
            lambda _x: False,
            lambda a, b: a and b,
            name="is_empty",
        ),
    ),
    "non_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: False,
            lambda _x: True,
            lambda a, b: a or b,
            name="non_empty",
        ),
    ),
    "min": (
        0,
        lambda: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: b if a is None else a if b is None else min(a, b),
            name="min",
        ),
    ),
    "max": (
        0,
        lambda: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: b if a is None else a if b is None else max(a, b),
            name="max",
        ),
    ),
    "exists": (
        1,
        lambda p: FoldAlgebra(
            lambda: False,
            lambda x: bool(p(x)),
            lambda a, b: a or b,
            name="exists",
        ),
    ),
    "forall": (
        1,
        lambda p: FoldAlgebra(
            lambda: True,
            lambda x: bool(p(x)),
            lambda a, b: a and b,
            name="forall",
        ),
    ),
    "min_by": (
        1,
        lambda key: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: (
                b
                if a is None
                else a
                if b is None
                else (a if key(a) <= key(b) else b)
            ),
            name="min_by",
        ),
    ),
    "max_by": (
        1,
        lambda key: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: (
                b
                if a is None
                else a
                if b is None
                else (a if key(a) >= key(b) else b)
            ),
            name="max_by",
        ),
    ),
}


#: option-monoid union: ``None`` is the zero, ``{pick}`` chooses otherwise
_OPTION = "({b} if {a} is None else {a} if {b} is None else {pick})"

#: alias name -> (zero, singleton, union) as *source templates* — what
#: the code generators inline where the interpreter calls the
#: ``FOLD_ALIASES`` algebra, entry for entry the same functions.
#: ``{x}`` is the element, ``{a}``/``{b}`` the union's operands, and
#: ``{a0}``.. the alias's evaluated arguments; helpers are spelled
#: ``_cv_*`` (see ``_FOLD_HELPERS``) so no user binding can shadow them.
FOLD_TEMPLATES: dict[str, tuple[str, str, str]] = {
    "fold": ("_cv_zero({a0})()", "{a1}({x})", "{a2}({a}, {b})"),
    "sum": ("0", "{x}", "({a} + {b})"),
    "product": ("1", "{x}", "({a} * {b})"),
    "count": ("0", "1", "({a} + {b})"),
    "is_empty": ("True", "False", "({a} and {b})"),
    "non_empty": ("False", "True", "({a} or {b})"),
    "min": ("None", "{x}", _OPTION.replace("{pick}", "_cv_min({a}, {b})")),
    "max": ("None", "{x}", _OPTION.replace("{pick}", "_cv_max({a}, {b})")),
    "exists": ("False", "_cv_bool({a0}({x}))", "({a} or {b})"),
    "forall": ("True", "_cv_bool({a0}({x}))", "({a} and {b})"),
    "min_by": (
        "None",
        "{x}",
        _OPTION.replace("{pick}", "({a} if {a0}({a}) <= {a0}({b}) else {b})"),
    ),
    "max_by": (
        "None",
        "{x}",
        _OPTION.replace("{pick}", "({a} if {a0}({a}) >= {a0}({b}) else {b})"),
    ),
}

_FOLD_HELPERS: dict[str, Any] = {
    "_cv_zero": _as_zero_factory,
    "_cv_min": min,
    "_cv_max": max,
    "_cv_bool": bool,
}


@dataclass(frozen=True)
class FoldSource:
    """One fold alias as source fragments over its argument sources.

    ``args`` and every operand handed to :meth:`union` are substituted
    textually, possibly more than once (:attr:`repeats_operands`), so
    they must be names or literals whenever that is the case.  Obtain
    one through :meth:`NativeCodegen.fold_source`, which also binds the
    helpers the templates call.
    """

    alias: str
    args: tuple[str, ...] = ()

    def _render(self, part: int, **operands: str) -> str:
        named = {f"a{i}": arg for i, arg in enumerate(self.args)}
        return FOLD_TEMPLATES[self.alias][part].format(**named, **operands)

    @property
    def zero(self) -> str:
        """Source of ``zero()``."""
        return self._render(0)

    def singleton(self, x: str) -> str:
        """Source of ``singleton(x)``; ``x`` is evaluated exactly once
        even by an alias that ignores its element (``count``)."""
        src = self._render(1, x=x)
        if "{x}" in FOLD_TEMPLATES[self.alias][1] or x.isidentifier():
            return src
        return f"({x}, {src})[1]"

    def union(self, a: str, b: str) -> str:
        """Source of ``union(a, b)``."""
        return self._render(2, a=a, b=b)

    @property
    def repeats_operands(self) -> bool:
        """Whether :meth:`union` mentions an operand more than once."""
        union = FOLD_TEMPLATES[self.alias][2]
        return union.count("{a}") > 1 or union.count("{b}") > 1


@functools.cache
def fold_reducer(alias: str) -> Callable:
    """``reduce(items, *args)``: the alias's fold as one plain loop.

    Equals ``FOLD_ALIASES[alias][1](*args)(items)`` — zero, then
    ``union(acc, singleton(x))`` left to right — generated from
    :data:`FOLD_TEMPLATES`; what a compiled fold comprehension calls.
    """
    params = tuple(f"_a{i}" for i in range(FOLD_ALIASES[alias][0]))
    fold = FoldSource(alias, params)
    source = (
        f"def _reduce({', '.join(('_items', *params))}):\n"
        f"    _a = {fold.zero}\n"
        f"    for _x in _items:\n"
        f"        _b = {fold.singleton('_x')}\n"
        f"        _a = {fold.union('_a', '_b')}\n"
        f"    return _a\n"
    )
    namespace = dict(_FOLD_HELPERS)
    exec(compile(source, f"<fold-{alias}>", "exec"), namespace)  # noqa: S102
    return namespace["_reduce"]


@dataclass(frozen=True)
class AlgebraSpec:
    """A symbolic fold algebra: an alias name plus lifted arguments.

    ``alias`` selects an entry of :data:`FOLD_ALIASES`; ``args`` are the
    lifted argument expressions (e.g. the key function of a ``min_by``).
    The concrete :class:`FoldAlgebra` is produced at execution time via
    :meth:`make_algebra`, after the arguments are evaluated in scope —
    compile-time rewrites (banana split) never need the concrete
    functions, only the spec.

    ``head`` and ``guards``, when present, record a map/filter pipeline
    fused *into* the fold by normalization: the effective singleton
    becomes ``s(head(x)) if all guards else zero`` — legal because the
    well-definedness equations make the zero a unit.
    """

    alias: str
    args: tuple[Expr, ...] = ()
    head: Expr | None = None
    guards: tuple[Expr, ...] = ()
    var: str | None = None

    def __post_init__(self) -> None:
        if self.alias not in FOLD_ALIASES:
            raise ComprehensionError(f"unknown fold alias {self.alias!r}")
        arity = FOLD_ALIASES[self.alias][0]
        if len(self.args) != arity:
            raise ComprehensionError(
                f"fold alias {self.alias!r} expects {arity} arguments, "
                f"got {len(self.args)}"
            )

    @property
    def name(self) -> str:
        return self.alias

    def free_vars(self) -> frozenset[str]:
        """Free variables of the argument and fused-pipeline exprs."""
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_vars()
        bound = frozenset((self.var,)) if self.var else frozenset()
        if self.head is not None:
            out |= self.head.free_vars() - bound
        for g in self.guards:
            out |= g.free_vars() - bound
        return out

    def substitute(self, mapping: Mapping[str, Expr]) -> "AlgebraSpec":
        """Substitute free references (the fused var shadows)."""
        live_inner = {
            k: v for k, v in mapping.items() if k != self.var
        }
        return dataclasses.replace(
            self,
            args=tuple(a.substitute(mapping) for a in self.args),
            head=(
                self.head.substitute(live_inner)
                if self.head is not None
                else None
            ),
            guards=tuple(g.substitute(live_inner) for g in self.guards),
        )

    def components(self) -> Iterator[tuple[tuple[str, ...], Expr]]:
        """The lifted ``(params, body)`` pieces of this algebra — its
        arguments, fused head and guards: what compiles, or falls back,
        piece by piece."""
        for arg in self.args:
            yield (), arg
        x = (self.var or "_x",)
        if self.head is not None:
            yield x, self.head
        for guard in self.guards:
            yield x, guard

    def make_algebra(self, env: Env) -> FoldAlgebra:
        """Evaluate the spec into a concrete :class:`FoldAlgebra`."""
        _arity, builder = FOLD_ALIASES[self.alias]
        base = builder(*(a.evaluate(env) for a in self.args))
        if self.head is None and not self.guards:
            return base
        var = self.var or "_x"
        head, guards = self.head, self.guards

        def singleton(x: Any) -> Any:
            inner = env.child({var: x})
            if any(not g.evaluate(inner) for g in guards):
                return base.zero()
            value = head.evaluate(inner) if head is not None else x
            return base.singleton(value)

        return FoldAlgebra(
            zero=base.zero,
            singleton=singleton,
            union=base.union,
            name=base.name,
        )

    def fused_with(
        self, var: str, head: Expr | None, guards: tuple[Expr, ...]
    ) -> "AlgebraSpec":
        """Record a comprehension body fused into this fold's singleton."""
        if self.head is not None or self.guards:
            raise ComprehensionError(
                "algebra spec already carries a fused pipeline"
            )
        return dataclasses.replace(
            self, var=var, head=head, guards=guards
        )


def make_product_spec_algebra(
    specs: tuple[AlgebraSpec, ...], env: Env
) -> FoldAlgebra:
    """Banana-split at runtime: product of the specs' concrete algebras."""
    return product_algebra([spec.make_algebra(env) for spec in specs])


# ---------------------------------------------------------------------------
# Bag operator calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BagExpr(Expr):
    """Marker base for expressions that denote a DataBag value."""

    def is_bag_typed(self) -> bool:
        return True


def _as_databag(value: Any, context: str) -> DataBag:
    if isinstance(value, DataBag):
        return value
    if isinstance(value, (list, tuple, set, range)):
        return DataBag(value)
    raise ComprehensionError(
        f"{context} expects a DataBag, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class MapCall(BagExpr):
    """``source.map(fn)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "map")
        return bag.map(self.fn.evaluate(env))


@dataclass(frozen=True)
class FlatMapCall(BagExpr):
    """``source.flat_map(fn)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "flat_map")
        return bag.flat_map(self.fn.evaluate(env))


@dataclass(frozen=True)
class FilterCall(BagExpr):
    """``source.with_filter(p)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "with_filter")
        return bag.with_filter(self.fn.evaluate(env))


@dataclass(frozen=True)
class GroupByCall(BagExpr):
    """``source.group_by(key)``."""

    source: Expr
    key: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "group_by")
        return bag.group_by(self.key.evaluate(env))


@dataclass(frozen=True)
class AggByCall(BagExpr):
    """``source.agg_by(key, spec_1, ..., spec_n)`` — the fused operator.

    Produced by fold-group fusion (never written by users): replaces a
    ``group_by`` whose group values are consumed exclusively by folds.
    Emits one ``AggResult(key, (a_1, ..., a_n))`` record per distinct
    key; on a parallel engine the aggregates are pre-computed on the
    mapper side so only partial aggregates cross the network.
    """

    source: Expr
    key: Lambda = None  # type: ignore[assignment]
    specs: tuple[AlgebraSpec, ...] = ()

    def free_vars(self) -> frozenset[str]:
        out = self.source.free_vars() | self.key.free_vars()
        for spec in self.specs:
            out |= spec.free_vars()
        return out

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        return AggByCall(
            source=self.source.substitute(mapping),
            key=self.key.substitute(mapping),  # type: ignore[arg-type]
            specs=tuple(s.substitute(mapping) for s in self.specs),
        )

    def evaluate(self, env: Env) -> DataBag:
        from repro.lowering.combinators import AggResult

        bag = _as_databag(self.source.evaluate(env), "agg_by")
        key_fn = self.key.evaluate(env)
        algebras = [spec.make_algebra(env) for spec in self.specs]
        acc: dict[Any, list[Any]] = {}
        for x in bag:
            k = key_fn(x)
            entry = acc.get(k)
            if entry is None:
                acc[k] = [
                    a.union(a.zero(), a.singleton(x)) for a in algebras
                ]
            else:
                for i, a in enumerate(algebras):
                    entry[i] = a.union(entry[i], a.singleton(x))
        return DataBag(
            AggResult(k, tuple(v)) for k, v in acc.items()
        )


@dataclass(frozen=True)
class FoldCall(Expr):
    """``source.fold(...)`` or any fold alias (``sum``, ``count``, ...).

    Scalar-typed: evaluates to the fold result, not a bag.
    """

    source: Expr
    spec: AlgebraSpec

    def free_vars(self) -> frozenset[str]:
        return self.source.free_vars() | self.spec.free_vars()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return FoldCall(
            source=self.source.substitute(mapping),
            spec=self.spec.substitute(mapping),
        )

    def evaluate(self, env: Env) -> Any:
        bag = _as_databag(self.source.evaluate(env), self.spec.alias)
        return bag.fold_algebra(self.spec.make_algebra(env))


@dataclass(frozen=True)
class PlusCall(BagExpr):
    """Bag union ``left.plus(right)``."""

    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.left.evaluate(env), "plus").plus(
            _as_databag(self.right.evaluate(env), "plus")
        )


@dataclass(frozen=True)
class MinusCall(BagExpr):
    """Bag difference ``left.minus(right)``."""

    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.left.evaluate(env), "minus").minus(
            _as_databag(self.right.evaluate(env), "minus")
        )


@dataclass(frozen=True)
class DistinctCall(BagExpr):
    """Duplicate elimination ``source.distinct()``."""

    source: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.source.evaluate(env), "distinct").distinct()


@dataclass(frozen=True)
class ReadCall(BagExpr):
    """``emma.read(path, fmt)`` — a dataflow source."""

    path: Expr
    fmt: Expr

    def evaluate(self, env: Env) -> DataBag:
        from repro.core.io import (
            CsvFormat,
            JsonLinesFormat,
            read_csv,
            read_jsonl,
        )

        path = self.path.evaluate(env)
        # Local-mode runs resolve reads against the engine's simulated
        # DFS when the path is staged there (the driver interpreter
        # installs it under ``__dfs__``); real files otherwise.
        if "__dfs__" in env:
            dfs = env.lookup("__dfs__")
            if dfs.exists(path):
                return DataBag(dfs.get(path).records)
        fmt = self.fmt.evaluate(env)
        if isinstance(fmt, CsvFormat):
            return read_csv(path, fmt)
        if isinstance(fmt, JsonLinesFormat):
            return read_jsonl(path, fmt)
        raise ComprehensionError(
            f"unsupported input format {type(fmt).__name__}"
        )


@dataclass(frozen=True)
class WriteCall(Expr):
    """``emma.write(path, fmt, bag)`` — a dataflow sink (evaluates to None)."""

    path: Expr
    fmt: Expr
    source: Expr

    def evaluate(self, env: Env) -> None:
        from repro.core.io import (
            CsvFormat,
            JsonLinesFormat,
            write_csv,
            write_jsonl,
        )

        path = self.path.evaluate(env)
        bag = _as_databag(self.source.evaluate(env), "write")
        # Local-mode runs write to the engine's simulated DFS when one
        # is installed (see ReadCall), keeping all backends comparable.
        if "__dfs__" in env:
            env.lookup("__dfs__").put(path, bag.fetch())
            return
        fmt = self.fmt.evaluate(env)
        if isinstance(fmt, CsvFormat):
            write_csv(path, fmt, bag)
        elif isinstance(fmt, JsonLinesFormat):
            write_jsonl(path, fmt, bag)
        else:
            raise ComprehensionError(
                f"unsupported output format {type(fmt).__name__}"
            )


@dataclass(frozen=True)
class BagLiteral(BagExpr):
    """``DataBag(seq)`` — lift a driver sequence into a bag.

    This is the "driver to dataflow" edge of Figure 3b: on a parallel
    engine it becomes a ``parallelize`` of local data.
    """

    seq: Expr

    def evaluate(self, env: Env) -> DataBag:
        value = self.seq.evaluate(env)
        if isinstance(value, DataBag):
            return value
        return DataBag(value)


@dataclass(frozen=True)
class FetchCall(Expr):
    """``bag.fetch()`` — materialize on the driver (collect)."""

    source: Expr

    def evaluate(self, env: Env) -> list:
        return _as_databag(self.source.evaluate(env), "fetch").fetch()


# ---------------------------------------------------------------------------
# Stateful bags (paper §3.1, "Stateful Bags")
#
# Stateful conversion and point-wise updates are runtime primitives, not
# comprehended dataflows — the paper makes the DataBag <-> StatefulBag
# conversion explicit precisely so the compiler does not have to reason
# about in-place mutation.  The nodes below give them direct local
# semantics via repro.core.stateful; the parallel driver interpreter
# handles them with engine-level keyed state.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatefulCreate(Expr):
    """``stateful(bag)`` — convert a DataBag into keyed state."""

    source: Expr
    key: Expr | None = None

    def evaluate(self, env: Env) -> Any:
        from repro.core.stateful import StatefulBag

        bag = _as_databag(self.source.evaluate(env), "stateful")
        key = self.key.evaluate(env) if self.key is not None else None
        return StatefulBag(bag, key=key)


@dataclass(frozen=True)
class StatefulBagOf(BagExpr):
    """``state.bag()`` — a stateless snapshot of the current state."""

    state: Expr

    def evaluate(self, env: Env) -> DataBag:
        return self.state.evaluate(env).bag()


@dataclass(frozen=True)
class StatefulUpdate(Expr):
    """``state.update(u)`` — point-wise update; evaluates to the delta."""

    state: Expr
    update_fn: Expr

    def evaluate(self, env: Env) -> DataBag:
        return self.state.evaluate(env).update(
            self.update_fn.evaluate(env)
        )


@dataclass(frozen=True)
class StatefulUpdateWithMessages(Expr):
    """``state.update_with_messages(msgs, u)`` — keyed-message update."""

    state: Expr
    messages: Expr
    update_fn: Expr

    def evaluate(self, env: Env) -> DataBag:
        from repro.core.stateful import StatefulBag

        state = self.state.evaluate(env)
        messages = self.messages.evaluate(env)
        if isinstance(state, StatefulBag):
            messages = _as_databag(messages, "update_with_messages")
        # Distributed stateful bags accept deferred/handle messages and
        # shuffle them to the state partitions themselves.
        return state.update_with_messages(
            messages, self.update_fn.evaluate(env)
        )
