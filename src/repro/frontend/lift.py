"""Lifting Python functions into driver IR (the ``parallelize`` macro).

This is the Python analogue of Emma's Scala-macro frontend: the
decorated function's *source* is parsed with :mod:`ast` and translated
into :class:`~repro.frontend.driver_ir.DriverProgram` — statements over
lifted IR expressions in which every DataBag operation is a first-class
node.  Generator expressions over bags lift directly into monad
comprehensions (Scala's for-comprehensions never even get this direct
a path — they must be re-sugared from operator chains).

The supported subset covers the data-analysis programs of the paper:
assignments, ``while``/``if``/host-``for`` control flow, arithmetic and
boolean expressions, lambdas, generator/list comprehensions, method
chains on bags, the ``read``/``write``/``stateful``/``DataBag`` intrinsic
calls, and arbitrary *opaque* host calls (record constructors, math
helpers) which are captured from the function's closure and globals.
Anything outside the subset raises :class:`~repro.errors.LiftError`
naming the construct and source line.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable

from repro.algebra.fold import FOLD_ALIASES
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
from repro.comprehension.ir import BAG, Comprehension, Generator, Guard
from repro.core.databag import DataBag
from repro.errors import LiftError
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SExpr,
    SFor,
    SIf,
    SReturn,
    SWhile,
    Stmt,
    assigned_names,
    stmt_exprs,
)

_UNAMBIGUOUS_BAG_METHODS = frozenset(
    {
        "flat_map",
        "with_filter",
        "group_by",
        "fold",
        "min_by",
        "max_by",
        "exists",
        "forall",
        "distinct",
        "plus",
        "minus",
        "fetch",
        "is_empty",
        "non_empty",
    }
)

# These also exist on common host types; they lift to bag operators on
# receivers of known or unknown bag-ness, which in practice means
# "anything that is not a tracked scalar".
_COMMON_BAG_METHODS = frozenset(
    {"map", "filter", "sum", "count", "size", "product", "min", "max"}
)

_STATEFUL_METHODS = frozenset({"bag", "update", "update_with_messages"})

_INTRINSIC_FUNCTIONS = frozenset(
    {"read", "write", "stateful", "DataBag"}
)

_BIN_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
}

_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.In: "in",
    ast.NotIn: "not in",
}


@dataclass
class LiftedFunction:
    """The result of lifting: the driver IR plus the captured host env."""

    program: DriverProgram
    captured: dict[str, Any]
    source: str


def lift_function(
    fn: Callable, bag_params: tuple[str, ...] | None = None
) -> LiftedFunction:
    """Lift a Python function into driver IR.

    Args:
        fn: the function to lift; its source must be available.
        bag_params: names of parameters that carry DataBags.  Parameters
            annotated ``DataBag`` are recognized automatically.
    """
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise LiftError(
            f"cannot read source of {fn!r}; @parallelize needs "
            "source access"
        ) from exc
    tree = ast.parse(source)
    func_defs = [
        node for node in tree.body if isinstance(node, ast.FunctionDef)
    ]
    if len(func_defs) != 1:
        raise LiftError("expected exactly one function definition")
    func = func_defs[0]

    params = tuple(a.arg for a in func.args.args)
    annotated_bags = {
        a.arg
        for a in func.args.args
        if a.annotation is not None and _is_databag_annotation(a.annotation)
    }
    bags = set(bag_params or ()) | annotated_bags

    lifter = _Lifter(initial_bags=bags, initial_stateful=set())
    body = lifter.lift_block(func.body)
    program = DriverProgram(
        name=func.name,
        params=params,
        body=body,
        bag_params=frozenset(bags),
    )
    captured = _capture_environment(fn, program, params)
    return LiftedFunction(program=program, captured=captured, source=source)


def _is_databag_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "DataBag"
    if isinstance(node, ast.Attribute):
        return node.attr == "DataBag"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "DataBag" in node.value
    if isinstance(node, ast.Subscript):
        return _is_databag_annotation(node.value)
    return False


def _capture_environment(
    fn: Callable, program: DriverProgram, params: tuple[str, ...]
) -> dict[str, Any]:
    """Resolve the program's free names from closure, globals, builtins."""
    free: set[str] = set()
    for stmt in program.walk():
        for expr in stmt_exprs(stmt):
            free |= expr.free_vars()
    free -= set().union(*map(assigned_names, program.body))
    free -= set(params)

    closure: dict[str, Any] = {}
    if fn.__closure__:
        closure = dict(
            zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__))
        )
    captured: dict[str, Any] = {}
    missing: list[str] = []
    for name in sorted(free):
        if name in closure:
            captured[name] = closure[name]
        elif name in fn.__globals__:
            captured[name] = fn.__globals__[name]
        elif hasattr(builtins, name):
            captured[name] = getattr(builtins, name)
        else:
            missing.append(name)
    if missing:
        raise LiftError(
            f"unresolved names in parallelized function: {missing}"
        )
    return captured


# ---------------------------------------------------------------------------
# The lifter
# ---------------------------------------------------------------------------


class _Lifter:
    """Stateful lifter tracking bag-typed and stateful-typed names."""

    def __init__(
        self, initial_bags: set[str], initial_stateful: set[str]
    ) -> None:
        self.bag_names: set[str] = set(initial_bags)
        self.stateful_names: set[str] = set(initial_stateful)

    # -- statements --------------------------------------------------------

    def lift_block(self, body: list[ast.stmt]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for node in body:
            lifted = self.lift_stmt(node)
            if lifted is not None:
                out.append(lifted)
        return tuple(out)

    def lift_stmt(self, node: ast.stmt) -> Stmt | None:
        if isinstance(node, ast.Assign):
            return self._lift_assign(node)
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return None
            return self._lift_simple_assign(
                node.target, node.value, node.lineno
            )
        if isinstance(node, ast.AugAssign):
            return self._lift_aug_assign(node)
        if isinstance(node, ast.While):
            if node.orelse:
                raise LiftError(
                    f"line {node.lineno}: while/else is not supported"
                )
            cond = self.lift_expr(node.test)
            body = self.lift_block(node.body)
            return SWhile(cond=cond, body=body, line=node.lineno)
        if isinstance(node, ast.If):
            cond = self.lift_expr(node.test)
            then = self.lift_block(node.body)
            orelse = self.lift_block(node.orelse)
            return SIf(
                cond=cond, then=then, orelse=orelse, line=node.lineno
            )
        if isinstance(node, ast.For):
            if node.orelse:
                raise LiftError(
                    f"line {node.lineno}: for/else is not supported"
                )
            if not isinstance(node.target, ast.Name):
                raise LiftError(
                    f"line {node.lineno}: for-loop target must be a name"
                )
            iterable = self.lift_expr(node.iter)
            if self._is_bag(iterable):
                raise LiftError(
                    f"line {node.lineno}: driver for-loops over DataBags "
                    "are not allowed; use a comprehension instead"
                )
            body = self.lift_block(node.body)
            return SFor(
                var=node.target.id,
                iterable=iterable,
                body=body,
                line=node.lineno,
            )
        if isinstance(node, ast.Return):
            value = (
                self.lift_expr(node.value)
                if node.value is not None
                else None
            )
            return SReturn(value=value, line=node.lineno)
        if isinstance(node, ast.Expr):
            return SExpr(
                value=self.lift_expr(node.value), line=node.lineno
            )
        if isinstance(node, ast.Pass):
            return None
        raise LiftError(
            f"line {node.lineno}: unsupported statement "
            f"{type(node).__name__} in parallelized code"
        )

    def _lift_assign(self, node: ast.Assign) -> Stmt:
        if len(node.targets) != 1:
            raise LiftError(
                f"line {node.lineno}: multiple assignment targets are "
                "not supported"
            )
        return self._lift_simple_assign(
            node.targets[0], node.value, node.lineno
        )

    def _lift_simple_assign(
        self, target: ast.expr, value: ast.expr, line: int
    ) -> Stmt:
        if not isinstance(target, ast.Name):
            raise LiftError(
                f"line {line}: assignment target must be a simple name"
            )
        expr = self.lift_expr(value)
        name = target.id
        is_stateful = isinstance(expr, StatefulCreate)
        is_bag = self._is_bag(expr)
        if is_stateful:
            self.stateful_names.add(name)
            self.bag_names.discard(name)
        elif is_bag:
            self.bag_names.add(name)
            self.stateful_names.discard(name)
        else:
            self.bag_names.discard(name)
            self.stateful_names.discard(name)
        return SAssign(
            name=name,
            value=expr,
            bag_typed=is_bag,
            stateful=is_stateful,
            line=line,
        )

    def _lift_aug_assign(self, node: ast.AugAssign) -> Stmt:
        if not isinstance(node.target, ast.Name):
            raise LiftError(
                f"line {node.lineno}: augmented assignment target must "
                "be a simple name"
            )
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise LiftError(
                f"line {node.lineno}: unsupported augmented operator"
            )
        value = BinOp(
            op, Ref(node.target.id), self.lift_expr(node.value)
        )
        return SAssign(
            name=node.target.id,
            value=value,
            bag_typed=False,
            line=node.lineno,
        )

    # -- expressions ----------------------------------------------------------

    def lift_expr(self, node: ast.expr) -> Expr:
        method = getattr(
            self, f"_lift_{type(node).__name__.lower()}", None
        )
        if method is None:
            raise LiftError(
                f"line {node.lineno}: unsupported expression "
                f"{type(node).__name__} in parallelized code"
            )
        return method(node)

    def _lift_constant(self, node: ast.Constant) -> Expr:
        return Const(node.value)

    def _lift_name(self, node: ast.Name) -> Expr:
        return Ref(node.id)

    def _lift_attribute(self, node: ast.Attribute) -> Expr:
        return Attr(self.lift_expr(node.value), node.attr)

    def _lift_subscript(self, node: ast.Subscript) -> Expr:
        if isinstance(node.slice, (ast.Slice, ast.Tuple)):
            raise LiftError(
                f"line {node.lineno}: slicing is not supported"
            )
        return Index(
            self.lift_expr(node.value), self.lift_expr(node.slice)
        )

    def _lift_tuple(self, node: ast.Tuple) -> Expr:
        return TupleExpr(tuple(self.lift_expr(e) for e in node.elts))

    def _lift_list(self, node: ast.List) -> Expr:
        return ListExpr(tuple(self.lift_expr(e) for e in node.elts))

    def _lift_binop(self, node: ast.BinOp) -> Expr:
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise LiftError(
                f"line {node.lineno}: unsupported binary operator "
                f"{type(node.op).__name__}"
            )
        return BinOp(
            op, self.lift_expr(node.left), self.lift_expr(node.right)
        )

    def _lift_unaryop(self, node: ast.UnaryOp) -> Expr:
        operand = self.lift_expr(node.operand)
        if isinstance(node.op, ast.USub):
            return UnaryOp("-", operand)
        if isinstance(node.op, ast.Not):
            return UnaryOp("not", operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        raise LiftError(
            f"line {node.lineno}: unsupported unary operator"
        )

    def _lift_compare(self, node: ast.Compare) -> Expr:
        parts: list[Expr] = []
        left = self.lift_expr(node.left)
        for op_node, comparator in zip(node.ops, node.comparators):
            op = _CMP_OPS.get(type(op_node))
            if op is None:
                raise LiftError(
                    f"line {node.lineno}: unsupported comparison "
                    f"{type(op_node).__name__}"
                )
            right = self.lift_expr(comparator)
            parts.append(Compare(op, left, right))
            left = right
        if len(parts) == 1:
            return parts[0]
        return BoolOp("and", tuple(parts))

    def _lift_boolop(self, node: ast.BoolOp) -> Expr:
        op = "and" if isinstance(node.op, ast.And) else "or"
        return BoolOp(
            op, tuple(self.lift_expr(v) for v in node.values)
        )

    def _lift_ifexp(self, node: ast.IfExp) -> Expr:
        return IfElse(
            cond=self.lift_expr(node.test),
            then=self.lift_expr(node.body),
            orelse=self.lift_expr(node.orelse),
        )

    def _lift_lambda(self, node: ast.Lambda) -> Expr:
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.defaults:
            raise LiftError(
                f"line {node.lineno}: lambdas must use plain positional "
                "parameters"
            )
        params = tuple(a.arg for a in args.args)
        return Lambda(params, self.lift_expr(node.body))

    def _lift_generatorexp(self, node: ast.GeneratorExp) -> Expr:
        return self._lift_comprehension(node.elt, node.generators, node)

    def _lift_listcomp(self, node: ast.ListComp) -> Expr:
        return self._lift_comprehension(node.elt, node.generators, node)

    def _lift_comprehension(
        self,
        elt: ast.expr,
        generators: list[ast.comprehension],
        node: ast.expr,
    ) -> Expr:
        qualifiers: list[Generator | Guard] = []
        for gen in generators:
            if gen.is_async:
                raise LiftError(
                    f"line {node.lineno}: async comprehensions are not "
                    "supported"
                )
            if not isinstance(gen.target, ast.Name):
                raise LiftError(
                    f"line {node.lineno}: comprehension targets must be "
                    "simple names"
                )
            source = self.lift_expr(gen.iter)
            qualifiers.append(Generator(gen.target.id, source))
            for if_node in gen.ifs:
                qualifiers.append(Guard(self.lift_expr(if_node)))
        head = self.lift_expr(elt)
        return Comprehension(
            head=head, qualifiers=tuple(qualifiers), kind=BAG
        )

    # -- calls ---------------------------------------------------------------

    def _lift_call(self, node: ast.Call) -> Expr:
        func = node.func
        intrinsic = self._intrinsic_name(func)
        if intrinsic is not None:
            return self._lift_intrinsic(intrinsic, node)
        if isinstance(func, ast.Attribute):
            lifted = self._try_lift_method(func, node)
            if lifted is not None:
                return lifted
        # ``**mapping`` expansion lifts as a ``("**", expr)`` kwargs
        # entry; ``Call.evaluate`` splices the mapping at call time.
        # The read/write-set analysis treats a ``**`` over UDF data as
        # its conservative TOP element.
        return Call(
            func=self.lift_expr(func),
            args=tuple(self.lift_expr(a) for a in node.args),
            kwargs=tuple(
                (k.arg if k.arg is not None else "**",
                 self.lift_expr(k.value))
                for k in node.keywords
            ),
        )

    def _intrinsic_name(self, func: ast.expr) -> str | None:
        """Recognize ``read``/``write``/``stateful``/``DataBag`` calls,
        optionally qualified by a module alias (``emma.read``)."""
        if isinstance(func, ast.Name) and func.id in _INTRINSIC_FUNCTIONS:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INTRINSIC_FUNCTIONS
            and isinstance(func.value, ast.Name)
        ):
            # Only module-qualified forms count as intrinsics; attribute
            # access on data stays an opaque call.
            return func.attr
        return None

    def _lift_intrinsic(self, name: str, node: ast.Call) -> Expr:
        args = [self.lift_expr(a) for a in node.args]
        line = node.lineno
        if name == "read":
            if len(args) != 2:
                raise LiftError(
                    f"line {line}: read(path, format) takes 2 arguments"
                )
            return ReadCall(path=args[0], fmt=args[1])
        if name == "write":
            if len(args) != 3:
                raise LiftError(
                    f"line {line}: write(path, format, bag) takes "
                    "3 arguments"
                )
            return WriteCall(path=args[0], fmt=args[1], source=args[2])
        if name == "stateful":
            if len(args) not in (1, 2):
                raise LiftError(
                    f"line {line}: stateful(bag[, key]) takes 1 or 2 "
                    "arguments"
                )
            key = args[1] if len(args) == 2 else None
            return StatefulCreate(source=args[0], key=key)
        if name == "DataBag":
            if len(args) != 1:
                raise LiftError(
                    f"line {line}: DataBag(seq) takes 1 argument"
                )
            return BagLiteral(seq=args[0])
        raise LiftError(f"line {line}: unknown intrinsic {name!r}")

    def _try_lift_method(
        self, func: ast.Attribute, node: ast.Call
    ) -> Expr | None:
        """Lift ``receiver.method(args)`` to a bag/stateful operator,
        or return ``None`` to fall through to an opaque call."""
        method = func.attr
        receiver_node = func.value
        if method in _STATEFUL_METHODS and self._is_stateful_node(
            receiver_node
        ):
            receiver = self.lift_expr(receiver_node)
            return self._lift_stateful_method(method, receiver, node)
        if (
            method not in _UNAMBIGUOUS_BAG_METHODS
            and method not in _COMMON_BAG_METHODS
        ):
            return None
        receiver = self.lift_expr(receiver_node)
        if method in _COMMON_BAG_METHODS and not self._is_bagish(receiver):
            return None
        if (
            method in _UNAMBIGUOUS_BAG_METHODS
            and not self._is_bagish(receiver)
            and not self._could_be_bag(receiver)
        ):
            return None
        return self._lift_bag_method(method, receiver, node)

    def _lift_stateful_method(
        self, method: str, receiver: Expr, node: ast.Call
    ) -> Expr:
        args = [self.lift_expr(a) for a in node.args]
        line = node.lineno
        if method == "bag":
            if args:
                raise LiftError(f"line {line}: bag() takes no arguments")
            return StatefulBagOf(state=receiver)
        if method == "update":
            if len(args) != 1:
                raise LiftError(
                    f"line {line}: update(u) takes 1 argument"
                )
            return StatefulUpdate(state=receiver, update_fn=args[0])
        if len(args) != 2:
            raise LiftError(
                f"line {line}: update_with_messages(messages, u) takes "
                "2 arguments"
            )
        return StatefulUpdateWithMessages(
            state=receiver, messages=args[0], update_fn=args[1]
        )

    def _lift_bag_method(
        self, method: str, receiver: Expr, node: ast.Call
    ) -> Expr:
        args = [self.lift_expr(a) for a in node.args]
        line = node.lineno

        def require_lambda(i: int) -> Lambda:
            if i >= len(args):
                raise LiftError(
                    f"line {line}: {method}() expects a function argument"
                )
            arg = args[i]
            if isinstance(arg, Lambda):
                return arg
            # Eta-expand named function references: map(f) == map(x -> f(x)).
            return Lambda(("_eta",), Call(func=arg, args=(Ref("_eta"),)))

        if method == "map":
            return MapCall(source=receiver, fn=require_lambda(0))
        if method == "flat_map":
            return FlatMapCall(source=receiver, fn=require_lambda(0))
        if method in ("with_filter", "filter"):
            return FilterCall(source=receiver, fn=require_lambda(0))
        if method == "group_by":
            return GroupByCall(source=receiver, key=require_lambda(0))
        if method == "plus":
            _require_args(method, args, 1, line)
            return PlusCall(left=receiver, right=args[0])
        if method == "minus":
            _require_args(method, args, 1, line)
            return MinusCall(left=receiver, right=args[0])
        if method == "distinct":
            _require_args(method, args, 0, line)
            return DistinctCall(source=receiver)
        if method == "fetch":
            _require_args(method, args, 0, line)
            return FetchCall(source=receiver)
        if method == "size":
            method = "count"
        if method in FOLD_ALIASES:
            arity = FOLD_ALIASES[method][0]
            _require_args(method, args, arity, line)
            return FoldCall(
                source=receiver,
                spec=AlgebraSpec(method, tuple(args)),
            )
        raise LiftError(
            f"line {line}: unhandled bag method {method!r}"
        )  # pragma: no cover - dispatch table covers all names

    # -- bag-ness analysis --------------------------------------------------

    def _is_bag(self, expr: Expr) -> bool:
        if expr.is_bag_typed():
            return True
        if isinstance(expr, Ref):
            return expr.name in self.bag_names
        if isinstance(expr, (StatefulUpdate, StatefulUpdateWithMessages)):
            return True  # updates return the changed delta as a bag
        if isinstance(expr, IfElse):
            return self._is_bag(expr.then) and self._is_bag(expr.orelse)
        return False

    def _is_bagish(self, expr: Expr) -> bool:
        """Bag-typed, or plausibly bag-typed (group values)."""
        if self._is_bag(expr):
            return True
        if isinstance(expr, Attr) and expr.name == "values":
            return True
        return False

    def _could_be_bag(self, expr: Expr) -> bool:
        """Unknown-typed receivers get the benefit of the doubt for
        methods that exist only on DataBag."""
        return not isinstance(expr, Const)

    def _is_stateful_node(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id in self.stateful_names
        )


def _require_args(
    method: str, args: list, arity: int, line: int
) -> None:
    if len(args) != arity:
        raise LiftError(
            f"line {line}: {method}() takes {arity} argument(s), "
            f"got {len(args)}"
        )
