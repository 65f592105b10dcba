"""Driver IR — the lifted statement-level view of a parallelized program.

The program is a sequence of statements over lifted expressions
(:mod:`repro.comprehension.exprs`).  DataBag expressions stay embedded
in the statements; the optimizer and code generator later identify the
maximal dataflow sites, rewrite them, and replace them with compiled
plans.  Control flow stays host-level — exactly the paper's point that
a plain ``while`` loop should work on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterator

from repro.comprehension.exprs import Expr
from repro.lowering.combinators import ScalarFn

#: the declared types of a statement's own expressions, and of its
#: nested blocks
_EXPR_TYPES = ("Expr", "Expr | None")
_BLOCK_TYPE = "tuple[Stmt, ...]"


@dataclass(frozen=True)
class Stmt:
    """Base class for driver statements.

    A statement's structure is read off its field declarations, once
    per class: the fields declared ``Expr`` hold its own expressions,
    the fields declared ``tuple[Stmt, ...]`` its nested blocks.
    ``loop`` marks the statements whose blocks run once per iteration.
    """

    #: per class: its fields declared ``Expr`` (or ``Expr | None``)
    expr_fields: ClassVar[tuple[str, ...]] = ()
    #: per class: its fields declared ``tuple[Stmt, ...]``
    block_fields: ClassVar[tuple[str, ...]] = ()
    #: whether the nested blocks run repeatedly (a driver loop)
    loop: ClassVar[bool] = False

    #: source line in the user's function (for error messages)
    line: int = field(default=0, compare=False)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # The declarations in dataclass field order: base classes first.
        declared: dict[str, str] = {}
        for klass in reversed(cls.__mro__):
            declared.update(vars(klass).get("__annotations__", {}))
        cls.expr_fields = tuple(
            name for name, kind in declared.items() if kind in _EXPR_TYPES
        )
        cls.block_fields = tuple(
            name for name, kind in declared.items() if kind == _BLOCK_TYPE
        )

    def children(self) -> tuple[Stmt, ...]:
        """The statements of the nested blocks (loop/branch bodies)."""
        names = self.block_fields
        if not names:
            return ()
        return sum([getattr(self, name) for name in names], ())

    def rebuild(
        self,
        exprs: Callable[[Expr], Expr] | None = None,
        blocks: Callable[[tuple[Stmt, ...]], tuple[Stmt, ...]] | None = None,
    ) -> Stmt:
        """This statement with ``exprs`` applied to each of its own
        expressions and ``blocks`` to each nested block (``None`` maps
        nothing); ``self`` when nothing changed.  An absent optional
        expression is not mapped."""
        changes: dict[str, object] = {}
        for names, fn in (
            (self.expr_fields, exprs),
            (self.block_fields, blocks),
        ):
            for name in names if fn else ():
                old = getattr(self, name)
                new = None if old is None else fn(old)
                if new is not old:
                    changes[name] = new
        return replace(self, **changes) if changes else self


@dataclass(frozen=True)
class SAssign(Stmt):
    """``name = expr`` (also the lowering of ``name op= expr``)."""

    name: str = ""
    value: Expr = None  # type: ignore[assignment]
    #: whether the assigned value is DataBag-typed (set by the lifter)
    bag_typed: bool = False
    #: whether the value is a StatefulBag
    stateful: bool = False


@dataclass(frozen=True)
class SExpr(Stmt):
    """An expression evaluated for effect (e.g. a ``write`` sink)."""

    value: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SWhile(Stmt):
    """``while cond: body`` — host-level control flow."""

    loop = True

    cond: Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class SIf(Stmt):
    """``if cond: then else: orelse``."""

    cond: Expr = None  # type: ignore[assignment]
    then: tuple[Stmt, ...] = ()
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class SFor(Stmt):
    """``for var in iterable: body`` over a *host* iterable.

    Driver-level iteration (e.g. over a list of classifiers); bags are
    iterated inside comprehensions, never by driver ``for`` loops.
    """

    loop = True

    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class SReturn(Stmt):
    """``return expr`` (bag values are fetched to the driver)."""

    value: Expr | None = None


@dataclass(frozen=True)
class SCache(Stmt):
    """Optimizer-inserted: materialize ``name`` per the engine's policy.

    ``partition_key`` additionally enforces a hash partitioning before
    storing (partition pulling).  Never produced by the lifter.
    """

    name: str = ""
    partition_key: ScalarFn | None = None


def stmt_exprs(stmt: Stmt) -> tuple[Expr, ...]:
    """The expressions directly attached to a statement (not those of
    its nested blocks)."""
    values = [getattr(stmt, name) for name in stmt.expr_fields]
    return tuple([value for value in values if value is not None])


def repeats_exprs(stmt: Stmt) -> bool:
    """Whether a statement evaluates its own expressions once per loop
    iteration (a ``while`` condition) rather than once per execution."""
    return isinstance(stmt, SWhile)


def walk(stmts: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """All statements of a block and its nested blocks, outer-to-inner."""
    for s in stmts:
        yield s
        yield from walk(s.children())


def assigned_names(stmt: Stmt) -> set[str]:
    """Names assigned anywhere within a statement tree."""
    names: set[str] = set()
    for s in walk((stmt,)):
        if isinstance(s, SAssign):
            names.add(s.name)
        elif isinstance(s, SFor):
            names.add(s.var)
    return names


@dataclass(frozen=True)
class DriverProgram:
    """The lifted function: parameters plus the statement sequence."""

    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    #: parameter names declared DataBag-typed
    bag_params: frozenset[str] = frozenset()

    def walk(self) -> Iterator[Stmt]:
        """All statements, outer-to-inner."""
        return walk(self.body)

    def with_body(self, body: tuple[Stmt, ...]) -> "DriverProgram":
        """A copy of the program with a rewritten statement list."""
        return replace(self, body=body)


def loop_mutated_names(program: DriverProgram) -> frozenset[str]:
    """Names assigned inside any loop of the driver program (a ``for``
    loop's variable included)."""
    return frozenset().union(
        *(assigned_names(s) for s in program.walk() if s.loop)
    )


def pretty_program(program: DriverProgram) -> str:
    """Render a driver program as indented pseudo-code.

    Expressions print in the comprehension pretty notation, so the
    output shows exactly what the compiler sees at each stage (used by
    the compiler-walkthrough example and the test suite).
    """
    from repro.comprehension.pretty import pretty

    lines = [f"def {program.name}({', '.join(program.params)}):"]

    def emit(stmts: tuple[Stmt, ...], depth: int) -> None:
        pad = "    " * depth
        if not stmts:
            lines.append(f"{pad}pass")
            return
        for stmt in stmts:
            if isinstance(stmt, SAssign):
                marker = ""
                if stmt.stateful:
                    marker = "  # stateful"
                elif stmt.bag_typed:
                    marker = "  # bag"
                lines.append(
                    f"{pad}{stmt.name} = {pretty(stmt.value)}{marker}"
                )
            elif isinstance(stmt, SExpr):
                lines.append(f"{pad}{pretty(stmt.value)}")
            elif isinstance(stmt, SCache):
                suffix = (
                    f" partitioned[{stmt.partition_key.describe()}]"
                    if stmt.partition_key is not None
                    else ""
                )
                lines.append(f"{pad}cache {stmt.name}{suffix}")
            elif isinstance(stmt, SWhile):
                lines.append(f"{pad}while {pretty(stmt.cond)}:")
                emit(stmt.body, depth + 1)
            elif isinstance(stmt, SIf):
                lines.append(f"{pad}if {pretty(stmt.cond)}:")
                emit(stmt.then, depth + 1)
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    emit(stmt.orelse, depth + 1)
            elif isinstance(stmt, SFor):
                lines.append(
                    f"{pad}for {stmt.var} in {pretty(stmt.iterable)}:"
                )
                emit(stmt.body, depth + 1)
            elif isinstance(stmt, SReturn):
                value = (
                    pretty(stmt.value) if stmt.value is not None else ""
                )
                lines.append(f"{pad}return {value}".rstrip())
            else:
                lines.append(f"{pad}<{type(stmt).__name__}>")

    emit(program.body, 1)
    return "\n".join(lines)
