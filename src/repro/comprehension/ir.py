"""Comprehension nodes — the declarative core of the IR (paper §2.2.3).

Following Grust's notation, a monad comprehension has the form::

    [[ e | qs ]]^T

where ``e`` is the *head*, ``qs`` a sequence of *qualifiers* (generators
``x <- xs`` and guards ``p``), and ``T`` the monad — here either the
``Bag`` monad (the result is a bag of head values) or an identity monad
with zero given by a fold algebra ``fold(e, s, u)`` (the generated head
values are folded into a scalar).

Comprehension nodes are ``Expr`` subclasses: they nest freely inside
heads and predicates, which is exactly what the normalization rules of
Section 4.1 exploit.

Generators carry a :class:`GenMode`.  ``EXISTS``-mode generators are
produced by the exists-unnesting rule: the generator variable may only
be consulted by subsequent guards, and the outer element survives iff
*some* binding satisfies them — bag-semantically a semi-join, which is
how the lowering realizes it.  (``NOT_EXISTS`` analogously yields an
anti-join for negated existentials.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, Mapping, Union

from repro.comprehension.exprs import (
    AlgebraSpec,
    BagExpr,
    DataBag,
    Env,
    Expr,
    NativeCodegen,
    NotCompilable,
    Ref,
    fold_reducer,
    fresh_name,
)
from repro.errors import ComprehensionError


class GenMode(Enum):
    """How a generator binds its variable (see module docstring)."""

    NORMAL = "normal"
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"


@dataclass(frozen=True)
class Generator(Expr):
    """Qualifier ``var <- source``."""

    var: str
    source: Expr
    mode: GenMode = GenMode.NORMAL

    def evaluate(self, env: Env) -> Any:
        raise ComprehensionError(
            "generators are evaluated by their enclosing comprehension"
        )


@dataclass(frozen=True)
class Guard(Expr):
    """Qualifier ``p`` — a boolean filter over the bound variables."""

    predicate: Expr

    def evaluate(self, env: Env) -> bool:
        return bool(self.predicate.evaluate(env))


Qualifier = Union[Generator, Guard]


class _BagKind:
    """The ``Bag`` monad marker (singleton)."""

    def __repr__(self) -> str:
        return "Bag"


BAG = _BagKind()


@dataclass(frozen=True)
class FoldKind:
    """The identity-monad-with-zero marker: fold with the given algebra."""

    spec: AlgebraSpec

    def __repr__(self) -> str:
        return f"fold({self.spec.alias})"


MonadKind = Union[_BagKind, FoldKind]


def generator_source(source: Any, var: str) -> Any:
    """What generator ``var <- source`` iterates: a bag or a host sequence."""
    if isinstance(source, (DataBag, list, tuple, set, range)):
        return source
    raise ComprehensionError(
        f"generator {var!r} ranges over a non-bag "
        f"({type(source).__name__})"
    )


@dataclass(frozen=True)
class Comprehension(Expr):
    """``[[ head | qualifiers ]]^kind``."""

    head: Expr
    qualifiers: tuple[Qualifier, ...]
    kind: MonadKind = BAG

    # -- structure -------------------------------------------------------

    def generators(self) -> tuple[Generator, ...]:
        """The generator qualifiers, in binding order."""
        return tuple(
            q for q in self.qualifiers if isinstance(q, Generator)
        )

    def guards(self) -> tuple[Guard, ...]:
        """The guard qualifiers, in source order."""
        return tuple(q for q in self.qualifiers if isinstance(q, Guard))

    def is_fold(self) -> bool:
        """Whether this comprehension evaluates through a fold."""
        return isinstance(self.kind, FoldKind)

    def is_bag_typed(self) -> bool:
        return not self.is_fold()

    # -- binding-aware generic operations ---------------------------------
    #
    # A comprehension's qualifier list binds *sequentially*: generator i
    # scopes over qualifiers i+1.. and over the head.  The generic
    # Expr methods cannot express that, so all three are overridden.

    def children(self) -> Iterator[Expr]:
        for q in self.qualifiers:
            if isinstance(q, Generator):
                yield q.source
            else:
                yield q.predicate
        yield self.head
        if isinstance(self.kind, FoldKind):
            for arg in self.kind.spec.args:
                yield arg

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        bound: set[str] = set()
        for q in self.qualifiers:
            if isinstance(q, Generator):
                out |= q.source.free_vars() - bound
                bound.add(q.var)
            else:
                out |= q.predicate.free_vars() - bound
        out |= self.head.free_vars() - bound
        if isinstance(self.kind, FoldKind):
            out |= self.kind.spec.free_vars() - bound
        return out

    def substitute(self, mapping: Mapping[str, Expr]) -> "Comprehension":
        live = dict(mapping)
        if not live:
            return self
        incoming: frozenset[str] = frozenset()
        for value in live.values():
            incoming |= value.free_vars()

        new_quals: list[Qualifier] = []
        renames: dict[str, Expr] = {}
        taken = set(incoming) | {
            g.var for g in self.generators()
        } | self.free_vars()

        def subst_inner(e: Expr) -> Expr:
            combined = {**live, **renames}
            # Shadowed names were removed from `live` as binders were
            # crossed; `renames` handles alpha conversion.
            return e.substitute(combined) if combined else e

        for q in self.qualifiers:
            if isinstance(q, Generator):
                new_source = subst_inner(q.source)
                var = q.var
                live.pop(var, None)
                if var in incoming:
                    new_var = fresh_name(var, taken)
                    taken.add(new_var)
                    renames[var] = Ref(new_var)
                    var = new_var
                new_quals.append(
                    Generator(var=var, source=new_source, mode=q.mode)
                )
            else:
                new_quals.append(Guard(subst_inner(q.predicate)))

        new_head = subst_inner(self.head)
        new_kind: MonadKind = self.kind
        if isinstance(self.kind, FoldKind):
            combined = {**live, **renames}
            if combined:
                new_kind = FoldKind(self.kind.spec.substitute(combined))
        return Comprehension(
            head=new_head, qualifiers=tuple(new_quals), kind=new_kind
        )

    # -- semantics ---------------------------------------------------------

    def evaluate(self, env: Env) -> Any:
        """Direct nested-loop evaluation (the oracle semantics)."""
        items = list(self._generate(env, 0))
        if isinstance(self.kind, FoldKind):
            algebra = self.kind.spec.make_algebra(env)
            return algebra(items)
        return DataBag(items)

    def _generate(self, env: Env, index: int) -> Iterator[Any]:
        """Yield head values for qualifiers ``index..``, given ``env``."""
        if index == len(self.qualifiers):
            yield self.head.evaluate(env)
            return
        q = self.qualifiers[index]
        if isinstance(q, Guard):
            if q.predicate.evaluate(env):
                yield from self._generate(env, index + 1)
            return
        source = generator_source(q.source.evaluate(env), q.var)
        if q.mode is GenMode.NORMAL:
            for x in source:
                yield from self._generate(env.child({q.var: x}), index + 1)
            return
        # EXISTS / NOT_EXISTS: consume the guards that mention q.var,
        # decide existence, and continue without the binding.
        dependent, rest_start = self._dependent_guards(index)
        found = False
        for x in source:
            inner = env.child({q.var: x})
            if all(g.predicate.evaluate(inner) for g in dependent):
                found = True
                break
        keep = found if q.mode is GenMode.EXISTS else not found
        if keep:
            yield from self._generate(env, rest_start)

    def emit_native(
        self, codegen: NativeCodegen, bound: Mapping[str, str], resolve
    ) -> str:
        """Python source of this comprehension: :meth:`evaluate` as a
        generator expression (``NativeCodegen.emit``'s case for it).

        Generators and guards become its ``for`` / ``if`` clauses, in
        order; the ``Bag`` monad collects it into a ``DataBag``, a fold
        kind hands it to the alias's reduction loop with the algebra's
        arguments emitted in the enclosing scope — where
        :meth:`evaluate` evaluates them.
        """
        if not self.generators() or isinstance(self.qualifiers[0], Guard):
            raise NotCompilable("comprehension without a leading generator")
        inner = dict(bound)
        clauses: list[str] = []
        for q in self.qualifiers:
            if isinstance(q, Guard):
                clauses.append(
                    f"if {codegen.emit(q.predicate, inner, resolve)}"
                )
                continue
            if q.mode is not GenMode.NORMAL:
                raise NotCompilable(f"{q.mode.name} generator {q.var!r}")
            source = codegen.emit(q.source, inner, resolve)
            inner[q.var] = codegen.fresh_local()
            helper = codegen.helper("source", generator_source)
            clauses.append(
                f"for {inner[q.var]} in {helper}({source}, {q.var!r})"
            )
        items = f"{codegen.emit(self.head, inner, resolve)} {' '.join(clauses)}"
        if not isinstance(self.kind, FoldKind):
            return f"{codegen.helper('bag', DataBag)}([{items}])"
        spec = self.kind.spec
        if spec.head is not None or spec.guards:
            raise NotCompilable("fused fold inside a comprehension")
        reducer = codegen.helper(
            f"fold_{spec.alias}", fold_reducer(spec.alias)
        )
        args = [codegen.emit(arg, bound, resolve) for arg in spec.args]
        return f"{reducer}({', '.join([f'({items})', *args])})"

    def _dependent_guards(
        self, gen_index: int
    ) -> tuple[list[Guard], int]:
        """Guards immediately after an exists-generator that use its var.

        Returns the guard run and the index of the first qualifier after
        it.  The generator variable must not occur anywhere later — the
        exists-unnesting rule only produces this shape.
        """
        gen = self.qualifiers[gen_index]
        assert isinstance(gen, Generator)
        dependent: list[Guard] = []
        i = gen_index + 1
        while i < len(self.qualifiers):
            q = self.qualifiers[i]
            if isinstance(q, Guard) and gen.var in q.predicate.free_vars():
                dependent.append(q)
                i += 1
            else:
                break
        for q in self.qualifiers[i:]:
            names = (
                q.source.free_vars()
                if isinstance(q, Generator)
                else q.predicate.free_vars()
            )
            if gen.var in names:
                raise ComprehensionError(
                    f"exists-variable {gen.var!r} escapes its guard run"
                )
        if gen.var in self.head.free_vars():
            raise ComprehensionError(
                f"exists-variable {gen.var!r} occurs in the head"
            )
        return dependent, i


@dataclass(frozen=True)
class Flatten(BagExpr):
    """``flatten`` of a bag of bags — produced when resugaring flat_map.

    The head-unnesting normalization rule eliminates every ``Flatten``
    whose operand is a comprehension with a comprehension head; any
    remaining ``Flatten`` evaluates by unioning the inner bags.
    """

    source: Expr

    def evaluate(self, env: Env) -> DataBag:
        outer = self.source.evaluate(env)
        if not isinstance(outer, DataBag):
            raise ComprehensionError("flatten expects a bag of bags")
        out: list[Any] = []
        for inner in outer:
            if isinstance(inner, DataBag):
                out.extend(inner.fetch())
            elif isinstance(inner, (list, tuple, set)):
                out.extend(inner)
            else:
                raise ComprehensionError(
                    "flatten expects inner collections, got "
                    f"{type(inner).__name__}"
                )
        return DataBag(out)
