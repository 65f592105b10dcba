"""Structural recursion on bags (paper Section 2.2.2).

A fold over a union-representation bag substitutes a triple
``(zero, singleton, union)`` — written ``(e, s, u)`` in the paper — for
the constructors ``(emp, sng, uni)`` of the bag's constructor tree and
evaluates the resulting expression tree.  The triple is a
:class:`FoldAlgebra`.

The module also implements the **banana-split law** (Meijer et al. [28],
used by the paper's fold-group fusion): a tuple of folds over the same
bag equals a single fold over tuples, with the component algebras applied
pointwise.  ``product_algebra`` builds that combined algebra and is the
workhorse behind ``groupBy -> aggBy`` rewriting.

``FOLD_ALIASES`` gives each of ``DataBag``'s fold aliases (``sum``,
``count``, ``min_by`` ...) its algebra, once, for every reader.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from repro.algebra.adt import (
    Cons,
    EmpIns,
    EmpUnion,
    InsTree,
    Sng,
    UnionTree,
)

A = TypeVar("A")
B = TypeVar("B")


#: the key slot of a keyed accumulator that no comparison has needed yet
UNKEYED = object()


@dataclass(frozen=True)
class FoldAlgebra(Generic[A, B]):
    """The ``(e, s, u)`` triple of a union-representation fold.

    Attributes:
        zero: the value substituted for ``emp`` — must be a *function of
            no arguments* returning a fresh zero, so that mutable zeros
            (e.g. numpy arrays, lists) are never shared between
            evaluations.
        singleton: substituted for ``sng`` — maps one element into ``B``.
        union: substituted for ``uni`` — combines two partial results.
        name: optional human-readable label used by the pretty printer
            and by plan explanations.
        key, keep: set for an option algebra that compares by a key
            (``min_by`` / ``max_by``): ``union(a, b)`` keeps ``a`` iff
            ``keep(key(a), key(b))``.  Sequential loops then carry the
            accumulator's key beside it (:meth:`step`).
    """

    zero: Callable[[], B]
    singleton: Callable[[A], B]
    union: Callable[[B, B], B]
    name: str = "fold"
    key: Callable[[B], object] | None = None
    keep: Callable[[object, object], bool] | None = None

    def __call__(self, elements: Iterable[A]) -> B:
        """Apply the fold to an iterable, treated as a bag.

        Evaluates left-to-right; by the well-definedness conditions the
        result is independent of the order, so this is just one concrete
        tree from the equivalence class.
        """
        if self.key is not None:
            return self.merge(map(self.singleton, elements))
        acc = self.zero()
        for x in elements:
            acc = self.union(acc, self.singleton(x))
        return acc

    def merge(self, partials: Iterable[B]) -> B:
        """Combine partial results shipped from distributed partitions."""
        acc = self.zero()
        if self.key is not None:
            acc_key = UNKEYED
            for p in partials:
                acc, acc_key = self.step(acc, acc_key, p)
            return acc
        for p in partials:
            acc = self.union(acc, p)
        return acc

    def step(self, acc: B, acc_key: object, b: B) -> tuple[B, object]:
        """``union(acc, b)`` as one step of a left-to-right loop.

        ``acc_key`` is ``key(acc)``, or :data:`UNKEYED` until a
        comparison first needs it; returns the new ``(acc, acc_key)``.
        The key runs at most once per operand and in the order
        ``union`` calls it — the accumulator's before ``b``'s — so the
        result, and the first key that raises, are ``union``'s.  Without
        a key this is ``union`` with ``acc_key`` passed through.
        """
        key = self.key
        if key is None:
            return self.union(acc, b), acc_key
        if b is None:
            return acc, acc_key
        if acc is None:
            return b, UNKEYED
        if acc_key is UNKEYED:
            acc_key = key(acc)
        b_key = key(b)
        if self.keep(acc_key, b_key):
            return acc, acc_key
        return b, b_key


def fold_union_tree(algebra: FoldAlgebra[A, B], tree: UnionTree[A]) -> B:
    """Evaluate a fold by constructor substitution on a union tree.

    This is the literal definition from the paper: each ``emp``/``sng``/
    ``uni`` node is replaced by the corresponding algebra component.
    Implemented iteratively (post-order) so deep trees do not overflow
    the Python stack.
    """
    if isinstance(tree, EmpUnion):
        return algebra.zero()
    if isinstance(tree, Sng):
        return algebra.singleton(tree.value)

    # Post-order traversal with an explicit stack of (node, visited) pairs.
    results: list[B] = []
    stack: list[tuple[UnionTree[A], bool]] = [(tree, False)]
    while stack:
        node, visited = stack.pop()
        if isinstance(node, EmpUnion):
            results.append(algebra.zero())
        elif isinstance(node, Sng):
            results.append(algebra.singleton(node.value))
        elif not visited:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            right = results.pop()
            left = results.pop()
            results.append(algebra.union(left, right))
    (result,) = results
    return result


def fold_ins_tree(
    zero: B, step: Callable[[A, B], B], tree: InsTree[A]
) -> B:
    """Structural recursion on insert-representation trees.

    The insert-representation fold is the classic ``foldr``; it needs no
    commutativity from ``step``, which is exactly why engines built on it
    (cf. Steno [29], discussed in Related Work) must impose extra
    "homomorphy" constraints before they may parallelize.  The union
    representation sidesteps that — see :func:`fold_union_tree`.
    """
    elements = list(tree) if isinstance(tree, Cons) else []
    if isinstance(tree, EmpIns):
        return zero
    acc = zero
    for x in reversed(elements):
        acc = step(x, acc)
    return acc


def banana_split(
    algebras: Sequence[FoldAlgebra[A, object]],
    name: str | None = None,
) -> FoldAlgebra[A, tuple]:
    """Combine several folds over the same bag into one fold over tuples.

    The banana-split law: ``(fold a1 xs, ..., fold an xs)`` equals
    ``fold (a1 x ... x an) xs`` where the product algebra applies each
    component pointwise.  The paper uses this to fuse the ``Sum`` and
    ``Cnt`` folds of k-means into a single pass before fusing that pass
    into the ``groupBy``.
    """
    return product_algebra(algebras, name=name)


def product_algebra(
    algebras: Sequence[FoldAlgebra[A, object]],
    name: str | None = None,
) -> FoldAlgebra[A, tuple]:
    """The pointwise product ``a1 x ... x an`` of fold algebras."""
    algebras = tuple(algebras)
    if not algebras:
        raise ValueError("product_algebra requires at least one algebra")

    def zero() -> tuple:
        return tuple(a.zero() for a in algebras)

    def singleton(x: A) -> tuple:
        return tuple(a.singleton(x) for a in algebras)

    def union(left: tuple, right: tuple) -> tuple:
        return tuple(
            a.union(lv, rv) for a, lv, rv in zip(algebras, left, right)
        )

    label = name or "x".join(a.name for a in algebras)
    return FoldAlgebra(zero=zero, singleton=singleton, union=union, name=label)


# ---------------------------------------------------------------------------
# The fold aliases (paper Listing 3).  ``FOLD_ALIASES`` is the one place
# an alias's zero, singleton and union are written: ``DataBag``'s alias
# methods, the lifted interpreter (``AlgebraSpec.make_algebra``) and the
# law tests all read it.  ``FOLD_TEMPLATES`` in
# :mod:`repro.comprehension.exprs` is its compiled form, kept as separate
# source so that generated kernels are checked against a reference that
# is not generated from the code under test.
# ---------------------------------------------------------------------------


def zero_factory(zero: B | Callable[[], B]) -> Callable[[], B]:
    """A ``fold`` zero as a factory: a 0-ary callable already is one
    (pass one when the zero is mutable); any other value is wrapped."""
    return zero if callable(zero) else lambda: zero


def _identity(x: A) -> A:
    return x


def _option(
    name: str,
    keep: Callable[[object, object], bool],
    key: Callable[[A], object] | None = None,
) -> FoldAlgebra:
    """``name`` over the option monoid: ``None`` is the zero, otherwise
    ``union(a, b)`` is ``a`` if ``keep(a, b)`` — ``keep(key(a),
    key(b))`` with a ``key`` — and ``b`` if not."""
    test = keep if key is None else lambda a, b: keep(key(a), key(b))
    return FoldAlgebra(
        lambda: None,
        _identity,
        lambda a, b: (
            b if a is None else a if b is None else a if test(a, b) else b
        ),
        name,
        key,
        keep if key is not None else None,
    )


#: alias name -> (argument count, algebra builder over the evaluated
#: arguments).  ``min`` / ``max`` are ``min_by`` / ``max_by`` with the
#: identity key — the option monoid on ``<=`` / ``>=`` — so a value
#: that compares false both ways (``nan``) is kept or dropped alike
#: natively, lifted and compiled.
#:
#: The key contract of ``min_by`` / ``max_by``: ``union`` itself keys
#: both of its operands, but every sequential fold loop — this
#: module's ``__call__`` / ``merge`` (the ``DataBag`` method and the
#: lifted interpreter), ``exprs.fold_reducer`` (compiled UDF folds) and
#: the chain kernel's fold and aggregation sinks — carries the
#: accumulator's key beside it (:meth:`FoldAlgebra.step`).  The key then
#: runs at most once per element, and only once a second element needs
#: comparing, in ``union``'s order: the result, a ``None`` or ``nan``
#: key's effect and the element whose key raises first are ``union``'s.
FOLD_ALIASES: dict[str, tuple[int, Callable[..., FoldAlgebra]]] = {
    "fold": (3, lambda e, s, u: FoldAlgebra(zero_factory(e), s, u, "fold")),
    "sum": (
        0,
        lambda: FoldAlgebra(lambda: 0, _identity, operator.add, "sum"),
    ),
    "product": (
        0,
        lambda: FoldAlgebra(lambda: 1, _identity, operator.mul, "product"),
    ),
    "count": (
        0,
        lambda: FoldAlgebra(lambda: 0, lambda _x: 1, operator.add, "count"),
    ),
    "is_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: True, lambda _x: False, lambda a, b: a and b, "is_empty"
        ),
    ),
    "non_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: False, lambda _x: True, lambda a, b: a or b, "non_empty"
        ),
    ),
    "min": (0, lambda: _option("min", operator.le)),
    "max": (0, lambda: _option("max", operator.ge)),
    "exists": (
        1,
        lambda p: FoldAlgebra(
            lambda: False, lambda x: bool(p(x)), lambda a, b: a or b, "exists"
        ),
    ),
    "forall": (
        1,
        lambda p: FoldAlgebra(
            lambda: True, lambda x: bool(p(x)), lambda a, b: a and b, "forall"
        ),
    ),
    "min_by": (1, lambda k: _option("min_by", operator.le, k)),
    "max_by": (1, lambda k: _option("max_by", operator.ge, k)),
}
