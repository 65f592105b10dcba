"""``DataBag`` — the core collection abstraction (paper Listing 3).

The bag is homogeneous, unordered, and admits duplicates.  The API is a
faithful Python rendering of the paper's Listing 3:

* monad operators ``map`` / ``flat_map`` / ``with_filter`` (these are
  what Python generator expressions over bags desugar to in the
  frontend);
* nesting via ``group_by`` — group values are first-class DataBags;
* ``plus`` (bag union), ``minus`` (bag difference), ``distinct``;
* structural recursion via ``fold`` and a family of aliases
  (``sum``, ``count``, ``min``, ``max``, ``min_by``, ``exists`` ...),
  each the algebra of its row in :data:`repro.algebra.fold.FOLD_ALIASES`
  — the row a lifted program evaluates and compiles too, so a fold
  means the same natively and lifted (``min`` / ``max`` are the option
  monoid on ``<=`` / ``>=``, not the builtins);
* conversion to and from host-language sequences.

Everything here executes directly on the host: the bag is list-backed
and operators are eager.  This is the "incremental development and
debugging at small scale" mode of the paper, and part of the semantic
oracle against which the simulated parallel engines are
differential-tested.

Equality between bags is multiset equality — element order never
matters.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import (
    Callable,
    Generic,
    Iterable,
    Iterator,
    Sequence,
    TypeVar,
)

from repro.algebra.fold import FOLD_ALIASES, FoldAlgebra
from repro.core.grp import Grp

A = TypeVar("A")
B = TypeVar("B")
K = TypeVar("K")


class DataBag(Generic[A]):
    """A homogeneous collection with bag semantics.

    Construct from any iterable::

        xs = DataBag([1, 2, 2, 3])

    or via :meth:`DataBag.empty` / :meth:`DataBag.of`.
    """

    __slots__ = ("_data",)

    def __init__(self, elements: Iterable[A] = ()) -> None:
        self._data: list[A] = list(elements)

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty() -> "DataBag[A]":
        """The empty bag (``emp`` of the union algebra)."""
        return DataBag(())

    @staticmethod
    def of(*elements: A) -> "DataBag[A]":
        """Bag of the given elements: ``DataBag.of(1, 2, 2)``."""
        return DataBag(elements)

    @staticmethod
    def single(element: A) -> "DataBag[A]":
        """Singleton bag (``sng`` of the union algebra)."""
        return DataBag((element,))

    # -- type conversion ----------------------------------------------

    def fetch(self) -> list[A]:
        """Materialize the bag as a host-language list (arbitrary order).

        On a parallel backend this is the point where distributed
        partitions are shipped to the driver.
        """
        return list(self._data)

    # -- monad operators (enable comprehension syntax) -----------------

    def map(self, f: Callable[[A], B]) -> "DataBag[B]":
        """Apply ``f`` to every element."""
        return DataBag(f(x) for x in self._data)

    def flat_map(self, f: Callable[[A], "DataBag[B] | Iterable[B]"]) -> "DataBag[B]":
        """Apply ``f`` (element -> bag) and union the results."""
        out: list[B] = []
        for x in self._data:
            result = f(x)
            if isinstance(result, DataBag):
                out.extend(result._data)
            else:
                out.extend(result)
        return DataBag(out)

    def with_filter(self, p: Callable[[A], bool]) -> "DataBag[A]":
        """Keep the elements satisfying predicate ``p``."""
        return DataBag(x for x in self._data if p(x))

    # ``filter`` is a convenience alias familiar to Python users.
    filter = with_filter

    # -- nesting -------------------------------------------------------

    def group_by(self, key: Callable[[A], K]) -> "DataBag[Grp[K, A]]":
        """Group elements by ``key``; group values are DataBags.

        One ``Grp`` per distinct key.  Group order is unspecified (bag
        semantics); values preserve no order either.
        """
        groups: dict[K, list[A]] = defaultdict(list)
        for x in self._data:
            groups[key(x)].append(x)
        return DataBag(
            Grp(k, DataBag(vs)) for k, vs in groups.items()
        )

    # -- union / difference / distinct ----------------------------------

    def plus(self, addend: "DataBag[A]") -> "DataBag[A]":
        """Bag union (``uni``): multiplicities add up."""
        return DataBag(self._data + addend._data)

    def minus(self, subtrahend: "DataBag[A]") -> "DataBag[A]":
        """Bag difference: multiplicities subtract, floored at zero.

        Requires hashable elements.
        """
        remaining = Counter(subtrahend._data)
        out: list[A] = []
        for x in self._data:
            if remaining[x] > 0:
                remaining[x] -= 1
            else:
                out.append(x)
        return DataBag(out)

    def distinct(self) -> "DataBag[A]":
        """Remove duplicates.  Requires hashable elements."""
        seen: set[A] = set()
        out: list[A] = []
        for x in self._data:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return DataBag(out)

    # -- structural recursion -------------------------------------------

    def fold(
        self,
        zero: B | Callable[[], B],
        singleton: Callable[[A], B],
        union: Callable[[B, B], B],
    ) -> B:
        """Structural recursion with the ``(e, s, u)`` triple.

        ``zero`` may be a plain value or a zero-argument factory; pass a
        factory when the zero is mutable.  The triple must satisfy the
        well-definedness conditions of Section 2.2.2 (unit,
        associativity, commutativity of ``union``) — the library cannot
        verify this for arbitrary functions, but
        :func:`repro.algebra.laws.check_fold_well_defined` can spot-check
        it during development.
        """
        return self._alias("fold", zero, singleton, union)

    def fold_algebra(self, algebra: FoldAlgebra[A, B]) -> B:
        """Apply a prebuilt :class:`FoldAlgebra` to this bag."""
        return algebra(self._data)

    # -- fold aliases ----------------------------------------------------
    #
    # Each is the ``FOLD_ALIASES`` row of its name — the algebra a lifted
    # program runs too.

    def _alias(self, alias: str, *args: object) -> B:
        return FOLD_ALIASES[alias][1](*args)(self._data)

    def sum(self) -> A:
        """Sum of the elements: ``fold(0, id, +)``."""
        return self._alias("sum")

    def product(self) -> A:
        """Product of the elements: ``fold(1, id, *)``."""
        return self._alias("product")

    def count(self) -> int:
        """Number of elements: ``fold(0, const 1, +)``."""
        return self._alias("count")

    # ``size`` is an alias used in some Emma code samples.
    size = count

    def is_empty(self) -> bool:
        """True iff the bag has no elements: ``fold(True, const False, and)``."""
        return self._alias("is_empty")

    def non_empty(self) -> bool:
        """True iff the bag has an element: ``fold(False, const True, or)``."""
        return self._alias("non_empty")

    def exists(self, p: Callable[[A], bool]) -> bool:
        """Existential qualifier: ``fold(False, p, or)``."""
        return self._alias("exists", p)

    def forall(self, p: Callable[[A], bool]) -> bool:
        """Universal qualifier: ``fold(True, p, and)``."""
        return self._alias("forall", p)

    def min(self) -> A | None:
        """Minimum element, or ``None`` for the empty bag: ``min_by(id)``."""
        return self._alias("min")

    def max(self) -> A | None:
        """Maximum element, or ``None`` for the empty bag: ``max_by(id)``."""
        return self._alias("max")

    def min_by(self, key: Callable[[A], object]) -> A | None:
        """Element with the minimal ``key``, or ``None`` if empty.

        A fold over the option monoid, mirroring the paper's ``minBy``
        (the k-means nearest-centroid step uses it).  The first of tied
        elements wins; ``None`` elements are skipped.  ``key`` runs at
        most once per element, and not at all for a single element: the
        fold carries the running minimum's key, as Python's
        ``min(key=...)`` does — here, lifted and compiled alike (see
        ``FOLD_ALIASES``).
        """
        return self._alias("min_by", key)

    def max_by(self, key: Callable[[A], object]) -> A | None:
        """Element with the maximal ``key``, or ``None`` if empty; ties,
        ``None`` elements and key calls as in :meth:`min_by`."""
        return self._alias("max_by", key)

    def sample(self, n: int) -> list[A]:
        """Up to ``n`` arbitrary elements (deterministic here: a prefix)."""
        if n < 0:
            raise ValueError("sample size must be non-negative")
        return self._data[:n]

    # -- python protocol -------------------------------------------------

    def __iter__(self) -> Iterator[A]:
        """Iterate the elements in an unspecified order.

        Provided so bags can appear as generator-expression sources —
        the syntax the frontend lifts into comprehensions.
        """
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, x: object) -> bool:
        return x in self._data

    def __eq__(self, other: object) -> bool:
        """Multiset equality — order never matters for bags."""
        if not isinstance(other, DataBag):
            return NotImplemented
        return _as_counter(self._data) == _as_counter(other._data)

    def __hash__(self) -> int:
        # Hash via the sorted multiset representation when possible;
        # bags of unhashable elements are themselves unhashable.
        return hash(frozenset(_as_counter(self._data).items()))

    def __repr__(self) -> str:
        preview = ", ".join(repr(x) for x in self._data[:8])
        suffix = ", ..." if len(self._data) > 8 else ""
        return f"DataBag([{preview}{suffix}])"


def _as_counter(data: Sequence) -> Counter:
    """Multiset view of a sequence, tolerating unhashable elements."""
    try:
        return Counter(data)
    except TypeError:
        # Fall back to repr-keying for unhashable elements; adequate for
        # the equality use cases (records in this library are hashable
        # dataclasses or tuples, so this path is exercised rarely).
        return Counter(repr(x) for x in data)
