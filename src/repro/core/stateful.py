"""``StatefulBag`` — point-wise iterative bag refinement (paper §3.1).

A range of algorithms (PageRank, Connected Components, label
propagation) refine a keyed bag in place.  Domain-specific systems
expose this as "vertex-centric" programming; Emma captures it
domain-agnostically:

* conversion from/to stateless ``DataBag`` is explicit
  (``StatefulBag(bag)`` / ``.bag()``);
* elements are updated point-wise with a UDF, either standalone
  (``update(u)``) or driven by keyed *update messages*
  (``update_with_messages(messages, u)``);
* the UDF returns ``None`` ("no change") or the new element version;
* each update returns the **delta** — a ``DataBag`` of the elements that
  actually changed — which is what enables semi-naive iteration (the
  Connected Components example loops while the delta is non-empty).

Elements must expose a key.  By default the key is ``element.key`` or
``element.id`` (checked in that order); pass an explicit ``key``
callable to override.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Optional, TypeVar

from repro.core.databag import DataBag
from repro.errors import EmmaError

A = TypeVar("A")
B = TypeVar("B")
K = TypeVar("K", bound=Hashable)

#: the attributes that key a stateful bag's elements by default, in
#: order of preference; the distributed bag hash-partitions on the key
KEY_ATTRS = ("key", "id")


def _default_key(element: object) -> Hashable:
    for attr in KEY_ATTRS:
        if hasattr(element, attr):
            return getattr(element, attr)
    raise EmmaError(
        "StatefulBag elements need a 'key' or 'id' attribute, or an "
        "explicit key function"
    )


class StatefulBag(Generic[A, K]):
    """A keyed bag whose elements can be updated in place.

    The bag holds exactly one element per key; constructing it from a
    DataBag with duplicate keys is an error (state would be ambiguous).
    """

    __slots__ = ("_state", "_key")

    def __init__(
        self,
        source: DataBag[A],
        key: Callable[[A], K] | None = None,
    ) -> None:
        self._key: Callable[[A], K] = key or _default_key  # type: ignore[assignment]
        self._state: dict[K, A] = {}
        for element in source:
            k = self._key(element)
            if k in self._state:
                raise EmmaError(
                    f"duplicate key {k!r} while constructing StatefulBag"
                )
            self._state[k] = element

    # -- conversion -----------------------------------------------------

    def bag(self) -> DataBag[A]:
        """A stateless snapshot of the current state."""
        return DataBag(self._state.values())

    def __len__(self) -> int:
        return len(self._state)

    def __contains__(self, key: object) -> bool:
        return key in self._state

    def get(self, key: K) -> A | None:
        """Current element for ``key``, or ``None``."""
        return self._state.get(key)

    # -- point-wise updates ----------------------------------------------

    def update(self, u: Callable[[A], Optional[A]]) -> DataBag[A]:
        """Update every element with ``u``; return the changed delta.

        ``u`` returns the new element version, or ``None`` to leave the
        element untouched.  A changed element must keep its key.
        """
        delta: list[A] = []
        for k, element in list(self._state.items()):
            new = u(element)
            if new is None:
                continue
            self._require_same_key(k, new)
            self._state[k] = new
            delta.append(new)
        return DataBag(delta)

    def update_with_messages(
        self,
        messages: DataBag[B],
        u: Callable[[A, B], Optional[A]],
        message_key: Callable[[B], K] | None = None,
    ) -> DataBag[A]:
        """Update elements addressed by keyed messages; return the delta.

        Each message is routed to the state element sharing its key
        (messages whose key matches no element are dropped, which mirrors
        sending a message to a non-existent vertex).  When several
        messages address one element they are applied in sequence, and
        the element appears in the delta at most once — with its final
        version.
        """
        mkey: Callable[[B], K] = message_key or _default_key  # type: ignore[assignment]
        changed: dict[K, A] = {}
        for message in messages:
            k = mkey(message)
            current = self._state.get(k)
            if current is None:
                continue
            new = u(current, message)
            if new is None:
                continue
            self._require_same_key(k, new)
            self._state[k] = new
            changed[k] = new
        return DataBag(changed.values())

    # -- internals --------------------------------------------------------

    def _require_same_key(self, old_key: K, new_element: A) -> None:
        new_key = self._key(new_element)
        if new_key != old_key:
            raise EmmaError(
                f"update changed element key from {old_key!r} to "
                f"{new_key!r}; point-wise updates must preserve keys"
            )

    def __repr__(self) -> str:
        return f"StatefulBag({len(self._state)} elements)"
