"""Partitioned datasets and cluster configuration.

A :class:`PartitionedBag` is the engines' runtime representation of a
distributed bag: a list of partitions (partition ``i`` lives on worker
``i % num_workers``) plus an optional :class:`Partitioner` recording
that the data is hash-partitioned on a key.  Partitioner equality is
*structural over the key's IR* — two dataflows that partition on the
same lifted key expression recognize each other's partitioning, which
is what makes the partition-pulling optimization able to elide
shuffles.
"""

from __future__ import annotations

import array as _array
import functools
import hashlib
import sys
import zlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engines.sizes import estimate_bag_bytes
from repro.lowering.combinators import ScalarFn


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster."""

    num_workers: int = 8
    #: partitions per dataflow (defaults to num_workers when 0)
    default_parallelism: int = 0

    @property
    def parallelism(self) -> int:
        return self.default_parallelism or self.num_workers


@dataclass(frozen=True)
class Partitioner:
    """Hash partitioning on a key function over a partition count."""

    key: ScalarFn
    num_partitions: int

    def matches(self, key: ScalarFn, num_partitions: int) -> bool:
        """Whether this partitioning satisfies the requested one
        (alpha-insensitive on the key's parameter names)."""
        return (
            self.num_partitions == num_partitions
            and self.key.alpha_equal(key)
        )


def _combine(tag: int, items: Any) -> int:
    acc = tag
    for item in items:
        acc = (acc * 1000003) ^ stable_hash(item)
        acc &= 0xFFFFFFFF
    return acc


def stable_hash(value: Any) -> int:
    """A process-independent hash for partitioning.

    Python's builtin ``hash`` is salted per process for strings (PEP
    456), which would make partition layouts — and therefore skew-
    sensitive experiment outcomes — vary between runs.  This hash is
    deterministic: integers map to themselves, strings/bytes through
    CRC32, sequences combine positionally, sets and dict items
    order-independently, and dataclass records field-wise (tagged with
    the class name, so two record types with equal field values
    partition differently).  Dicts hash as their ``(key, value)`` item
    set.  It places records and nothing else: where a hash must say
    whether two values *are the same*, use :func:`content_digest`.

    Values outside this closed set raise :class:`EngineError` rather
    than falling back to ``repr``: object reprs that embed ``id()``
    addresses would silently produce partition layouts that differ
    between runs — exactly the nondeterminism this hash exists to
    prevent.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, float):
        return zlib.crc32(repr(value).encode("utf-8"))
    if isinstance(value, tuple):
        return _combine(0x345678, value)
    if isinstance(value, list):
        return _combine(0x2D5F1B, value)
    if isinstance(value, (set, frozenset)):
        acc = 0x1E7A93
        for item in value:  # xor: order-independent
            acc ^= stable_hash(item)
        return acc & 0xFFFFFFFF
    if isinstance(value, dict):
        # A dict is its item set: xor of per-item (key, value) hashes
        # so insertion order never matters, under a dict-specific tag
        # so {} and set() hash apart.
        acc = 0x6B43A9
        for item in value.items():
            acc ^= _combine(0x345678, item)
        return acc & 0xFFFFFFFF
    if value is None:
        return 0
    if is_dataclass(value) and not isinstance(value, type):
        tag = zlib.crc32(type(value).__qualname__.encode("utf-8"))
        return _combine(
            tag, (getattr(value, f.name) for f in fields(value))
        )
    from repro.errors import EngineError

    raise EngineError(
        f"cannot compute a stable partition hash for a "
        f"{type(value).__name__}: partition keys must be "
        f"ints/floats/strings/bytes/tuples/lists/sets/dicts or dataclass "
        f"records composed of those (repr-based hashing of arbitrary "
        f"objects is not deterministic across runs)"
    )


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(8, "big") + payload


def canonical_bytes(value: Any) -> bytes:
    """A tagged, length-prefixed encoding: equal bytes iff equal content.

    Self-delimiting, so a concatenation of encodings still names its
    parts: a long sequence can be digested item by item
    (``sha256.update`` per item) without ever holding its whole
    encoding.
    """
    if isinstance(value, bool):
        return _frame(b"b", b"1" if value else b"0")
    if isinstance(value, int):
        return _frame(b"i", str(value).encode("ascii"))
    if isinstance(value, str):
        return _frame(b"s", value.encode("utf-8"))
    if isinstance(value, bytes):
        return _frame(b"y", value)
    if isinstance(value, float):
        return _frame(b"f", repr(value).encode("ascii"))
    if value is None:
        return _frame(b"n", b"")
    if isinstance(value, (tuple, list)):
        tag = b"t" if isinstance(value, tuple) else b"l"
        return _frame(tag, b"".join(canonical_bytes(item) for item in value))
    if isinstance(value, (set, frozenset, dict)):
        # Unordered: the sorted digests of the elements (a dict is its
        # item set).
        items = value.items() if isinstance(value, dict) else value
        digests = sorted(
            hashlib.sha256(canonical_bytes(item)).digest() for item in items
        )
        tag = b"d" if isinstance(value, dict) else b"e"
        return _frame(tag, b"".join(digests))
    if isinstance(value, _array.array):
        return _frame(b"a", canonical_bytes((value.typecode, value.tobytes())))
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        if not value.dtype.hasobject:
            contiguous = np.ascontiguousarray(value)
            return _frame(
                b"N",
                canonical_bytes(
                    (
                        str(contiguous.dtype),
                        contiguous.shape,
                        contiguous.tobytes(),
                    )
                ),
            )
    if is_dataclass(value) and not isinstance(value, type):
        # The encoding of ``(module, qualname, field values)``, with the
        # per-class part built once per class.
        head, names = _record_layout(type(value))
        values = b"".join(canonical_bytes(getattr(value, n)) for n in names)
        return _frame(b"r", _frame(b"t", head + _frame(b"t", values)))
    from repro.engines.columnar import ColumnBatch, _column_list

    if isinstance(value, ColumnBatch):
        columns = tuple(
            None if col is None else _column_list(col)
            for col in value.columns
        )
        return _frame(
            b"c",
            canonical_bytes((value.schema.signature(), value.nrows, columns)),
        )
    from repro.errors import EngineError

    raise EngineError(
        f"cannot compute a content digest for a {type(value).__name__}: "
        f"only scalars, containers, dataclass records and typed buffers "
        f"of those have a process-independent content identity"
    )


@functools.cache
def _record_layout(cls: type) -> tuple[bytes, tuple[str, ...]]:
    """A record class's encoded module and qualified name, and its field
    names: all of a record's encoding that does not depend on the
    record."""
    head = canonical_bytes(cls.__module__) + canonical_bytes(cls.__qualname__)
    return head, tuple(f.name for f in fields(cls))


def content_digest(value: Any) -> str:
    """A collision-resistant, process-independent name for *content*.

    :func:`stable_hash` places records: 32 bits, ints hashing to
    themselves, sets as an xor — ``set()``, ``{0}`` and ``{0, 1, 2, 3}``
    all hash alike, which is fine for a destination and wrong for an
    identity.  Wherever a hash decides whether two values *are the
    same* (the result cache's input snapshots: a stale hit would serve
    yesterday's answer) use this instead: SHA-256 over
    :func:`canonical_bytes` — the value
    types ``stable_hash`` accepts plus typed buffers (``array.array``,
    numpy arrays, :class:`~repro.engines.columnar.ColumnBatch`) —
    raising :class:`EngineError` on anything else.
    """
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def hash_partition_index(key_value: Any, num_partitions: int) -> int:
    """Deterministic partition index for a key value."""
    return stable_hash(key_value) % num_partitions


def _partition_nbytes(partition: Sequence[Any]) -> int:
    """One partition's byte estimate (a spill sentinel carries its own)."""
    if not partition:
        return 0
    if isinstance(partition, list):
        return estimate_bag_bytes(partition)
    return partition.nbytes


class PartitionedBag:
    """A distributed bag: one record list per partition."""

    __slots__ = ("partitions", "partitioner", "_sizes", "__weakref__")

    def __init__(
        self,
        partitions: Sequence[Sequence[Any]],
        partitioner: Partitioner | None = None,
    ) -> None:
        self.partitions: list[list[Any]] = [list(p) for p in partitions]
        self.partitioner = partitioner
        #: ``(stamp, per-partition bytes)`` as of the last sizing
        self._sizes: tuple[tuple, list[int]] | None = None

    @staticmethod
    def from_records(
        records: Iterable[Any], num_partitions: int
    ) -> "PartitionedBag":
        """Round-robin distribute records over ``num_partitions``."""
        partitions: list[list[Any]] = [[] for _ in range(num_partitions)]
        for i, record in enumerate(records):
            partitions[i % num_partitions].append(record)
        return PartitionedBag(partitions)

    @staticmethod
    def by_key(
        records: Iterable[Any],
        key_fn: Callable[[Any], Any],
        key_ir: ScalarFn | None,
        num_partitions: int,
    ) -> "PartitionedBag":
        """Hash-partition records by ``key_fn``, whose IR is ``key_ir``
        (``None`` claims no partitioning)."""
        partitions: list[list[Any]] = [[] for _ in range(num_partitions)]
        for record in records:
            idx = hash_partition_index(key_fn(record), num_partitions)
            partitions[idx].append(record)
        return PartitionedBag(
            partitions,
            Partitioner(key_ir, num_partitions) if key_ir is not None else None,
        )

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partitioned_on(self, key: ScalarFn) -> bool:
        """Whether the bag is already hash-partitioned on ``key``."""
        return self.partitioner is not None and self.partitioner.matches(
            key, self.num_partitions
        )

    def pair_partitioner(self, pos: int) -> Partitioner | None:
        """The partitioning a join's output keeps from this input,
        whose records it places in place as element ``pos`` of each
        output pair."""
        if self.partitioner is None:
            return None
        key = self.partitioner.key.over_pair(pos)
        if key is None:
            return None
        return Partitioner(key, self.partitioner.num_partitions)

    def count(self) -> int:
        """Total number of records across partitions."""
        return sum(len(p) for p in self.partitions)

    def records(self) -> Iterator[Any]:
        """Iterate all records, partition by partition."""
        for p in self.partitions:
            yield from p

    def collect(self) -> list[Any]:
        """All records as one list (driver-side materialization)."""
        return [r for p in self.partitions for r in p]

    def stamp(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The identities and lengths of the partition lists.

        Whatever is memoized about the bag's contents (its byte
        estimates, its at-rest column batches) is valid exactly while
        the stamp is unchanged: replacing a slot — a spill sentinel, a
        reload, a lineage-recovered list — changes its identity.
        """
        parts = self.partitions
        return tuple(map(id, parts)), tuple(map(len, parts))

    def nbytes(self) -> int:
        """Estimated serialized bytes of the whole bag."""
        return sum(self.partition_bytes())

    def partition_bytes(self) -> list[int]:
        """Estimated bytes per partition, sized once per partition list.

        The estimates are a memo on the bag under :meth:`stamp`; a
        partition whose slot changed since is re-sized, every other one
        is read back.  A spilled slot reports the bytes of the records
        it stands for.  The list is the memo itself: read it, never
        mutate it.
        """
        stamp = self.stamp()
        memo = self._sizes
        if memo is not None and memo[0] == stamp:
            return memo[1]
        (old_ids, old_lens), old_sizes = memo or (((), ()), [])
        ids, lens = stamp
        sizes = [
            old_sizes[i]
            if i < len(old_ids) and (old_ids[i], old_lens[i]) == (ids[i], lens[i])
            else _partition_nbytes(p)
            for i, p in enumerate(self.partitions)
        ]
        self._sizes = (stamp, sizes)
        return sizes

    def trace_attrs(self) -> dict[str, int]:
        """Size and skew measurements for a trace span.

        ``max_partition_bytes`` vs ``bytes_out / partitions`` exposes
        key skew directly in the span tree (the Figure 5c effect).
        """
        sizes = self.partition_bytes()
        return {
            "rows_out": self.count(),
            "bytes_out": sum(sizes),
            "partitions": self.num_partitions,
            "max_partition_bytes": max(sizes, default=0),
        }

    def copy(self) -> "PartitionedBag":
        """A deep-enough copy (fresh partition lists, same records)."""
        return PartitionedBag(
            [list(p) for p in self.partitions], self.partitioner
        )

    def __repr__(self) -> str:
        return (
            f"PartitionedBag({self.count()} records, "
            f"{self.num_partitions} partitions, "
            f"partitioner={self.partitioner is not None})"
        )
