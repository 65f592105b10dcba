"""Record size estimation for the cost model.

The engines operate on real Python records but the cost model charges
*serialized* bytes, estimated from the record structure: fixed widths
for numbers, content length for strings, recursion for containers and
dataclass-like records.  For large homogeneous collections
:func:`estimate_bag_bytes` samples a 32-record prefix and extrapolates,
which keeps accounting cheap relative to the simulated work itself.

Two things keep it off the host's hot path.  The per-record rule is a
*sizer* looked up by the record's exact type: built once per class, on
first sight, from the rules below (scalars first, so ``bool`` before
``int`` and subclasses by their base; the depth cap collapses
containers and records, never scalars), with a dataclass's field names
and a slotted class's slot layout read once.  And the engine sizes each
partition list once: :meth:`PartitionedBag.partition_bytes
<repro.engines.cluster.PartitionedBag.partition_bytes>` keeps the
estimates as a memo on the bag, validated by the same partition-list
stamp as the at-rest batch cache.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Sequence

_SAMPLE = 32
_RECORD_OVERHEAD = 8
#: containers and records nested deeper than this size as the overhead
_MAX_DEPTH = 6

Sizer = Callable[[Any, int], int]

#: exact type -> its sizer, filled on first sight of each class
_SIZERS: dict[type, Sizer] = {}


def estimate_record_bytes(record: Any) -> int:
    """Estimated serialized size of one record, in bytes."""
    return _estimate(record, 0)


def _estimate(value: Any, depth: int) -> int:
    return (_SIZERS.get(type(value)) or _learn(type(value)))(value, depth)


def _learn(cls: type) -> Sizer:
    sizer = _SIZERS[cls] = _sizer_for(cls)
    return sizer


def _sum(values: Iterable[Any], depth: int) -> int:
    """Total estimate of ``values``, each sized at ``depth``."""
    total = 0
    for v in values:
        total += (_SIZERS.get(type(v)) or _learn(type(v)))(v, depth)
    return total


# -- per-type sizers -----------------------------------------------------------


def _one(value: Any, depth: int) -> int:
    return 1


def _fixed8(value: Any, depth: int) -> int:
    return 8


def _length(value: Any, depth: int) -> int:
    return 4 + len(value)


def _items(value: Any, depth: int) -> int:
    if depth > _MAX_DEPTH:
        return _RECORD_OVERHEAD
    return _RECORD_OVERHEAD + _sum(value, depth + 1)


def _mapping(value: Any, depth: int) -> int:
    if depth > _MAX_DEPTH:
        return _RECORD_OVERHEAD
    depth += 1
    total = _RECORD_OVERHEAD
    for k, v in value.items():
        total += _estimate(k, depth) + _estimate(v, depth)
    return total


def _instance_dict(value: Any, depth: int) -> int:
    if depth > _MAX_DEPTH:
        return _RECORD_OVERHEAD
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        return _RECORD_OVERHEAD
    return _RECORD_OVERHEAD + _sum(attrs.values(), depth + 1)


def _fields(names: tuple[str, ...]) -> Sizer:
    """The sizer of a dataclass with the field names ``names``."""

    def size(value: Any, depth: int) -> int:
        if depth > _MAX_DEPTH:
            return _RECORD_OVERHEAD
        depth += 1
        total = _RECORD_OVERHEAD
        for name in names:
            attr = getattr(value, name)
            total += (_SIZERS.get(type(attr)) or _learn(type(attr)))(
                attr, depth
            )
        return total

    return size


def _slots(names: tuple[str, ...]) -> Sizer:
    """The sizer of a slotted class with the slots ``names`` (an unset
    slot is skipped)."""

    def size(value: Any, depth: int) -> int:
        if depth > _MAX_DEPTH:
            return _RECORD_OVERHEAD
        depth += 1
        total = _RECORD_OVERHEAD
        for name in names:
            if hasattr(value, name):
                total += _estimate(getattr(value, name), depth)
        return total

    return size


def _slot_names(cls: type) -> tuple[str, ...]:
    """Every slot a class's instances carry, over its whole MRO.

    A string ``__slots__`` declares one name, not one per character.
    """
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        declared = klass.__dict__.get("__slots__", ())
        if isinstance(declared, str):
            declared = (declared,)
        names += [n for n in declared if n not in names]
    return tuple(names)


def _sizer_for(cls: type) -> Sizer:
    """Build ``cls``'s sizer: the first rule that claims the class."""
    if cls is type(None) or issubclass(cls, bool):
        return _one
    if issubclass(cls, (int, float)):
        return _fixed8
    if issubclass(cls, (str, bytes)):
        return _length
    if issubclass(cls, (tuple, list, set, frozenset)):
        return _items
    if issubclass(cls, dict):
        return _mapping
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _fields(tuple(f.name for f in dataclasses.fields(cls)))
    slots = _slot_names(cls)
    if slots:
        return _slots(slots)
    return _instance_dict


# -- collections ---------------------------------------------------------------


def estimate_bag_bytes(records: Sequence[Any]) -> int:
    """Estimated serialized size of a collection, via prefix sampling."""
    n = len(records)
    if n == 0:
        return 0
    if n <= _SAMPLE:
        return _sum(records, 0)
    avg = _sum(records[:_SAMPLE], 0) / _SAMPLE
    return int(avg * n)


def estimate_partitions_bytes(partitions: Iterable[Sequence[Any]]) -> int:
    """Estimated total size across partitions."""
    return sum(estimate_bag_bytes(p) for p in partitions)


def estimate_column_bytes(values: Sequence[Any]) -> int:
    """Estimated serialized size of one column of scalar values.

    Columns hold one field per record, so each value is charged as it
    would be inside a record (``depth=1``) — no per-record overhead,
    which is what makes the columnar plane's byte accounting cheaper
    than the row estimate for the same data.  Long columns are sampled
    by prefix like :func:`estimate_bag_bytes`.
    """
    n = len(values)
    if n == 0:
        return 0
    if n <= _SAMPLE:
        return _sum(values, 1)
    avg = _sum(values[:_SAMPLE], 1) / _SAMPLE
    return int(avg * n)


def estimate_blocks_bytes(blocks: Iterable[Any]) -> int:
    """Estimated serialized size of a set of columnar exchange blocks.

    A block is either a :class:`~repro.engines.columnar.ColumnBatch`
    (which reports its own typed-buffer footprint via ``nbytes()``) or
    a row-mode fallback record list.  Feeds the executor's exchange
    trace events only — never the cost model, whose charges stay on
    the row estimators so simulated seconds cannot move with the plane.
    """
    total = 0
    for block in blocks:
        nbytes = getattr(block, "nbytes", None)
        if callable(nbytes):
            total += int(nbytes())
        else:
            total += estimate_bag_bytes(block)
    return total


def estimate_batch_bytes(column_nbytes: Sequence[int], nrows: int) -> int:
    """Estimated serialized size of a column batch.

    Takes the per-column byte counts (typed buffers report their exact
    ``nbytes``; object columns go through
    :func:`estimate_column_bytes`) plus one batch-level overhead —
    *not* one per record, since the batch ships as a handful of
    contiguous buffers.
    """
    if nrows == 0:
        return 0
    return _RECORD_OVERHEAD + sum(column_nbytes)
