"""Columnar partition representation for vectorized chain kernels.

The physical layer normally walks partitions as Python lists of
records, row-at-a-time.  This module reifies a partition as a
:class:`ColumnBatch` — one contiguous column per record field plus a
:class:`ColumnSchema` — so that fused chain kernels can execute
batch-at-a-time (maps over whole columns, filters via selection masks)
instead of once per record.  The move follows "Reify Your Collection
Queries for Modularity and Speed!" (Giarrusso et al.), applied at the
partition level.

Storage is tiered per column:

* ``numpy`` arrays for ``float``/``bool`` columns when numpy is
  importable (``HAS_NUMPY``) — vector arithmetic runs in C;
* numpy ``<U`` unicode buffers for homogeneous ``str`` columns (date
  filters compare in C), unless a value embeds ``NUL`` — a ``<U``
  buffer would silently drop trailing ``"\\x00"`` characters;
* ``array.array`` typed buffers for numeric columns without numpy —
  still a compact, picklable representation for IPC;
* plain Python lists for ints (arbitrary precision is sacred) and
  everything else.

For kernel evaluation, non-numpy columns are wrapped in
:class:`PyColumn`, an element-wise operator-overloading shim whose
arithmetic is *exactly* Python's (arbitrary-precision ints included),
so columnar results are bit-identical to row-at-a-time results.

Integer columns deliberately avoid numpy: ``int64`` overflow would
silently diverge from Python's arbitrary-precision semantics.  Only
``float`` and ``bool`` columns take the numpy fast path.
"""

from __future__ import annotations

import dataclasses
import operator
import os
import zlib
from array import array
from typing import Any, Callable, Iterable, Sequence

from repro.errors import EngineError

try:  # pragma: no cover - exercised indirectly by both CI variants
    import numpy as _np

    HAS_NUMPY = True
except Exception:  # pragma: no cover
    _np = None
    HAS_NUMPY = False

#: Valid values of the ``columnar`` execution knob.
COLUMNAR_MODES = ("auto", "on", "off")

#: Record layouts a batch can represent.
RECORD_KINDS = ("tuple", "dataclass", "scalar")


def check_columnar_mode(mode: str, what: str = "columnar") -> str:
    """``mode`` if it is one of :data:`COLUMNAR_MODES`; otherwise an
    :class:`EngineError` that names ``what`` (the knob or variable)."""
    if mode not in COLUMNAR_MODES:
        raise EngineError(
            f"unknown {what} mode {mode!r}: expected one of "
            f"{', '.join(COLUMNAR_MODES)}"
        )
    return mode


def default_columnar_mode() -> str:
    """The columnar mode from ``REPRO_COLUMNAR`` (default ``off``).

    ``off`` keeps every chain row-at-a-time; ``auto`` vectorizes
    eligible chains only when numpy is available; ``on`` forces the
    columnar path (pure-Python column fallback).  The plane is opt-in:
    the frontend's chains are one or two kernels long, so the pack and
    unpack at each plane boundary cost more than the vector kernel
    saves.
    """
    mode = os.environ.get("REPRO_COLUMNAR", "off").strip().lower()
    return check_columnar_mode(mode, "REPRO_COLUMNAR")


def default_columnar_exchange() -> str:
    """The exchange-plane mode from ``REPRO_COLUMNAR_EXCHANGE``
    (default ``off``).

    Controls whether shuffles, hash joins, and group-bys run over
    :class:`ColumnBatch` payloads (``off`` keeps every exchange
    row-at-a-time, ``auto`` engages when numpy is available, ``on``
    forces the batch path with the pure-Python column fallback).
    Independent of the chain-kernel ``columnar`` knob: a bag can take
    the columnar exchange even when its chains stayed row-mode.  The
    plane is opt-in: records at rest are Python objects, so each
    exchange pays a pack and an unpack that the row path does not.
    """
    mode = (
        os.environ.get("REPRO_COLUMNAR_EXCHANGE", "off").strip().lower()
    )
    return check_columnar_mode(mode, "REPRO_COLUMNAR_EXCHANGE")


class PyColumn:
    """A list-backed column with element-wise Python operators.

    Every binary operator maps Python's own scalar operator over the
    elements, pairing element-wise against another column (or any
    sequence of equal length) and broadcasting scalars.  This is the
    semantics-preserving fallback used for ``str``/object columns and,
    without numpy, for numeric columns: results are exactly what a
    row-at-a-time loop would compute.
    """

    __slots__ = ("data",)

    #: numpy must never absorb a PyColumn operand into an object
    #: array: returning NotImplemented from ufuncs routes mixed
    #: ndarray/PyColumn operations through the reflected PyColumn
    #: operator, which keeps element-wise Python semantics.
    __array_ufunc__ = None

    def __init__(self, data: Sequence[Any]) -> None:
        self.data = data if isinstance(data, list) else list(data)

    def __len__(self) -> int:
        return len(self.data)

    def tolist(self) -> list:
        """The column values as a plain Python list."""
        return list(self.data)

    # -- element-wise combination ------------------------------------
    def _zip(self, other: Any, op: Callable[[Any, Any], Any]) -> "PyColumn":
        if isinstance(other, (PyColumn, StrColumn)):
            other = other.tolist()
        if _np is not None and isinstance(other, _np.ndarray):
            other = other.tolist()
        if isinstance(other, (list, array)):
            return PyColumn([op(a, b) for a, b in zip(self.data, other)])
        return PyColumn([op(a, other) for a in self.data])

    def _rzip(self, other: Any, op: Callable[[Any, Any], Any]) -> "PyColumn":
        if isinstance(other, (PyColumn, StrColumn)):
            other = other.tolist()
        if _np is not None and isinstance(other, _np.ndarray):
            other = other.tolist()
        if isinstance(other, (list, array)):
            return PyColumn([op(b, a) for a, b in zip(self.data, other)])
        return PyColumn([op(other, a) for a in self.data])

    def __add__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a + b)

    def __radd__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a + b)

    def __sub__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a - b)

    def __mul__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a * b)

    def __rmul__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a * b)

    def __truediv__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a / b)

    def __rtruediv__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a / b)

    def __floordiv__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a // b)

    def __rfloordiv__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a // b)

    def __mod__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a % b)

    def __rmod__(self, other: Any) -> "PyColumn":
        return self._rzip(other, lambda a, b: a % b)

    def __neg__(self) -> "PyColumn":
        return PyColumn([-a for a in self.data])

    def __lt__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a < b)

    def __le__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a <= b)

    def __gt__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a > b)

    def __ge__(self, other: Any) -> "PyColumn":
        return self._zip(other, lambda a, b: a >= b)

    def __eq__(self, other: Any) -> "PyColumn":  # type: ignore[override]
        return self._zip(other, lambda a, b: a == b)

    def __ne__(self, other: Any) -> "PyColumn":  # type: ignore[override]
        return self._zip(other, lambda a, b: a != b)

    __hash__ = None  # element-wise __eq__ makes instances unhashable

    def __repr__(self) -> str:
        return f"PyColumn({self.data!r})"


class StrColumn:
    """A numpy-``<U``-backed string column.

    The six comparisons run vectorized in C on the unicode buffer —
    numpy's per-code-point ordering is exactly Python's ``str``
    ordering, so a date filter like ``ship_date <= cutoff`` stays
    bit-identical while dropping the per-row Python dispatch.  Every
    other operator (concatenation, repetition, formatting, or any
    comparison against a non-string operand) falls back to element-wise
    Python through :class:`PyColumn`, so semantics never drift.
    """

    __slots__ = ("arr",)

    #: see :attr:`PyColumn.__array_ufunc__`
    __array_ufunc__ = None

    def __init__(self, arr: Any) -> None:
        self.arr = arr

    def __len__(self) -> int:
        return len(self.arr)

    def tolist(self) -> list:
        """The column values as exact Python strings."""
        return self.arr.tolist()

    def _py(self) -> PyColumn:
        return PyColumn(self.arr.tolist())

    def _cmp(self, other: Any, name: str) -> Any:
        if isinstance(other, StrColumn):
            other = other.arr
        elif not isinstance(other, str):
            # Mixed-type comparison: replay Python's own semantics
            # element-wise rather than trusting numpy's coercions.
            return getattr(self._py(), name)(other)
        return getattr(self.arr, name)(other)

    def __lt__(self, other: Any) -> Any:
        return self._cmp(other, "__lt__")

    def __le__(self, other: Any) -> Any:
        return self._cmp(other, "__le__")

    def __gt__(self, other: Any) -> Any:
        return self._cmp(other, "__gt__")

    def __ge__(self, other: Any) -> Any:
        return self._cmp(other, "__ge__")

    def __eq__(self, other: Any) -> Any:  # type: ignore[override]
        return self._cmp(other, "__eq__")

    def __ne__(self, other: Any) -> Any:  # type: ignore[override]
        return self._cmp(other, "__ne__")

    __hash__ = None  # element-wise __eq__ makes instances unhashable

    def __add__(self, other: Any) -> PyColumn:
        return self._py() + other

    def __radd__(self, other: Any) -> PyColumn:
        return self._py()._rzip(other, lambda a, b: a + b)

    def __mul__(self, other: Any) -> PyColumn:
        return self._py() * other

    def __rmul__(self, other: Any) -> PyColumn:
        return self._py()._rzip(other, lambda a, b: a * b)

    def __mod__(self, other: Any) -> PyColumn:
        return self._py() % other

    def __rmod__(self, other: Any) -> PyColumn:
        return self._py()._rzip(other, lambda a, b: a % b)

    def __repr__(self) -> str:
        return f"StrColumn({self.arr!r})"


@dataclasses.dataclass(frozen=True)
class ColumnSchema:
    """The record layout of a :class:`ColumnBatch`.

    ``kind`` is one of :data:`RECORD_KINDS`; ``fields`` names the
    columns (dataclass field names, or ``_0``/``_1``/... positions);
    ``ctor`` is the record class for ``dataclass`` batches (``None``
    otherwise).
    """

    kind: str
    fields: tuple[str, ...]
    ctor: type | None = None

    @property
    def arity(self) -> int:
        """Number of columns per record."""
        return len(self.fields)

    def signature(self) -> tuple:
        """A hashable, process-independent identity for kernel caches."""
        ctor_id = None
        if self.ctor is not None:
            ctor_id = (self.ctor.__module__, self.ctor.__qualname__)
        return (self.kind, self.fields, ctor_id)


def _dataclass_schema(rec_type: type) -> ColumnSchema | None:
    """A schema for a plain dataclass record type, or ``None``."""
    if not dataclasses.is_dataclass(rec_type):
        return None
    if hasattr(rec_type, "__post_init__"):
        return None
    flds = dataclasses.fields(rec_type)
    if not flds:
        return None
    if any(not f.init or getattr(f, "kw_only", False) for f in flds):
        return None
    return ColumnSchema(
        "dataclass", tuple(f.name for f in flds), rec_type
    )


def infer_schema(records: Sequence[Any]) -> tuple[ColumnSchema | None, str]:
    """Infer a column schema from a sample of a partition.

    Returns ``(schema, "")`` on success or ``(None, reason)`` when the
    records cannot be represented columnar (heterogeneous types,
    unsupported record class, ...).  The sample is the first record;
    homogeneity over the full partition is validated during the actual
    batch build.
    """
    if not records:
        return None, "empty partition"
    first = records[0]
    rec_type = type(first)
    if rec_type is tuple:
        if not first:
            return None, "zero-arity tuple records"
        fields = tuple(f"_{i}" for i in range(len(first)))
        return ColumnSchema("tuple", fields), ""
    if rec_type in (int, float, bool, str):
        return ColumnSchema("scalar", ("_0",)), ""
    schema = _dataclass_schema(rec_type)
    if schema is not None:
        return schema, ""
    return None, f"unsupported record type {rec_type.__name__}"


def _pack_column(values: list) -> Any:
    """Pick the tightest backing store for one column of values.

    numpy float64/bool arrays when available; ``array.array`` typed
    buffers for numerics otherwise; plain lists for ints (exact
    arbitrary-precision semantics), strings, and objects.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        if HAS_NUMPY:
            return _np.asarray(values, dtype=_np.float64)
        return array("d", values)
    if kinds == {bool}:
        if HAS_NUMPY:
            return _np.asarray(values, dtype=_np.bool_)
        return values
    if kinds == {int}:
        # Plain list: numpy int64 would silently overflow where Python
        # promotes to arbitrary precision.
        return values
    if kinds == {str} and HAS_NUMPY:
        # ``<U`` buffers drop *trailing* NULs on the way back out, so
        # any embedded NUL keeps the column a plain list.
        if not any("\x00" in v for v in values):
            return _np.asarray(values)
    return values


def build_batch(
    records: Sequence[Any],
    schema: ColumnSchema,
    needed: frozenset[int] | None = None,
) -> tuple["ColumnBatch | None", str]:
    """Build a :class:`ColumnBatch` from a partition of records.

    ``needed`` restricts the build to the column positions a kernel
    actually reads (projection pushdown); unneeded columns stay
    ``None``.  Returns ``(batch, "")`` or ``(None, reason)`` when the
    partition does not match ``schema`` (the caller falls back to the
    row-at-a-time kernel for this partition).
    """
    if not records:
        return None, "empty partition"
    rec_types = set(map(type, records))
    if schema.kind == "dataclass":
        if rec_types != {schema.ctor}:
            return None, "mixed record types in partition"
    elif schema.kind == "tuple":
        if rec_types != {tuple}:
            return None, "mixed record types in partition"
        arity = schema.arity
        if any(len(r) != arity for r in records):
            return None, "ragged tuple arity in partition"
    else:  # scalar
        if not rec_types <= {int, float, bool, str}:
            return None, "non-scalar records in scalar partition"
    n = len(records)
    columns: list[Any] = [None] * schema.arity
    positions = (
        list(range(schema.arity))
        if needed is None
        else sorted(needed)
    )
    try:
        for i, values in zip(
            positions, _extract_columns(records, schema, positions)
        ):
            columns[i] = _pack_column(values)
    except (AttributeError, IndexError, TypeError, OverflowError) as exc:
        return None, f"column build failed: {exc}"
    return ColumnBatch(schema, tuple(columns), n), ""


def _extract_columns(
    records: Sequence[Any],
    schema: ColumnSchema,
    positions: list[int],
) -> list[list]:
    """Pull the requested column positions out of a partition.

    The transpose is the hot loop of batch building, so it stays at the
    C level: one ``attrgetter``/``itemgetter`` per record (returning
    all requested fields at once) and a ``zip(*...)`` to turn the
    record-major stream column-major.
    """
    if schema.kind == "scalar":
        return [list(records)]
    if not positions:
        return []
    if schema.kind == "tuple" and len(positions) == schema.arity:
        # Full-width tuple batches (the exchange plane's shape)
        # transpose directly — no per-record itemgetter tuples.
        return [list(col) for col in zip(*records)]
    if schema.kind == "dataclass":
        getter = operator.attrgetter(
            *(schema.fields[i] for i in positions)
        )
    else:
        getter = operator.itemgetter(*positions)
    if len(positions) == 1:
        return [list(map(getter, records))]
    return [list(col) for col in zip(*map(getter, records))]


def _column_list(col: Any) -> list:
    """One column's values back as exact Python scalars."""
    if col is None:
        raise EngineError("cannot materialize a projected-away column")
    if isinstance(col, PyColumn):
        return col.tolist()
    if isinstance(col, list):
        return col
    # numpy arrays and array.array both expose ``tolist`` returning
    # native Python ints/floats/bools.
    return col.tolist()


class ColumnBatch:
    """One partition, stored as columns.

    ``columns`` holds one backing store per schema field (``None`` for
    columns projected away at build time); ``nrows`` is the row count.
    Batches pickle as their typed buffers, which is what makes shipping
    them across the process-pool boundary cheaper than row lists.
    """

    def __init__(
        self,
        schema: ColumnSchema,
        columns: tuple[Any, ...],
        nrows: int,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.nrows = nrows
        #: the at-rest partition list this full-width batch images, set
        #: only by ``JobExecutor._store_batches`` when it caches the
        #: batch for that partition's bag.  Never pickled: a worker
        #: process unpacks the buffers.
        self.rows: list | None = None

    def __len__(self) -> int:
        return self.nrows

    def to_records(self) -> list:
        """The exact row-at-a-time records.  Read-only: a batch cached
        for a bag at rest hands back that bag's own partition list
        (:attr:`rows`) instead of rebuilding every record, so callers
        must not mutate the result."""
        if self.rows is not None:
            return self.rows
        lists = [_column_list(c) for c in self.columns]
        if self.schema.kind == "scalar":
            return lists[0]
        if self.schema.kind == "tuple":
            return list(zip(*lists)) if lists else []
        ctor = self.schema.ctor
        return [ctor(*vals) for vals in zip(*lists)]

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A contiguous row range — zero-copy for numpy columns."""
        cols = tuple(
            None if c is None else c[start:stop] for c in self.columns
        )
        n = max(0, min(stop, self.nrows) - max(start, 0))
        return ColumnBatch(self.schema, cols, n)

    def select(self, mask: Any) -> "ColumnBatch":
        """Rows where ``mask`` is true (a selection-mask filter)."""
        cols = tuple(
            None if c is None else select_column(c, mask)
            for c in self.columns
        )
        return ColumnBatch(self.schema, cols, mask_count(mask))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Rows at ``indices``, in that order (gather).

        Fancy-indexes numpy columns in C; typed buffers and lists
        gather element-wise, preserving exact Python values.
        """
        cols = tuple(
            None if c is None else _take_column(c, indices)
            for c in self.columns
        )
        return ColumnBatch(self.schema, cols, len(indices))

    def column_nbytes(self) -> tuple[int, ...]:
        """Actual buffer bytes per column (0 for projected columns)."""
        out = []
        for col in self.columns:
            if col is None:
                out.append(0)
            elif isinstance(col, StrColumn):
                out.append(int(col.arr.nbytes))
            elif _np is not None and isinstance(col, _np.ndarray):
                out.append(int(col.nbytes))
            elif isinstance(col, array):
                out.append(len(col) * col.itemsize)
            else:
                from repro.engines.sizes import estimate_column_bytes

                data = col.data if isinstance(col, PyColumn) else col
                out.append(estimate_column_bytes(data))
        return tuple(out)

    def nbytes(self) -> int:
        """Total buffer bytes across columns."""
        return sum(self.column_nbytes())

    def __reduce__(self) -> tuple:
        """Pickle as packed typed buffers (see :func:`pack_column`)."""
        return (
            _rebuild_batch,
            (
                self.schema,
                tuple(pack_column(c) for c in self.columns),
                self.nrows,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ColumnBatch(kind={self.schema.kind!r}, "
            f"arity={self.schema.arity}, nrows={self.nrows})"
        )


def pack_column(col: Any) -> tuple[str, Any, Any]:
    """One column as a compact ``(tag, dtype, payload)`` triple.

    Numeric numpy columns dump their raw buffer (a memcpy both ways).
    Fixed-width ``<U`` unicode columns — numpy's UTF-32 layout, 4
    bytes per character padded to the widest string — would ship ~3x
    larger than the strings themselves, so they go as Python string
    tuples instead (short-string pickle opcodes plus memoization of
    repeated values, e.g. low-cardinality flag columns).  The dtype
    string rides along so the receiving side rebuilds the exact same
    array, keeping vectorized behaviour identical across the hop.
    """
    if col is None:
        return ("none", None, None)
    if _np is not None and isinstance(col, _np.ndarray):
        if col.dtype.kind == "U":
            return ("ustr", col.dtype.str, tuple(col.tolist()))
        return ("np", col.dtype.str, col.tobytes())
    if isinstance(col, StrColumn):
        return ("strcol", col.arr.dtype.str, tuple(col.arr.tolist()))
    if isinstance(col, array):
        return ("arr", col.typecode, col.tobytes())
    if isinstance(col, PyColumn):
        return ("py", None, col.data)
    return ("obj", None, col)


def unpack_column(tag: str, dtype: Any, payload: Any) -> Any:
    """Rebuild one column from :func:`pack_column` output."""
    if tag == "none":
        return None
    if tag in ("np", "ustr", "strcol") and _np is None:
        raise RuntimeError(
            "cannot unpack a numpy-typed column buffer without numpy"
        )
    if tag == "np":
        return _np.frombuffer(payload, dtype=dtype).copy()
    if tag == "ustr":
        return _np.array(payload, dtype=dtype)
    if tag == "strcol":
        return StrColumn(_np.array(payload, dtype=dtype))
    if tag == "arr":
        col = array(dtype)
        col.frombytes(payload)
        return col
    if tag == "py":
        return PyColumn(payload)
    return payload


def _rebuild_batch(
    schema: ColumnSchema, packed: tuple, nrows: int
) -> ColumnBatch:
    """Unpickle hook for :meth:`ColumnBatch.__reduce__`."""
    return ColumnBatch(
        schema, tuple(unpack_column(*p) for p in packed), nrows
    )


def batch_from_records(
    records: Sequence[Any],
) -> tuple[ColumnBatch | None, str]:
    """Infer a schema and build a full (unprojected) batch in one go."""
    schema, reason = infer_schema(records)
    if schema is None:
        return None, reason
    return build_batch(records, schema)


# ---------------------------------------------------------------------------
# Exchange helpers: batch-at-a-time partitioning
# ---------------------------------------------------------------------------


def _take_column(col: Any, indices: Sequence[int]) -> Any:
    """Gather one column at ``indices`` (order-preserving)."""
    if isinstance(col, StrColumn):
        return StrColumn(col.arr[indices])
    if _np is not None and isinstance(col, _np.ndarray):
        return col[indices]
    if _np is not None and type(col) is list and len(col) > 1024:
        # Large scalar lists round-trip through numpy: one C gather
        # plus ``tolist`` beats an element-wise Python loop, and the
        # values come back as the exact same Python ints/bools.
        try:
            arr = _np.asarray(col)
        except Exception:
            arr = None
        if (
            arr is not None
            and arr.ndim == 1
            and arr.dtype.kind in ("i", "b")
        ):
            return arr[indices].tolist()
    if _np is not None and isinstance(indices, _np.ndarray):
        # Element-wise gathers index far faster with native ints than
        # with numpy scalars.
        indices = indices.tolist()
    if isinstance(col, array):
        return array(col.typecode, [col[i] for i in indices])
    if isinstance(col, PyColumn):
        data = col.data
        return PyColumn([data[i] for i in indices])
    return [col[i] for i in indices]


def bucket_indices(keys: Any, n_parts: int) -> Any:
    """Destination partition per key, batch-at-a-time.

    Bit-identical to ``hash_partition_index(key, n_parts)`` for every
    key: the per-type branches below inline ``stable_hash``'s scalar
    cases (ints map to themselves, bools to 0/1, strings and float
    reprs through CRC32) so homogeneous key columns skip the isinstance
    ladder, with the numpy ``int64 %`` fast path for integer keys
    (Python and numpy agree on the sign of ``%`` with a positive
    divisor).  Mixed or structured keys fall back to the row hash.
    Accepts a raw key column store and may return an int64 array —
    :func:`scatter_batch` consumes either without a copy.
    """
    arr = _as_int_array(keys)
    if arr is not None:
        return arr % n_parts
    if not isinstance(keys, list):
        keys = _column_list(keys)
    kinds = set(map(type, keys))
    if kinds == {int}:
        return [k % n_parts for k in keys]
    if kinds == {bool}:
        return [int(k) % n_parts for k in keys]
    if kinds == {str}:
        crc = zlib.crc32
        return [crc(k.encode("utf-8")) % n_parts for k in keys]
    if kinds == {float}:
        crc = zlib.crc32
        return [crc(repr(k).encode("utf-8")) % n_parts for k in keys]
    from repro.engines.cluster import hash_partition_index

    return [hash_partition_index(k, n_parts) for k in keys]


def scatter_batch(
    batch: ColumnBatch, dests: Sequence[int], n_parts: int
) -> list[ColumnBatch]:
    """Split a batch into per-destination sub-batches.

    ``dests[i]`` is the destination partition of row ``i`` (from
    :func:`bucket_indices`).  Rows keep their source order within each
    destination — exactly the order per-row appends would produce —
    via a stable argsort + one gather + contiguous slices on the numpy
    path, or position lists + gathers in pure Python.
    """
    if HAS_NUMPY:
        arr = _np.asarray(dests, dtype=_np.int64)
        order = _np.argsort(arr, kind="stable")
        counts = _np.bincount(arr, minlength=n_parts).tolist()
        gathered = batch.take(order)
        out = []
        start = 0
        for count in counts:
            out.append(gathered.slice(start, start + count))
            start += count
        return out
    positions: list[list[int]] = [[] for _ in range(n_parts)]
    for pos, dest in enumerate(dests):
        positions[dest].append(pos)
    return [batch.take(p) for p in positions]


def _as_int_array(keys: Any) -> Any:
    """``keys`` as an int64 array, or None off the fast path.

    A single ``asarray`` pass replaces a Python-level type scan: the
    resulting dtype kind tells us whether every key was an int.  Bools
    promote to 0/1 ints, which hash and compare identically to the
    scalar path; oversized ints land in an object array and fall back.
    Accepts raw column stores so key columns flow straight from a
    kernel's output batch without a ``to_records`` round trip.
    """
    if not HAS_NUMPY or isinstance(keys, StrColumn):
        return None
    if isinstance(keys, PyColumn):
        keys = keys.data
    if isinstance(keys, _np.ndarray):
        arr = keys
    else:
        try:
            arr = _np.asarray(keys)
        except Exception:
            return None
    if arr.dtype.kind != "i" or arr.ndim != 1:
        return None
    return arr


def probe_join(
    lrows: list, lkeys: Any, rrows: list, rkeys: Any
) -> list:
    """All pairs ``(l, r)`` with equal keys, in row-probe order.

    Exactly equivalent to the hash-table probe — build
    ``table.setdefault(rkey, []).append(r)`` over the right side, then
    for each left row in order emit its matches in right-side order —
    but homogeneous int keys take a sorted-probe fast path: a stable
    argsort of the right keys plus two ``searchsorted`` sweeps find
    each left key's match range in C (stability keeps equal-keyed
    right rows in original order, so pair order is identical), leaving
    Python-level work proportional to the *output* instead of one hash
    probe per input row.  Anything else falls back to the dict probe.
    """
    rows: list = []
    if not lrows or not rrows:
        return rows
    append = rows.append
    la = _as_int_array(lkeys)
    ra = _as_int_array(rkeys) if la is not None else None
    if ra is None:
        # Dict probe needs exact Python scalars as hash keys.
        if not isinstance(lkeys, list):
            lkeys = _column_list(lkeys)
        if not isinstance(rkeys, list):
            rkeys = _column_list(rkeys)
    if ra is not None:
        order = _np.argsort(ra, kind="stable")
        rsorted = ra[order]
        lo = _np.searchsorted(rsorted, la, side="left")
        hi = _np.searchsorted(rsorted, la, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total:
            # Expand the match ranges into explicit (left, right)
            # index pairs in C; Python-level work is one append per
            # *output* pair.  Left indices repeat in left order;
            # within a left row, offsets walk ``lo[i]:hi[i]`` through
            # the stable sort order — exactly the dict probe's order.
            li = _np.repeat(_np.arange(counts.shape[0]), counts)
            starts = counts.cumsum() - counts
            offs = _np.arange(total) - _np.repeat(starts, counts)
            ri = order[_np.repeat(lo, counts) + offs]
            for i, j in zip(li.tolist(), ri.tolist()):
                append((lrows[i], rrows[j]))
        return rows
    return hash_probe(lrows, lkeys, rrows, rkeys)


def hash_probe(lrows: list, lkeys: list, rrows: list, rkeys: list) -> list:
    """The row hash join: build a table over the right side, then emit
    each left row's matches in right-side order."""
    table: dict = {}
    for r, k in zip(rrows, rkeys):
        table.setdefault(k, []).append(r)
    matches = table.get
    return [(x, m) for x, k in zip(lrows, lkeys) for m in matches(k, ())]


def normalize_batch(batch: ColumnBatch) -> ColumnBatch:
    """``batch`` with at-rest backing stores only.

    Vector kernels may emit :class:`PyColumn`/:class:`StrColumn`
    operator wrappers; a batch kept *at rest* (cached for later
    exchange consumers) stores the plain list or ``<U`` array
    underneath instead, so slicing, scattering, and gathers see the
    same column types :func:`build_batch` produces.
    """
    if not any(
        isinstance(c, (PyColumn, StrColumn)) for c in batch.columns
    ):
        return batch
    cols = tuple(
        c.data
        if isinstance(c, PyColumn)
        else c.arr
        if isinstance(c, StrColumn)
        else c
        for c in batch.columns
    )
    return ColumnBatch(batch.schema, cols, batch.nrows)


def concat_batches(blocks: Sequence[ColumnBatch]) -> ColumnBatch:
    """One batch holding ``blocks``' rows back to back.

    Used to keep a shuffle's scatter output columnar-at-rest: the
    per-source sub-batches landing on one destination partition
    concatenate (in arrival order, matching the row-at-a-time merge
    exactly) into that partition's cached batch, so downstream
    exchange operators skip re-packing the very columns the scatter
    just produced.  Columns concatenate per backing store — numpy
    arrays in C (dtype promotion only ever widens ``<U`` strings,
    values unchanged), everything else through exact Python scalars.
    """
    if len(blocks) == 1:
        return blocks[0]
    schema = blocks[0].schema
    cols: list[Any] = []
    for j in range(schema.arity):
        pieces = [b.columns[j] for b in blocks]
        if any(p is None for p in pieces):
            cols.append(None)
        elif _np is not None and all(
            isinstance(p, _np.ndarray) for p in pieces
        ):
            cols.append(_np.concatenate(pieces))
        else:
            merged: list = []
            for p in pieces:
                merged.extend(p if type(p) is list else _column_list(p))
            cols.append(merged)
    return ColumnBatch(
        schema, tuple(cols), sum(b.nrows for b in blocks)
    )


# ---------------------------------------------------------------------------
# Vector-evaluation helpers (the namespace of generated vector kernels)
# ---------------------------------------------------------------------------


def as_vector(col: Any) -> Any:
    """A column as an operator-overloading vector (numpy or PyColumn)."""
    if _np is not None and isinstance(col, _np.ndarray):
        if col.dtype.kind in ("U", "S"):
            return StrColumn(col)
        return col
    if isinstance(col, (PyColumn, StrColumn)):
        return col
    return PyColumn(col)


def broadcast(value: Any, n: int) -> Any:
    """A constant as an ``n``-row column."""
    if _np is not None and isinstance(value, (float, bool)):
        return _np.full(n, value)
    return PyColumn([value] * n)


def as_mask(value: Any, n: int) -> Any:
    """Normalize a predicate result to a boolean selection mask.

    Row-at-a-time filters apply Python truthiness; this reproduces it
    element-wise for every column representation.
    """
    if _np is not None and isinstance(value, _np.ndarray):
        if value.dtype == _np.bool_:
            return value
        return value != 0
    if isinstance(value, StrColumn):
        return value.arr != ""  # str truthiness == non-emptiness
    if isinstance(value, PyColumn):
        return PyColumn([bool(v) for v in value.data])
    # A scalar predicate (constant filter): broadcast its truthiness.
    truth = bool(value)
    if _np is not None:
        return _np.full(n, truth)
    return PyColumn([truth] * n)


def mask_count(mask: Any) -> int:
    """Number of selected rows in a mask."""
    if _np is not None and isinstance(mask, _np.ndarray):
        return int(mask.sum())
    data = mask.data if isinstance(mask, PyColumn) else mask
    return sum(1 for v in data if v)


def select_column(col: Any, mask: Any) -> Any:
    """Apply a selection mask to one column."""
    if isinstance(col, StrColumn):
        return StrColumn(select_column(col.arr, mask))
    if _np is not None and isinstance(col, _np.ndarray):
        if isinstance(mask, PyColumn):
            mask = _np.asarray(mask.data, dtype=_np.bool_)
        return col[mask]
    data = col.data if isinstance(col, PyColumn) else col
    mdata = mask.data if isinstance(mask, PyColumn) else mask
    if _np is not None and isinstance(mdata, _np.ndarray):
        mdata = mdata.tolist()
    kept = [v for v, keep in zip(data, mdata) if keep]
    return PyColumn(kept) if isinstance(col, PyColumn) else kept


def mask_and(a: Any, b: Any) -> Any:
    """Element-wise conjunction of two boolean masks."""
    if (
        _np is not None
        and isinstance(a, _np.ndarray)
        and isinstance(b, _np.ndarray)
    ):
        return a & b
    adata = a.data if isinstance(a, PyColumn) else a
    bdata = b.data if isinstance(b, PyColumn) else b
    if _np is not None and isinstance(adata, _np.ndarray):
        adata = adata.tolist()
    if _np is not None and isinstance(bdata, _np.ndarray):
        bdata = bdata.tolist()
    return PyColumn([bool(x) and bool(y) for x, y in zip(adata, bdata)])


def mask_or(a: Any, b: Any) -> Any:
    """Element-wise disjunction of two boolean masks."""
    if (
        _np is not None
        and isinstance(a, _np.ndarray)
        and isinstance(b, _np.ndarray)
    ):
        return a | b
    adata = a.data if isinstance(a, PyColumn) else a
    bdata = b.data if isinstance(b, PyColumn) else b
    if _np is not None and isinstance(adata, _np.ndarray):
        adata = adata.tolist()
    if _np is not None and isinstance(bdata, _np.ndarray):
        bdata = bdata.tolist()
    return PyColumn([bool(x) or bool(y) for x, y in zip(adata, bdata)])


def mask_not(a: Any) -> Any:
    """Element-wise negation of a boolean mask."""
    if _np is not None and isinstance(a, _np.ndarray):
        return ~a
    data = a.data if isinstance(a, PyColumn) else a
    return PyColumn([not bool(v) for v in data])
