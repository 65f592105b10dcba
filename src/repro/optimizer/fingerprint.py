"""Content fingerprints for compiled plans and input snapshots.

The deep embedding reifies whole programs as values, so a program has
a *content identity*: hash the lifted IR and you can recognize the
same program across driver processes.  This module computes the two
fingerprints behind :mod:`repro.engines.plancache`:

* :func:`plan_fingerprint` — SHA-256 over the canonical rendering of
  the lifted driver IR (statement structure, comprehension views, and
  every lifted UDF body in the pretty notation of
  :func:`repro.frontend.driver_ir.pretty_program`) combined with every
  *plan-affecting* :class:`~repro.optimizer.pipeline.EmmaConfig` knob
  (:data:`PLAN_KNOBS`).  Runtime-only knobs (execution mode, fault
  plan, memory budget, tracing...) are deliberately excluded: the same
  cached plan serves every backend because results are bit-identical
  across them.
* :func:`snapshot_fingerprint` — SHA-256 over the content digests
  (:func:`~repro.engines.cluster.content_digest`) of a run's actual
  inputs: parameter values, captured closure bindings, and the
  *contents* of every simulated-DFS file a string parameter points at.
  Returns ``None`` when any input has no stable content identity, in
  which case the run is simply not result-cacheable.

Both are pure functions of IR + values — no clocks, no ``id()``s — so
equal fingerprints across two driver processes mean the compiled plan
and the memoized result are interchangeable.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields, is_dataclass
from types import ModuleType
from typing import Any, Mapping

from repro.core.databag import DataBag
from repro.engines.cluster import canonical_bytes, content_digest
from repro.engines.dfs import SimulatedDFS
from repro.errors import EngineError
from repro.frontend.driver_ir import DriverProgram, pretty_program
from repro.optimizer.pipeline import EmmaConfig

#: The ``EmmaConfig`` fields that change what ``compile_program``
#: produces — those the config class declares as plan knobs.  Toggling
#: any of these yields a different fingerprint and therefore a
#: plan-cache miss; every other config field is a runtime knob that
#: reuses the same cached plan.
PLAN_KNOBS: tuple[str, ...] = tuple(
    f.name for f in fields(EmmaConfig) if f.metadata["knob"] == "plan"
)

#: Leads every snapshot payload; bumped whenever a digest changes
#: meaning, so result blobs keyed by an older scheme miss rather than
#: being served.  (v1 digested with the 32-bit partition hash, under
#: which ``set()``, ``{0}`` and ``{0, 1, 2, 3}`` were one input.)
SNAPSHOT_FORMAT = "snapshot-v2"


def canonical_program_text(program: DriverProgram) -> str:
    """The canonical, process-independent rendering of lifted IR.

    The pretty pseudo-code printer is deterministic over the IR tree
    and ignores source line numbers (they are ``compare=False`` lift
    metadata), so two lifts of the same source — in different driver
    processes, from differently-located files — render identically.
    """
    return pretty_program(program)


def plan_fingerprint(
    program: DriverProgram, config: EmmaConfig
) -> str:
    """The content fingerprint keying the plan cache (hex SHA-256)."""
    digest = hashlib.sha256()
    digest.update(canonical_program_text(program).encode("utf-8"))
    for name in PLAN_KNOBS:
        value = getattr(config, name)
        digest.update(f"\n::knob {name}={value!r}".encode("utf-8"))
    return digest.hexdigest()


def snapshot_fingerprint(
    params: Mapping[str, Any],
    captured: Mapping[str, Any] | None = None,
    dfs: SimulatedDFS | None = None,
) -> str | None:
    """The content fingerprint of one run's inputs (hex SHA-256).

    ``params`` are digested by value; string parameters naming a staged
    DFS file additionally digest that file's records, so re-staging
    different data at the same path invalidates memoized results.
    ``captured`` closure bindings are digested the same way (without
    path resolution).  Returns ``None`` — *uncacheable* — as soon as
    any value lacks a stable content identity.
    """
    parts: list[tuple] = []
    for name in sorted(params):
        digest = value_digest(params[name], dfs=dfs)
        if digest is None:
            return None
        parts.append(("param", name, digest))
    for name in sorted(captured or {}):
        digest = value_digest(captured[name])
        if digest is None:
            return None
        parts.append(("captured", name, digest))
    payload = repr((SNAPSHOT_FORMAT, tuple(parts))).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: Per-``DfsFile`` content-digest memo.  ``dfs.put`` replaces the
#: whole ``DfsFile`` object, so keying on object identity caches the
#: O(records) digest across repeated snapshot fingerprints of unchanged
#: inputs while re-staged data naturally misses.  Keys are ``id()``s
#: (``DfsFile`` is an eq-dataclass, hence unhashable) with a finalizer
#: evicting each entry when its file dies, so recycled ids can never
#: serve a stale digest.
_FILE_DIGESTS: dict[int, str] = {}


def _memoized_file_digest(stored: Any) -> str | None:
    """The content digest of one ``DfsFile``, memoized per object.

    Streamed: one SHA-256 fed each record's canonical encoding in turn,
    so digesting a large staged table never holds its whole encoding.
    """
    key = id(stored)
    if key in _FILE_DIGESTS:
        return _FILE_DIGESTS[key]
    digest = hashlib.sha256()
    try:
        for record in stored.records:
            digest.update(canonical_bytes(record))
    except EngineError:
        return None
    content = digest.hexdigest()
    _FILE_DIGESTS[key] = content
    weakref.finalize(stored, _FILE_DIGESTS.pop, key, None)
    return content


def value_digest(
    value: Any, dfs: SimulatedDFS | None = None
) -> tuple | None:
    """A process-independent content digest of one input value.

    Extends the closed set of :func:`~repro.engines.cluster.
    content_digest` with the shapes that appear in captured driver
    bindings: classes and named functions digest by qualified name,
    modules by name, ``DataBag``s by content, and repo-internal value
    objects (e.g. I/O formats) by class plus instance attributes.
    Returns ``None`` for anything without a stable identity — never a
    guess.
    """
    if isinstance(value, str):
        if dfs is not None and dfs.exists(value):
            stored = dfs.get(value)
            content = _memoized_file_digest(stored)
            if content is None:
                return None
            return ("path", value, content, len(stored.records))
        return ("str", value)
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    if isinstance(value, ModuleType):
        return ("module", value.__name__)
    if isinstance(value, DataBag):
        try:
            return ("bag", content_digest(value.fetch()))
        except EngineError:
            return None
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module and qualname and "<locals>" not in qualname:
            return ("fn", module, qualname)
        return None
    try:
        return ("value", content_digest(value))
    except EngineError:
        pass
    # Containers/records mixing plain data with classes or callables
    # digest structurally; each element goes back through the full
    # dispatch above.
    if is_dataclass(value) and not isinstance(value, type):
        return _items_digest(
            ("record", type(value).__module__, type(value).__qualname__),
            ((f.name, getattr(value, f.name)) for f in fields(value)),
            dfs,
        )
    if isinstance(value, (tuple, list)):
        return _items_digest(
            ("seq", type(value).__name__),
            ((str(i), item) for i, item in enumerate(value)),
            dfs,
        )
    if isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError:
            return None
        return _items_digest(
            ("map",), ((repr(k), v) for k, v in items), dfs
        )
    if type(value).__module__.partition(".")[0] == "repro":
        # Repo-internal value objects (I/O formats, configs) carry all
        # their state in instance attributes; arbitrary foreign objects
        # stay uncacheable.
        try:
            attrs = sorted(vars(value).items())
        except TypeError:
            return None
        return _items_digest(
            ("obj", type(value).__module__, type(value).__qualname__),
            attrs,
            dfs,
        )
    return None


def _items_digest(
    head: tuple, items: Any, dfs: SimulatedDFS | None
) -> tuple | None:
    out = []
    for name, item in items:
        digest = value_digest(item, dfs=dfs)
        if digest is None:
            return None
        out.append((name, digest))
    return head + (tuple(out),)
