"""The two-level cross-run fingerprint cache (plans and results).

Every run used to pay lift + optimize + codegen + execute in a fresh
driver even when the program and inputs were byte-identical to the
last run.  Because the deep embedding reifies plans as hashable values
(:mod:`repro.optimizer.fingerprint`), both levels of that redundancy
are cacheable:

* **Level 1 — plan cache.**  Keyed by the plan fingerprint (canonical
  lifted IR + plan-affecting ``EmmaConfig`` knobs), an entry holds the
  whole pickled :class:`~repro.optimizer.pipeline.CompiledProgram`:
  lowered combinator DAGs, fused chain kernels and vector-kernel
  selections, physical-planning annotations, partition keys, and the
  compile-provenance trace.  Entries are written through to disk, so a
  *fresh driver process* pointed at the same cache directory skips the
  entire optimizer/codegen pipeline on a hit.
* **Level 2 — result cache.**  Keyed by (plan fingerprint, input
  snapshot fingerprint), an entry memoizes a run's final value; a warm
  submission is answered without executing anything, and a batch
  submission with a partial hit *backfills* only its missing inputs
  (:meth:`repro.server.JobService.submit_batch`).

Entries resident in driver memory are pickled blobs behind a SHA-256
of the pickle, written through to one file each.  They are the
write-through client of :class:`~repro.engines.spill.BudgetedStore`,
the same store the spill tier uses: under a memory limit (wired to the
engine's ``memory_budget`` by
:meth:`~repro.engines.base.Engine.attach_plan_cache`) the least
recently used blobs drop to their files and reload on demand.  A file
whose digest does not match (corrupt, or an older format) or that
vanished is a miss, and the entry is forgotten.  The digest guards
integrity only: unpickling runs code, so the cache directory must be
as trusted as the program itself.

Cache traffic is driver-host mechanics: hits skip host work but the
runs that *do* execute keep bit-identical results,
``simulated_seconds``, and fault schedules.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.databag import DataBag
from repro.engines.metrics import Metrics
from repro.engines.spill import BudgetedStore, Stored

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.frontend.parallelize import Algorithm
    from repro.optimizer.pipeline import CompiledProgram, EmmaConfig

_SUFFIX = ".pkl"
#: (key kind, key length) of the two entry kinds
_KINDS = {("plan", 2), ("result", 3)}
#: bytes of the SHA-256 digest that leads every blob
_DIGEST = 32


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PlanCache` (across all jobs)."""

    plan_hits: int = 0
    plan_misses: int = 0
    plan_stores: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_stores: int = 0
    #: entries that could not be pickled and were left uncached
    store_skips: int = 0
    #: in-memory blobs dropped to the disk tier under the memory limit
    evictions: int = 0
    #: evicted/foreign entries re-read from their disk files
    disk_loads: int = 0
    #: host compile seconds skipped by plan hits
    compile_seconds_saved: float = 0.0

    def hit_rate(self) -> dict[str, float]:
        """Plan and result hit rates (0.0 when a level saw no lookups)."""
        plan_total = self.plan_hits + self.plan_misses
        result_total = self.result_hits + self.result_misses
        return {
            "plan": self.plan_hits / plan_total if plan_total else 0.0,
            "result": (
                self.result_hits / result_total if result_total else 0.0
            ),
        }


class _WriteThrough:
    """How plan and result entries leave memory: their file exists from
    the moment of the store, so eviction only drops the blob.  A blob
    read back from disk is served only if it matches its digest."""

    __slots__ = ("cache",)

    def __init__(self, cache: "PlanCache") -> None:
        self.cache = cache

    def evict(self, entry: Stored) -> None:
        self.cache.stats.evictions += 1
        if self.cache._metrics is not None:
            self.cache._metrics.cache_entries_evicted += 1
        return None

    def load(self, entry: Stored, buf: bytes) -> bytes | None:
        if hashlib.sha256(memoryview(buf)[_DIGEST:]).digest() != buf[:_DIGEST]:
            return None  # corrupt, or written by an older format
        self.cache.stats.disk_loads += 1
        return buf


class PlanCache:
    """The two-level fingerprint cache (see module docstring).

    Thread-safe: the job service executes many concurrent jobs against
    one shared cache.  ``cache_dir`` is the persistence root — two
    driver processes pointed at the same directory share warm state;
    ``None`` creates a private temp directory (removed when the cache
    dies).  ``memory_limit`` bounds resident blob bytes (0 keeps
    everything resident).
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        memory_limit: int = 0,
    ) -> None:
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-plancache-")
            weakref.finalize(
                self, shutil.rmtree, cache_dir, ignore_errors=True
            )
        os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: the metrics of the call holding the lock; evictions count there
        self._metrics: Metrics | None = None
        #: ``("plan", fp)`` and ``("result", plan fp, snapshot fp)``
        #: entries, each a file ``plan-<fp>.pkl`` / ``result-<fp>-<snap>.pkl``
        self._store = BudgetedStore()
        self._store.limit = memory_limit
        self._how = _WriteThrough(self)
        for name in sorted(os.listdir(cache_dir)):
            key = tuple(name[: -len(_SUFFIX)].split("-"))
            if name.endswith(_SUFFIX) and (key[0], len(key)) in _KINDS:
                path = self._path(key)
                self._store.put(
                    key, None, os.path.getsize(path), self._how, path=path
                )

    @property
    def memory_limit(self) -> int:
        """Resident blob bytes allowed (0 = unlimited)."""
        return self._store.limit

    @contextmanager
    def _locked(self, metrics: Metrics | None) -> Iterator[None]:
        """Hold the lock, counting evictions meanwhile into ``metrics``."""
        with self._lock:
            self._metrics = metrics
            try:
                yield
            finally:
                self._metrics = None

    def _path(self, key: tuple) -> str:
        return os.path.join(self.cache_dir, "-".join(key) + _SUFFIX)

    # -- level 1: compiled plans -------------------------------------------

    def lookup_plan(
        self, fingerprint: str, metrics: Metrics | None = None
    ) -> "CompiledProgram | None":
        """The cached compiled program for a fingerprint, or ``None``.

        A hit returns a *fresh* unpickled object (safe to annotate per
        run), stamps it ``cache_origin="plan-cache"``, appends a
        provenance event to its compile trace, and charges the saved
        compile seconds to ``metrics.compile_seconds_saved``.
        """
        key = ("plan", fingerprint)
        with self._locked(metrics):
            blob = self._store.get(key)
            if blob is None:
                self.stats.plan_misses += 1
                if metrics is not None:
                    metrics.plan_cache_misses += 1
                return None
            self.stats.plan_hits += 1
        try:
            compile_seconds, compiled = _unseal(blob)
        except Exception:
            # A version-skewed file is a miss, not a crash.
            with self._lock:
                self._store.discard(key)
                self.stats.plan_hits -= 1
                self.stats.plan_misses += 1
            if metrics is not None:
                metrics.plan_cache_misses += 1
            return None
        with self._lock:
            self.stats.compile_seconds_saved += compile_seconds
        if metrics is not None:
            metrics.plan_cache_hits += 1
            metrics.compile_seconds_saved += compile_seconds
        _adopt_loaded_plan(compiled)
        compiled.cache_origin = "plan-cache"
        if compiled.trace is not None:
            compiled.trace.record(
                "fingerprint",
                "plan-cache",
                True,
                detail=(
                    f"compiled plan served from cache "
                    f"(saved {compile_seconds:.3f}s of compilation)"
                ),
            )
        return compiled

    def store_plan(
        self, compiled: "CompiledProgram", metrics: Metrics | None = None
    ) -> bool:
        """Persist a freshly compiled program under its fingerprint.

        Returns ``False`` (and caches nothing) when the program is not
        picklable — e.g. a UDF closed over an open file.
        """
        if not compiled.fingerprint:
            return False
        return self._put(
            ("plan", compiled.fingerprint),
            (compiled.compile_seconds, compiled),
            metrics,
        )

    def compiled(
        self,
        algorithm: "Algorithm",
        config: "EmmaConfig | None" = None,
        metrics: Metrics | None = None,
    ) -> "CompiledProgram":
        """Lookup-or-compile: the plan-cache doorway used by
        :meth:`Algorithm.run <repro.frontend.parallelize.Algorithm.run>`.
        """
        from repro.optimizer.fingerprint import plan_fingerprint
        from repro.optimizer.pipeline import EmmaConfig

        config = config or EmmaConfig()
        fingerprint = plan_fingerprint(algorithm.lifted.program, config)
        hit = self.lookup_plan(fingerprint, metrics=metrics)
        if hit is not None:
            return hit
        compiled = algorithm.compiled(config)
        self.store_plan(compiled, metrics=metrics)
        return compiled

    # -- level 2: memoized results -----------------------------------------

    def lookup_result(
        self,
        plan_fp: str,
        snapshot_fp: str,
        metrics: Metrics | None = None,
    ) -> tuple[bool, Any]:
        """``(hit, value)`` for a (plan, input-snapshot) key.

        Hits decode a fresh copy of the memoized value (bags rehydrate
        as new ``DataBag`` objects), so callers can never corrupt the
        cache through the returned reference.
        """
        key = ("result", plan_fp, snapshot_fp)
        with self._locked(metrics):
            blob = self._store.get(key)
        hit, value = blob is not None, None
        if hit:
            try:
                value = _decode_result(_unseal(blob))
            except Exception:
                # A version-skewed file is a miss, not a crash.
                hit = False
                with self._lock:
                    self._store.discard(key)
        with self._lock:
            if hit:
                self.stats.result_hits += 1
            else:
                self.stats.result_misses += 1
        if metrics is not None:
            if hit:
                metrics.result_cache_hits += 1
            else:
                metrics.result_cache_misses += 1
        return hit, value

    def store_result(
        self,
        plan_fp: str,
        snapshot_fp: str,
        value: Any,
        metrics: Metrics | None = None,
    ) -> bool:
        """Memoize one run's final value; ``False`` if unpicklable."""
        return self._put(
            ("result", plan_fp, snapshot_fp), _encode_result(value), metrics
        )

    def _put(self, key: tuple, obj: Any, metrics: Metrics | None) -> bool:
        """Write one entry through to its file and keep its blob."""
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.stats.store_skips += 1
            return False
        blob = hashlib.sha256(payload).digest() + payload
        path = self._path(key)
        with self._locked(metrics):
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
            self._store.put(key, blob, len(blob), self._how, path=path)
            if key[0] == "plan":
                self.stats.plan_stores += 1
            else:
                self.stats.result_stores += 1
        return True

    # -- residency ----------------------------------------------------------

    def set_memory_limit(
        self, limit: int, metrics: Metrics | None = None
    ) -> None:
        """Bound resident blob bytes (0 = unlimited); evicts eagerly.

        Evicted entries stay servable: the disk file *is* the spill
        tier, the next hit just pays a file read (``stats.disk_loads``).
        """
        with self._locked(metrics):
            self._store.set_limit(limit)

    def resident_bytes(self) -> int:
        """Blob bytes currently held in driver memory."""
        with self._lock:
            return self._store.usage

    def clear(self) -> None:
        """Forget every entry and delete the backing files."""
        with self._lock:
            self._store.drop()


def _unseal(blob: bytes) -> Any:
    """The object pickled behind a blob's digest."""
    return pickle.loads(memoryview(blob)[_DIGEST:])


def _encode_result(value: Any) -> tuple[str, Any]:
    """A pickle-friendly tagged payload for a run's final value."""
    if isinstance(value, DataBag):
        return ("bag", value.fetch())
    return ("value", value)


def _decode_result(payload: tuple[str, Any]) -> Any:
    """Rehydrate a stored payload as a fresh value."""
    kind, data = payload
    if kind == "bag":
        return DataBag(list(data))
    return data


def _adopt_loaded_plan(compiled: "CompiledProgram") -> None:
    """Keep future node ids clear of a loaded plan's ids.

    Engine hoist caches key on ``node_id``; advancing the global
    counter past every id in the loaded plan guarantees nodes compiled
    later in this driver never alias them.
    """
    from repro.lowering.combinators import (
        combinator_nodes,
        ensure_node_ids_above,
    )

    highest = -1
    for _, plan, _ in compiled.sites:
        for node in combinator_nodes(plan):
            highest = max(highest, node.node_id)
    if highest >= 0:
        ensure_node_ids_above(highest)


# -- the environment-default shared cache -----------------------------------

_DEFAULT_CACHE: PlanCache | None = None
_DEFAULT_DIR: str | None = None


def default_plan_cache() -> PlanCache | None:
    """The process-wide cache enabled by ``REPRO_PLAN_CACHE_DIR``.

    When the environment variable names a directory, every
    ``Algorithm.run`` on an engine without an explicitly attached cache
    shares this singleton — which is how CI runs the whole tier-1 suite
    cold-then-warm against one persistent cache.  Returns ``None``
    (caching off) when the variable is unset or empty.
    """
    global _DEFAULT_CACHE, _DEFAULT_DIR
    directory = os.environ.get("REPRO_PLAN_CACHE_DIR", "").strip()
    if not directory:
        return None
    if _DEFAULT_CACHE is None or _DEFAULT_DIR != directory:
        _DEFAULT_CACHE = PlanCache(cache_dir=directory)
        _DEFAULT_DIR = directory
    return _DEFAULT_CACHE
