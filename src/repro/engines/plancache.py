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

Entries resident in driver memory are pickled blobs; under a memory
limit (wired to the PR 7 ``memory_budget`` by
:meth:`~repro.engines.base.Engine.attach_plan_cache`) cold entries are
LRU-dropped to their disk tier and lazily reloaded — the same
monotone-clock discipline as :mod:`repro.engines.spill`.

Cache traffic is driver-host mechanics: hits skip host work but the
runs that *do* execute keep bit-identical results,
``simulated_seconds``, and fault schedules.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.databag import DataBag
from repro.engines.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.frontend.parallelize import Algorithm
    from repro.optimizer.pipeline import CompiledProgram, EmmaConfig

_PLAN_PREFIX = "plan-"
_RESULT_PREFIX = "result-"
_SUFFIX = ".pkl"


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


@dataclass
class _Entry:
    """One cached artifact: a pickled blob plus its disk residence."""

    path: str
    blob: bytes | None
    nbytes: int
    #: compile seconds the entry saves per hit (plan entries only)
    compile_seconds: float = 0.0
    last_used: int = 0


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
        self.memory_limit = memory_limit
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._clock = 0
        self._plans: dict[str, _Entry] = {}
        self._results: dict[tuple[str, str], _Entry] = {}
        self._adopt_disk_entries()

    def _adopt_disk_entries(self) -> None:
        """Index pre-existing cache files (blobs stay on disk)."""
        for name in sorted(os.listdir(self.cache_dir)):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.cache_dir, name)
            stem = name[: -len(_SUFFIX)]
            if stem.startswith(_PLAN_PREFIX):
                fp = stem[len(_PLAN_PREFIX) :]
                self._plans[fp] = _Entry(
                    path=path, blob=None, nbytes=os.path.getsize(path)
                )
            elif stem.startswith(_RESULT_PREFIX):
                parts = stem[len(_RESULT_PREFIX) :].split("-")
                if len(parts) != 2:
                    continue
                self._results[(parts[0], parts[1])] = _Entry(
                    path=path, blob=None, nbytes=os.path.getsize(path)
                )

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
        with self._lock:
            entry = self._plans.get(fingerprint)
            payload = self._entry_blob(entry) if entry else None
            if payload is None:
                self.stats.plan_misses += 1
                if metrics is not None:
                    metrics.plan_cache_misses += 1
                return None
            self.stats.plan_hits += 1
        try:
            compile_seconds, compiled = pickle.loads(payload)
        except Exception:
            # A corrupt or version-skewed file is a miss, not a crash.
            with self._lock:
                self._drop_entry(self._plans, fingerprint)
                self.stats.plan_hits -= 1
                self.stats.plan_misses += 1
            if metrics is not None:
                metrics.plan_cache_misses += 1
            return None
        with self._lock:
            entry.compile_seconds = compile_seconds
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

    def store_plan(self, compiled: "CompiledProgram") -> bool:
        """Persist a freshly compiled program under its fingerprint.

        Returns ``False`` (and caches nothing) when the program is not
        picklable — e.g. a UDF closed over an open file.
        """
        fingerprint = compiled.fingerprint
        if not fingerprint:
            return False
        try:
            blob = pickle.dumps(
                (compiled.compile_seconds, compiled),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            with self._lock:
                self.stats.store_skips += 1
            return False
        path = os.path.join(
            self.cache_dir, f"{_PLAN_PREFIX}{fingerprint}{_SUFFIX}"
        )
        with self._lock:
            self._write_file(path, blob)
            self._plans[fingerprint] = self._new_entry(
                path, blob, compile_seconds=compiled.compile_seconds
            )
            self.stats.plan_stores += 1
            self._evict_to_limit()
        return True

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
        self.store_plan(compiled)
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
        key = (plan_fp, snapshot_fp)
        with self._lock:
            entry = self._results.get(key)
            payload = self._entry_blob(entry) if entry else None
        hit, value = payload is not None, None
        if hit:
            try:
                value = _decode_result(pickle.loads(payload))
            except Exception:
                # A corrupt or version-skewed file is a miss, not a crash.
                hit = False
                with self._lock:
                    self._drop_entry(self._results, key)
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
        self, plan_fp: str, snapshot_fp: str, value: Any
    ) -> bool:
        """Memoize one run's final value; ``False`` if unpicklable."""
        try:
            blob = pickle.dumps(
                _encode_result(value), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            with self._lock:
                self.stats.store_skips += 1
            return False
        path = os.path.join(
            self.cache_dir,
            f"{_RESULT_PREFIX}{plan_fp}-{snapshot_fp}{_SUFFIX}",
        )
        with self._lock:
            self._write_file(path, blob)
            self._results[(plan_fp, snapshot_fp)] = self._new_entry(
                path, blob
            )
            self.stats.result_stores += 1
            self._evict_to_limit()
        return True

    # -- residency and eviction --------------------------------------------

    def set_memory_limit(
        self, limit: int, metrics: Metrics | None = None
    ) -> None:
        """Bound resident blob bytes (0 = unlimited); evicts eagerly."""
        with self._lock:
            self.memory_limit = limit
            self._evict_to_limit(metrics)

    def resident_bytes(self) -> int:
        """Pickled bytes currently held in driver memory."""
        with self._lock:
            return sum(
                e.nbytes
                for store in (self._plans, self._results)
                for e in store.values()
                if e.blob is not None
            )

    def _evict_to_limit(self, metrics: Metrics | None = None) -> None:
        """LRU-drop cold resident blobs until under the memory limit.

        The disk file *is* the spill tier — an evicted entry stays
        servable, the next hit just pays a file read (counted in
        ``stats.disk_loads``).
        """
        if not self.memory_limit:
            return
        resident = [
            e
            for store in (self._plans, self._results)
            for e in store.values()
            if e.blob is not None
        ]
        total = sum(e.nbytes for e in resident)
        resident.sort(key=lambda e: e.last_used)
        for entry in resident:
            if total <= self.memory_limit:
                break
            entry.blob = None
            total -= entry.nbytes
            self.stats.evictions += 1
            if metrics is not None:
                metrics.cache_entries_evicted += 1

    # -- internals ----------------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _new_entry(
        self, path: str, blob: bytes, compile_seconds: float = 0.0
    ) -> _Entry:
        return _Entry(
            path=path,
            blob=blob,
            nbytes=len(blob),
            compile_seconds=compile_seconds,
            last_used=self._tick(),
        )

    def _entry_blob(self, entry: _Entry) -> bytes | None:
        """The entry's blob, reloading the disk tier when evicted."""
        entry.last_used = self._tick()
        if entry.blob is not None:
            return entry.blob
        try:
            with open(entry.path, "rb") as f:
                blob = f.read()
        except OSError:
            return None
        self.stats.disk_loads += 1
        entry.blob = blob
        entry.nbytes = len(blob)
        self._evict_to_limit()
        return blob

    @staticmethod
    def _write_file(path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)

    def _drop_entry(self, store: dict, key: Any) -> None:
        entry = store.pop(key, None)
        if entry is not None:
            try:
                os.remove(entry.path)
            except OSError:
                pass

    def clear(self) -> None:
        """Forget every entry and delete the backing files."""
        with self._lock:
            for store in (self._plans, self._results):
                for key in list(store):
                    self._drop_entry(store, key)


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
