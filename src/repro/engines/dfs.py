"""A simulated distributed filesystem (the HDFS substitute).

Workload generators *stage* datasets into the DFS with :meth:`put`;
dataflow ``Source`` operators read them back, charging DFS read time to
the cost model.  Engines without in-memory caching (the Flink-like one)
also spill cached intermediates here, which is how the paper explains
Flink's missing caching benefit in Section 5.2.

Files store Python records plus their estimated serialized size; reads
hand out the record list without copying (operators must not mutate
records — they never do, records are treated as immutable throughout).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Sequence

from repro.engines.sizes import estimate_bag_bytes
from repro.errors import EngineError


@dataclass
class DfsFile:
    """One stored file: records plus estimated serialized bytes."""

    records: list[Any]
    nbytes: int


class SimulatedDFS:
    """A path -> file mapping with byte-size bookkeeping.

    Besides the simulated record store, the DFS owns a **spill tier**:
    a lazily created host temp directory holding *real* byte files for
    the out-of-core layer (evicted partitions and hoisted bags,
    external-merge runs).  Spill files are host-resource
    mechanics, not simulated cluster state — reads and writes through
    the spill tier charge no simulated time and are accounted only in
    the engine's ``spill_bytes_written``/``spill_bytes_read`` metrics.
    The directory is removed when the DFS object dies.
    """

    def __init__(self) -> None:
        self._files: dict[str, DfsFile] = {}
        self._spill_dir: str | None = None
        self._spill_seq = 0

    # -- the real-file spill tier -----------------------------------------

    def spill_dir(self) -> str:
        """The host temp directory backing spill files (lazily made)."""
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            weakref.finalize(
                self, shutil.rmtree, self._spill_dir, ignore_errors=True
            )
        return self._spill_dir

    def spill_put_bytes(self, data: bytes, tag: str = "part") -> str:
        """Write one spill file; returns its absolute host path."""
        self._spill_seq += 1
        path = os.path.join(
            self.spill_dir(), f"{tag}-{self._spill_seq}.bin"
        )
        with open(path, "wb") as f:
            f.write(data)
        return path

    def spill_get_bytes(self, path: str) -> bytes:
        """Read one spill file back (raises EngineError if gone)."""
        try:
            with open(path, "rb") as f:
                return f.read()
        except OSError as exc:
            raise EngineError(
                f"spill file vanished: {path!r} ({exc})"
            ) from exc

    def spill_delete(self, path: str) -> None:
        """Remove one spill file if present (idempotent)."""
        try:
            os.remove(path)
        except OSError:
            pass

    def spill_file_count(self) -> int:
        """Live spill files on disk (0 before any spill happened)."""
        if self._spill_dir is None:
            return 0
        return len(os.listdir(self._spill_dir))

    def put(self, path: str, records: Sequence[Any]) -> DfsFile:
        """Stage a dataset (no cost accounting — setup, not execution)."""
        stored = DfsFile(records=list(records), nbytes=estimate_bag_bytes(records))
        self._files[path] = stored
        return stored

    def get(self, path: str) -> DfsFile:
        """The stored file at ``path`` (raises EngineError if absent)."""
        if path not in self._files:
            raise EngineError(f"no such DFS file: {path!r}")
        return self._files[path]

    def exists(self, path: str) -> bool:
        """Whether a file is staged at ``path``."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path`` if present (idempotent)."""
        self._files.pop(path, None)

    def listdir(self) -> list[str]:
        """All staged paths, sorted."""
        return sorted(self._files)

    def total_bytes(self) -> int:
        """Total estimated bytes across all staged files."""
        return sum(f.nbytes for f in self._files.values())
