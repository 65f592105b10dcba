"""The calibrated cost model shared by the simulated engines.

Constants are chosen to mirror the paper's cluster (40 nodes, 8 cores,
16 GB RAM, 1 GbE) *in relative terms*: what matters for reproducing the
experiment shapes is the ratio between CPU throughput, network
bandwidth, disk bandwidth, and fixed overheads — not their absolute
values.  Engine-specific behaviour (broadcast handling, caching medium,
per-stage overheads) is expressed as engine parameters referencing this
model, see :mod:`repro.engines.sparklike` / :mod:`repro.engines.flinklike`.

All converters return *seconds of busy time* for the given volume; the
caller decides which worker(s) to charge.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Bandwidths, throughputs, and overheads of the simulated cluster."""

    #: aggregate per-worker network bandwidth, bytes/second
    network_bandwidth: float = 100e6
    #: per-worker local disk bandwidth, bytes/second
    disk_bandwidth: float = 150e6
    #: DFS (HDFS-like) per-worker bandwidth, bytes/second (replication
    #: makes writes slower than reads)
    dfs_read_bandwidth: float = 120e6
    dfs_write_bandwidth: float = 60e6
    #: element operations per second per worker (a UDF call, a hash
    #: probe, an accumulator update each count as one element op)
    cpu_throughput: float = 2e6
    #: record bytes per extra element op for record-processing UDFs —
    #: parsing/feature-extracting a 2 KB record costs proportionally
    #: more CPU than probing an 8-byte key
    cpu_bytes_per_op: float = 16.0
    #: driver <-> cluster link bandwidth, bytes/second
    driver_bandwidth: float = 50e6

    #: fixed overhead per submitted dataflow job, seconds
    job_overhead: float = 0.2
    #: fixed overhead per stage (shuffle boundary), seconds
    stage_overhead: float = 0.05

    #: per-worker memory available for materializing groups, bytes
    memory_per_worker: int = 512 * 1024 * 1024

    # -- converters ------------------------------------------------------

    def network_seconds(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over one worker's network link."""
        return nbytes / self.network_bandwidth

    def disk_seconds(self, nbytes: float) -> float:
        """Seconds to stream ``nbytes`` through one local disk."""
        return nbytes / self.disk_bandwidth

    def dfs_read_seconds(self, nbytes: float) -> float:
        """Seconds for one worker to read ``nbytes`` from the DFS."""
        return nbytes / self.dfs_read_bandwidth

    def dfs_write_seconds(self, nbytes: float) -> float:
        """Seconds for one worker to write ``nbytes`` to the DFS."""
        return nbytes / self.dfs_write_bandwidth

    def cpu_seconds(self, ops: float) -> float:
        """Seconds for one worker to perform ``ops`` element ops."""
        return ops / self.cpu_throughput

    def driver_seconds(self, nbytes: float) -> float:
        """Seconds to ship ``nbytes`` between driver and cluster."""
        return nbytes / self.driver_bandwidth

    # -- join strategy estimates ----------------------------------------

    def broadcast_join_seconds(
        self, small_bytes: float, factor: float = 1.0
    ) -> float:
        """Estimated per-worker critical-path seconds of a broadcast
        join's data motion: every worker receives the whole build side
        (times the engine's broadcast-handling ``factor``)."""
        return self.network_seconds(small_bytes * factor)

    def repartition_join_seconds(
        self, moved_bytes: float, num_workers: int
    ) -> float:
        """Estimated per-worker critical-path seconds of a repartition
        join's data motion: the moved bytes are sent and received once
        each, spread across the workers.  Bytes already delivered in
        the required partitioning (or served from the hoist cache)
        should be excluded by the caller."""
        return self.network_seconds(
            2.0 * moved_bytes / max(num_workers, 1)
        )
