"""Simulated parallel runtime engines.

The paper evaluates on Spark v1.2 and Flink v0.8 clusters; neither is
available here, so this subpackage implements both execution models
from scratch as single-process simulators that really move tuples
between simulated workers and charge every byte and element operation
to a calibrated cost model:

* :class:`repro.engines.local.LocalEngine` — direct host-language
  execution (the development/debugging mode and the test oracle);
* :class:`repro.engines.sparklike.SparkLikeEngine` — lazy acyclic
  dataflows with lineage recomputation, stage-per-shuffle overheads,
  in-memory caching, and cheap broadcasts;
* :class:`repro.engines.flinklike.FlinkLikeEngine` — pipelined operator
  chains, costly per-task broadcast materialization, and *no* in-memory
  cache (cached results spill to the simulated DFS), matching the
  paper's observations about Flink v0.8.

Engines execute combinator dataflows (:mod:`repro.lowering`) and return
driver-side values; a :class:`repro.engines.metrics.Metrics` object
accumulates simulated seconds, shuffled/broadcast/DFS bytes, and element
operations.
"""

from repro.engines.base import BagHandle, DeferredBag, Engine
from repro.engines.cluster import ClusterConfig, PartitionedBag, Partitioner
from repro.engines.costmodel import CostModel
from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.local import LocalEngine
from repro.engines.metrics import Metrics
from repro.engines.plancache import (
    CacheStats,
    PlanCache,
    default_plan_cache,
)
from repro.engines.scheduler import (
    EXECUTION_MODES,
    PartitionTask,
    TaskScheduler,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.engines.tracing import (
    CompileTrace,
    RuntimeTracer,
    TracedRun,
    TraceEvent,
    TraceSpan,
    render_span_tree,
)

__all__ = [
    "BagHandle",
    "DeferredBag",
    "Engine",
    "ClusterConfig",
    "PartitionedBag",
    "Partitioner",
    "CostModel",
    "SimulatedDFS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "FlinkLikeEngine",
    "LocalEngine",
    "Metrics",
    "CacheStats",
    "PlanCache",
    "default_plan_cache",
    "EXECUTION_MODES",
    "PartitionTask",
    "TaskScheduler",
    "SparkLikeEngine",
    "CompileTrace",
    "RuntimeTracer",
    "TracedRun",
    "TraceEvent",
    "TraceSpan",
    "render_span_tree",
]
