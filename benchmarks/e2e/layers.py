"""The metric tables and how the per-layer numbers are put together.

``BENCHMARK.json`` at the repository root is the one list of workload
and metric names, units, directions and bounds; this module reads it.
``*_s`` per-layer values are self time in seconds (``perf_counter``, as
measured) per job, averaged over the traced jobs; counts are per job and
come from ``engine.metrics``, ``CompiledProgram.report``/``.trace``,
``JobHandle`` or ``PlanCache.stats``.  A layer that a workload never
enters reads 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Iterable

import spans

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(
    os.path.join(os.path.dirname(os.path.dirname(_HERE)), "BENCHMARK.json"),
    encoding="utf-8",
) as _spec_file:
    _SPEC = json.load(_spec_file)

#: the workloads, in the order they run (``workloads.WORKLOADS`` has the
#: classes; this module stays importable without ``repro``)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

_COMPILE_SPAN = spans.span_name("repro.optimizer.pipeline", "compile_program")
_SIZE_SPANS = tuple(
    spans.span_name(module, attr)
    for metric, module, attr in spans.WRAPS
    if metric == "engines.sizes.estimate_s"
)


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def span_metrics(tracer: spans.Tracer, jobs: int) -> dict[str, float]:
    """Per-job self seconds for every ``*_s`` metric fed by a wrap."""
    self_s = spans.self_seconds(tracer.spans)
    compile_s = sum(
        span[spans.END] - span[spans.START]
        for span in tracer.spans
        if span[spans.NAME] == _COMPILE_SPAN
    )
    out: dict[str, float] = defaultdict(float)
    for metric, module, attr in spans.WRAPS:
        out[metric] += self_s.get(spans.span_name(module, attr), 0.0) / jobs
    out["optimizer.pipeline.compile_s"] = compile_s / jobs
    calls = tracer.calls()
    out["engines.sizes.calls"] = sum(calls.get(s, 0) for s in _SIZE_SPANS) / jobs
    return dict(out)


def compile_counts(programs: list) -> dict[str, float]:
    """Pass counts summed over the compiled programs behind one job."""
    reports = [p.report for p in programs]
    return {
        "optimizer.pipeline.passes_fired": sum(
            len(p.trace.fired_rules()) for p in programs
        ),
        "optimizer.pipeline.sites": sum(r.dataflow_sites for r in reports),
        "comprehension.normalize.unnests": sum(
            r.exists_unnests + r.generator_unnests + r.head_unnests
            for r in reports
        ),
        "optimizer.fold_group_fusion.fused_folds": sum(
            r.fused_folds for r in reports
        ),
        "optimizer.reorder.reorders_applied": sum(
            r.reorders_applied for r in reports
        ),
        "optimizer.columnar_select.columnar_chains": sum(
            r.columnar_chains for r in reports
        ),
        "optimizer.columnar_select.columnar_exchanges": sum(
            r.columnar_exchanges for r in reports
        ),
        "lowering.chaining.chained_operators": sum(
            r.chained_operators for r in reports
        ),
    }


def engine_metrics(m: Any) -> dict[str, float]:
    """One job's engine counters under their per-layer names."""
    return {
        "comprehension.exprs.udf_invocations": m.udf_invocations,
        "engines.base.job_wall_s": m.wall_clock_seconds,
        "engines.base.dataflow_jobs": m.jobs_submitted,
        "engines.base.stages": m.stages_run,
        "engines.base.simulated_s": m.simulated_seconds,
        "engines.executor.records_shuffled": m.records_shuffled,
        "engines.executor.shuffle_bytes": m.shuffle_bytes,
        "engines.executor.broadcast_bytes": m.broadcast_bytes,
        "engines.executor.element_ops": m.element_ops,
        "engines.columnar.batches_built": m.columnar_batches_built,
        "engines.columnar.kernels": m.columnar_kernels,
        "engines.columnar.fallbacks": m.columnar_fallbacks,
        "engines.columnar.exchanges": (
            m.columnar_shuffles + m.columnar_joins + m.columnar_groups
        ),
        "engines.dfs.read_bytes": m.dfs_read_bytes,
    }


def complete(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; layers not entered read 0."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"not in BENCHMARK.json per_layer: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
