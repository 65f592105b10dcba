"""Outside-in span tracing for the end-to-end benchmark.

The benchmark owns the tracing: :class:`Tracer` swaps coarse public
callables of ``repro`` for timing wrappers, keeps the spans in memory,
and puts the originals back.  Nothing under ``src/`` knows about it.
A callable is replaced on its owning module or class *and* on every
loaded ``repro`` module that imported it by name (``from x import f``
binds a second reference that patching ``x.f`` alone would miss).

A span is ``[name, start, end, parent, job_id, thread]``; ``parent`` is
the enclosing span on the same thread (``None`` for a root).  A layer's
self time is its duration minus the durations of its direct children,
so self times of one job add up to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Iterator

NAME, START, END, PARENT, JOB, THREAD = range(6)

#: (per-layer metric the self time feeds, owning module, attribute).
#: ``Class.method`` attributes are patched on the class.  Only coarse
#: calls belong here (a few thousand per job at most): the wrapper costs
#: about a microsecond, and ``bench.trace_overhead_ratio`` polices it.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("frontend.parallelize.self_s", "repro.frontend.parallelize", "Algorithm.run"),
    ("frontend.lift.self_s", "repro.frontend.lift", "lift_function"),
    ("frontend.runtime.self_s", "repro.frontend.runtime", "run_compiled"),
    ("comprehension.resugar.self_s", "repro.comprehension.resugar", "resugar"),
    ("comprehension.normalize.self_s", "repro.comprehension.normalize", "normalize"),
    ("optimizer.pipeline.self_s", "repro.optimizer.pipeline", "compile_program"),
    ("optimizer.fingerprint.plan_fp_s", "repro.optimizer.fingerprint", "plan_fingerprint"),
    ("optimizer.fingerprint.snapshot_fp_s", "repro.optimizer.fingerprint", "snapshot_fingerprint"),
    ("optimizer.inlining.self_s", "repro.optimizer.inlining", "inline_single_use"),
    ("optimizer.caching.self_s", "repro.optimizer.caching", "plan_caching"),
    ("optimizer.caching.self_s", "repro.optimizer.caching", "insert_cache_statements"),
    ("optimizer.fold_group_fusion.self_s", "repro.optimizer.fold_group_fusion", "fold_group_fusion"),
    ("optimizer.reorder.self_s", "repro.optimizer.reorder", "reorder_operators"),
    ("optimizer.partition_pulling.self_s", "repro.optimizer.partition_pulling", "collect_partition_uses"),
    ("optimizer.partition_pulling.self_s", "repro.optimizer.partition_pulling", "choose_partition_keys"),
    ("optimizer.physical_props.self_s", "repro.optimizer.physical_props", "annotate_physical"),
    ("optimizer.columnar_select.self_s", "repro.optimizer.columnar_select", "select_columnar"),
    ("lowering.rules.self_s", "repro.lowering.rules", "lower"),
    ("lowering.chaining.self_s", "repro.lowering.chaining", "chain_operators"),
    ("engines.executor.self_s", "repro.engines.executor", "JobExecutor.run"),
    ("engines.executor.self_s", "repro.engines.executor", "JobExecutor.run_bag"),
    ("engines.executor.shuffle_s", "repro.engines.executor", "JobExecutor.shuffle_by_key"),
    ("engines.executor.broadcast_s", "repro.engines.executor", "JobExecutor.broadcast_value"),
    ("engines.columnar.pack_s", "repro.engines.columnar", "build_batch"),
    ("engines.columnar.pack_s", "repro.engines.columnar", "batch_from_records"),
    ("engines.columnar.unpack_s", "repro.engines.columnar", "ColumnBatch.to_records"),
    ("engines.columnar.bucket_scatter_s", "repro.engines.columnar", "bucket_indices"),
    ("engines.columnar.bucket_scatter_s", "repro.engines.columnar", "scatter_batch"),
    ("engines.columnar.bucket_scatter_s", "repro.engines.columnar", "concat_batches"),
    ("engines.columnar.probe_s", "repro.engines.columnar", "probe_join"),
    ("engines.chainkernel.build_s", "repro.engines.chainkernel", "build_chain_kernel"),
    ("engines.chainkernel.build_s", "repro.engines.chainkernel", "build_vector_kernel"),
    ("engines.chainkernel.build_s", "repro.engines.chainkernel", "build_key_kernel"),
    ("engines.chainkernel.run_batch_s", "repro.engines.chainkernel", "VectorKernel.run_batch"),
    ("engines.sizes.estimate_s", "repro.engines.sizes", "estimate_bag_bytes"),
    ("engines.sizes.estimate_s", "repro.engines.sizes", "estimate_partitions_bytes"),
    ("engines.sizes.estimate_s", "repro.engines.sizes", "estimate_blocks_bytes"),
    ("engines.sizes.estimate_s", "repro.engines.sizes", "estimate_column_bytes"),
    ("engines.dfs.read_s", "repro.engines.dfs", "SimulatedDFS.get"),
    ("engines.stateful.update_s", "repro.engines.stateful", "DistributedStatefulBag.update_with_messages"),
    ("engines.plancache.plan_lookup_s", "repro.engines.plancache", "PlanCache.lookup_plan"),
    ("engines.plancache.result_lookup_s", "repro.engines.plancache", "PlanCache.lookup_result"),
    ("engines.plancache.result_store_s", "repro.engines.plancache", "PlanCache.store_result"),
    ("server.submit_s", "repro.server", "JobService.submit"),
)


def span_name(module: str, attr: str) -> str:
    """``repro.engines.sizes`` + ``estimate_bag_bytes`` -> ``engines.sizes.estimate_bag_bytes``."""
    return f"{module.removeprefix('repro.')}.{attr}"


class Tracer:
    """Collects spans while installed; a context manager.

    ``with tracer:`` patches every callable in ``wraps`` and always
    restores the originals, also when the body raises.  Inside, wrap
    each job in ``with tracer.job(job_id):`` so its spans share the id.
    """

    def __init__(self, wraps: Iterable[tuple[str, str, str]] = WRAPS) -> None:
        self.wraps = tuple(wraps)
        self.spans: list[list] = []
        self._local = threading.local()
        #: (namespace, key, original, wrapper) of every live patch
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threading.current_thread().name
            span = [
                name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                getattr(local, "job", None),
                local.thread,
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def job(self, job_id: Any) -> Iterator[None]:
        """Tag the spans this thread records inside the scope."""
        self._local.job = job_id
        try:
            yield
        finally:
            self._local.job = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for _metric, module_name, attr in self.wraps:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrapper(name, original)
                setattr(cls, method, wrapper)
                self._patches.append((cls, method, original, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod, key, value in _repro_bindings():
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original, wrapper))

    def uninstall(self) -> None:
        for namespace, key, original, _wrapper in reversed(self._patches):
            setattr(namespace, key, original)
        # A module first imported while the tracer was live bound the
        # wrapper by name; give it the original too.
        originals = {id(w): o for _, _, o, w in self._patches}
        for mod, key, value in _repro_bindings():
            if id(value) in originals:
                setattr(mod, key, originals[id(value)])
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def calls(self) -> Counter:
        """Number of spans per span name."""
        return Counter(span[NAME] for span in self.spans)

    def write_jsonl(self, path: str, meta: dict | None = None) -> None:
        """One JSON object per line: a header, then every span.

        ``id``/``parent`` are indices into the file's span order;
        ``start``/``end`` are ``perf_counter`` seconds of this process.
        """
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": meta or {}}) + "\n")
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": None if parent is None else index[id(parent)],
                            "job_id": span[JOB],
                            "thread": span[THREAD],
                        }
                    )
                    + "\n"
                )


def _repro_bindings() -> list[tuple[Any, str, Any]]:
    """(module, name, value) of every global of every loaded ``repro`` module."""
    return [
        (mod, key, value)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and mod_name.startswith("repro")
        for key, value in list(vars(mod).items())
    ]


def self_seconds(spans: Iterable[list]) -> dict[str, float]:
    """Self time (duration minus direct children) summed per span name."""
    spans = list(spans)
    own = {id(span): span[END] - span[START] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            own[id(parent)] -= span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += own[id(span)]
    return dict(totals)
