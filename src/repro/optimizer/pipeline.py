"""The compiler pass manager (paper Figure 1, steps i-iii).

``compile_program`` takes lifted driver IR and a configuration and
produces a :class:`CompiledProgram` by running :data:`PASSES`, the
compiler as one ordered table: the program passes (fingerprint,
inlining, Section 4.1; caching analysis, Section 4.4), then for every
maximal DataBag expression of the driver IR the site passes (resugar
``MC⁻¹``, normalize, fold-group fusion, lowering to a combinator
dataflow that replaces the expression as a :class:`PlanExpr`, and the
physical rewrites of that plan), then the passes that need every site
(partition pulling, physical planning).  One driver loop checks each
row's ``EmmaConfig`` knob, records its provenance and folds its stats
into the :class:`OptimizationReport` — reproducing the paper's Table 1
is a matter of compiling each program and reading its report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping

from repro.comprehension.exprs import (
    BagExpr,
    Env,
    Expr,
    FetchCall,
    FoldCall,
    Ref,
    StatefulCreate,
    StatefulUpdate,
    StatefulUpdateWithMessages,
    WriteCall,
)
from repro.comprehension.ir import BAG, Comprehension
from repro.comprehension.normalize import NormalizeStats, normalize
from repro.comprehension.resugar import resugar
from repro.engines.columnar import (
    check_columnar_mode,
    default_columnar_exchange,
    default_columnar_mode,
)
from repro.engines.faults import FaultPlan, RetryPolicy
from repro.engines.sizes import estimate_bag_bytes
from repro.engines.tracing import CompileTrace
from repro.errors import EmmaError, EngineError
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    Stmt,
    loop_mutated_names,
)
from repro.lowering.chaining import ChainStats, chain_operators
from repro.lowering.combinators import (
    CChain,
    Combinator,
    ScalarFn,
    combinator_nodes,
    explain,
    rebuild_inputs,
)
from repro.lowering.rules import LoweringContext, lower
from repro.optimizer.caching import (
    CacheDecision,
    CachingStats,
    insert_cache_statements,
    plan_caching,
)
from repro.optimizer.columnar_select import ColumnarStats, select_columnar
from repro.optimizer.fold_group_fusion import FusionStats, fold_group_fusion
from repro.optimizer.inlining import InlineStats, inline_single_use
from repro.optimizer.partition_pulling import (
    PartitionStats,
    PartitionUse,
    choose_partition_keys,
    collect_partition_uses,
)
from repro.optimizer.physical_props import PlanContext, annotate_physical
from repro.optimizer.reorder import ReorderStats, reorder_operators


#: the knobs that are rows of the paper's Table 1
TABLE1 = ("unnesting", "fold_group_fusion", "caching", "partition_pulling")
#: accepted values of ``EmmaConfig.udf_reordering``
UDF_REORDERING_MODES = ("auto", "off")


def _plan(default: Any, engine: str | tuple[str, str] | None = None) -> Any:
    """An ``EmmaConfig`` *plan knob*: it shapes what ``compile_program``
    builds, so it is part of the plan fingerprint.  A callable default
    is a factory.  ``engine`` names what ``Engine.apply_runtime_config``
    hands the value to — an attribute, or a (method, keyword) pair —
    for the few knobs the executor reads as well."""
    how = "default_factory" if callable(default) else "default"
    metadata = {"knob": "plan", "engine": engine}
    return field(**{how: default}, metadata=metadata)


def _runtime(engine: str | tuple[str, str], default: Any = None) -> Any:
    """An ``EmmaConfig`` *runtime knob*: it shapes only how an engine
    runs the plan (one cached plan serves every value); left at ``None``
    it leaves the engine as it was constructed."""
    metadata = {"knob": "runtime", "engine": engine}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class EmmaConfig:
    """Which optimizations the compiler applies and how a run executes.

    Each field says once, through :func:`_plan` / :func:`_runtime`, which
    of the two it is; the fingerprint's ``PLAN_KNOBS`` and the engine's
    ``apply_runtime_config`` are derived from that declaration.
    """

    inlining: bool = _plan(True)
    #: the exists-unnesting rule (a parameter of ``normalize``)
    unnesting: bool = _plan(True)
    fold_group_fusion: bool = _plan(True)
    caching: bool = _plan(True)
    partition_pulling: bool = _plan(True)
    #: ablation knob: disable the Figure 3a filter-pushdown state (a
    #: parameter of ``lower``)
    filter_pushdown: bool = _plan(True)
    #: physical operator chaining: fuse maximal runs of record-wise
    #: operators into one per-partition kernel (not a Table 1 row —
    #: it is the physical layer the target engines apply below the
    #: logical rewrites)
    operator_chaining: bool = _plan(True)
    #: partitioning-aware physical planning: the interesting-properties
    #: pass (:mod:`repro.optimizer.physical_props`) annotates shuffle
    #: sites as required/elidable/hoistable and joins with a plan-time
    #: strategy; the engine's cost-based strategy choice, loop-invariant
    #: hoist cache, and partitioner propagation read those annotations,
    #: so an unannotated plan runs without them (not a Table 1 row; a
    #: post-paper physical-layer pass)
    physical_planning: bool = _plan(True)
    #: UDF-aware operator reordering (:mod:`repro.optimizer.reorder`):
    #: "auto" infers field-level read/write sets over lifted UDF bodies
    #: and pushes filters below joins/groupings (and before maps) the
    #: comprehension calculus cannot move; "off" leaves black-box UDFs
    #: in place.  Results are bit-identical either way — only data
    #: volumes (shuffled bytes, operator input sizes) and therefore
    #: simulated costs move.
    udf_reordering: str = _plan("auto")

    #: deterministic fault schedule for the simulated cluster
    fault_plan: FaultPlan | None = _runtime(("configure_faults", "plan"))
    #: scheduler reaction to injected task failures
    retry_policy: RetryPolicy | None = _runtime(
        ("configure_faults", "policy")
    )
    #: stateful-bag checkpoint cadence (0 = initial snapshot only)
    checkpoint_interval: int | None = _runtime("checkpoint_interval")
    #: collect hierarchical runtime spans (:mod:`repro.engines.tracing`);
    #: ``Algorithm.run`` then returns a :class:`~repro.engines.tracing.
    #: TracedRun` instead of the bare result (``False`` never switches
    #: an engine's tracer off)
    tracing: bool = _runtime(("enable_tracing", "on"), False)
    #: columnar batch data plane, opt-in: "off" (the default) keeps
    #: every chain row-at-a-time, "auto" vectorizes eligible chains
    #: when numpy is available, "on" forces the columnar path (with a
    #: pure-Python column fallback).  Results and ``simulated_seconds``
    #: are bit-identical either way — only wall clock and byte counters
    #: move.  A plan knob because kernel *selection* runs at compile
    #: time.  Default honours ``REPRO_COLUMNAR``.
    columnar: str = _plan(
        default_columnar_mode, ("configure_columnar", "mode")
    )
    #: columnar *exchange* plane, opt-in: vectorized shuffle
    #: partitioning, hash join build/probe, and group-by over key
    #: columns ("off", the default, keeps exchanges row-at-a-time,
    #: "auto" engages when numpy is available, "on" forces the PyColumn
    #: fallback).  Independent of ``columnar`` — results,
    #: ``simulated_seconds``, and fault schedules are bit-identical
    #: either way.  Default honours ``REPRO_COLUMNAR_EXCHANGE``.
    columnar_exchange: str = _plan(
        default_columnar_exchange, ("configure_columnar_exchange", "mode")
    )
    #: how the scheduler dispatches the operators' partition tasks (the
    #: same ``TaskSpec`` per operator in either mode): "serial" (inline,
    #: in order) or "processes" (the differential-testing backend:
    #: source-shipped tasks on a process pool); results and
    #: ``simulated_seconds`` stay bit-identical — only measured wall
    #: clock changes
    execution_mode: str | None = _runtime(("configure_execution", "mode"))
    #: concurrent partition-task slots (0 = one per host CPU core)
    max_parallel_tasks: int | None = _runtime(
        ("configure_execution", "max_parallel_tasks")
    )
    #: driver memory budget in bytes for the out-of-core layer
    #: (:mod:`repro.engines.spill`): resident cached partitions, hoist
    #: caches, and columnar batches above the budget are LRU-spilled to
    #: real temp files and lazily reloaded; over-limit group
    #: materializations degrade to external run-merge instead of
    #: raising ``SimulatedMemoryError``.  ``0`` keeps everything
    #: resident.  Results, ``simulated_seconds``, and fault schedules
    #: are bit-identical under any budget — only wall clock and the
    #: ``spill_*`` metrics move.
    memory_budget: int | None = _runtime(("configure_memory", "budget"))

    def __post_init__(self) -> None:
        # Plan knobs are checked here, before a compile is paid for: a
        # typo must not compile, and must not silently enable a pass
        # (``_Compiler.enabled`` reads every value but ``False``/``"off"``
        # as on).
        for name in _BOOL_PLAN_KNOBS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise EngineError(
                    f"plan knob {name} must be True or False, "
                    f"got {value!r}"
                )
        check_columnar_mode(self.columnar)
        check_columnar_mode(self.columnar_exchange, "columnar exchange")
        if self.udf_reordering not in UDF_REORDERING_MODES:
            raise EngineError(
                f"unknown udf_reordering mode {self.udf_reordering!r}: "
                f"expected one of {UDF_REORDERING_MODES}"
            )

    @staticmethod
    def none() -> "EmmaConfig":
        """The unoptimized baseline (inlining stays on — it is a
        preprocessing step, not one of the paper's Table 1 rows)."""
        return EmmaConfig(
            unnesting=False,
            fold_group_fusion=False,
            caching=False,
            partition_pulling=False,
            operator_chaining=False,
            physical_planning=False,
            udf_reordering="off",
        )

    @staticmethod
    def all() -> "EmmaConfig":
        return EmmaConfig()

    def label(self) -> str:
        """A short human-readable configuration name."""
        rows = [r.replace("_", "-") for r in TABLE1 if getattr(self, r)]
        return "+".join(rows) or "baseline"


#: the plan knobs declared with a bool default: anything but a bool
#: is rejected
_BOOL_PLAN_KNOBS = tuple(
    f.name
    for f in fields(EmmaConfig)
    if f.metadata["knob"] == "plan" and isinstance(f.default, bool)
)


@dataclass
class OptimizationReport:
    """What the compiler did — the per-program row of Table 1."""

    config: EmmaConfig = field(default_factory=EmmaConfig)
    inlined_definitions: int = 0
    exists_unnests: int = 0
    generator_unnests: int = 0
    head_unnests: int = 0
    fused_groups: int = 0
    fused_folds: int = 0
    cache_decisions: list[CacheDecision] = field(default_factory=list)
    partition_keys: dict[str, ScalarFn] = field(default_factory=dict)
    dataflow_sites: int = 0
    operator_chains: int = 0
    chained_operators: int = 0
    #: chains the kernel-selection rule marked for the columnar plane
    columnar_chains: int = 0
    #: exchange operators (joins, group-bys) marked for columnar
    #: shuffle/build/probe over key columns
    columnar_exchanges: int = 0
    physical_joins: int = 0
    elidable_shuffle_inputs: int = 0
    hoistable_shuffle_inputs: int = 0
    #: UDF read/write-set analyses performed by the reordering pass
    udfs_analyzed: int = 0
    #: operator reorderings the pass applied / rejected on cost grounds
    reorders_applied: int = 0
    reorders_rejected: int = 0

    @property
    def unnesting_applied(self) -> bool:
        return self.exists_unnests > 0

    @property
    def fold_group_fusion_applied(self) -> bool:
        return self.fused_groups > 0

    @property
    def caching_applied(self) -> bool:
        return bool(self.cache_decisions)

    @property
    def partition_pulling_applied(self) -> bool:
        return bool(self.partition_keys)

    @property
    def operator_chaining_applied(self) -> bool:
        return self.operator_chains > 0

    @property
    def physical_planning_applied(self) -> bool:
        return bool(
            self.elidable_shuffle_inputs or self.hoistable_shuffle_inputs
        )

    @property
    def udf_reordering_applied(self) -> bool:
        return self.reorders_applied > 0

    def table1_row(self) -> dict[str, bool]:
        """The applicability row: optimization name -> applied."""
        return {r: getattr(self, f"{r}_applied") for r in TABLE1}


@dataclass(frozen=True)
class PlanExpr(Expr):
    """A compiled dataflow site embedded in a driver expression.

    ``kind`` selects the runtime action:

    * ``"bag"`` — defer (lazy thunk, Spark/Flink-style);
    * ``"scalar"`` — run the fold job now, return the scalar;
    * ``"fetch"`` — run and collect to the driver;
    * ``"write"`` — run and write the result to the simulated DFS.

    Evaluation reaches the engine through the reserved environment
    names ``__engine__`` and ``__denv__`` installed by the driver
    interpreter.
    """

    plan: Combinator = None  # type: ignore[assignment]
    kind: str = "bag"
    path: Expr | None = None

    def free_vars(self) -> frozenset[str]:
        # The plan's references resolve from the full driver env at
        # runtime; captured-name analysis ran before compilation.
        return frozenset()

    def count_uses(
        self, bound: frozenset[str], counts: dict[str, int]
    ) -> None:
        pass

    def substitute(self, mapping: Mapping[str, Expr]) -> "Expr":
        return self

    def is_bag_typed(self) -> bool:
        return self.kind == "bag"

    def evaluate(self, env: Env) -> Any:
        engine = env.lookup("__engine__")
        denv = env.lookup("__denv__")
        if self.kind == "bag":
            return engine.defer(self.plan, denv)
        if self.kind == "scalar":
            return engine.run_scalar(self.plan, denv)
        if self.kind == "fetch":
            return engine.collect(engine.defer(self.plan, denv))
        if self.kind == "write":
            records = engine.collect(engine.defer(self.plan, denv))
            path = self.path.evaluate(env)
            job = engine._new_job()
            nbytes = estimate_bag_bytes(records)
            job.charge_spread(engine.cost.dfs_write_seconds(nbytes))
            engine.metrics.dfs_write_bytes += nbytes
            engine.dfs.put(path, records)
            engine._finish_job(job)
            return None
        raise EmmaError(f"unknown PlanExpr kind {self.kind!r}")


@dataclass
class CompiledProgram:
    """A driver program with compiled dataflow sites."""

    program: DriverProgram
    partition_keys: dict[str, ScalarFn]
    report: OptimizationReport
    #: (site expression after rewriting, lowered plan, in_loop) triples
    sites: list[tuple[Expr, Combinator, bool]] = field(
        default_factory=list
    )
    #: per-pass provenance (always collected; rendering is lazy)
    trace: CompileTrace | None = None
    #: content fingerprint of (lifted IR, plan-affecting knobs) — the
    #: plan-cache key (:mod:`repro.optimizer.fingerprint`)
    fingerprint: str | None = None
    #: host seconds the compile pipeline took (what a plan-cache hit
    #: saves; charged to ``metrics.compile_seconds_saved`` on hits)
    compile_seconds: float = 0.0
    #: provenance of this object: ``"fresh-compile"`` or ``"plan-cache"``
    cache_origin: str = "fresh-compile"

    def explain(
        self, comprehensions: bool = False, trace: bool = False
    ) -> str:
        """All compiled dataflow plans, one indented tree per site.

        With ``comprehensions=True``, each site is prefixed by its
        rewritten comprehension view in Grust notation — the paper's
        intermediate representation, as the compiler saw it after
        normalization and fold-group fusion.  With ``trace=True``, the
        plans are followed by the compile-provenance report: every pass
        that fired (or was skipped, and why), with the IR term before
        and after.
        """
        from repro.comprehension.pretty import pretty

        # The runtime headers appear when the config sets the knob (an
        # unset one inherits the engine's, which a plan does not know).
        config = self.report.config
        mode, budget = config.execution_mode, config.memory_budget
        blocks = []
        task_width = None
        if mode not in (None, "serial"):
            import os

            task_width = config.max_parallel_tasks or os.cpu_count() or 1
            blocks.append(
                f"-- execution: mode={mode} max-task-width={task_width} --"
            )
        if budget:
            blocks.append(
                f"-- memory: budget={budget}B"
                " spill=lru-to-disk group-overflow=external-merge --"
            )
        if self.fingerprint:
            blocks.append(
                f"-- plan: fingerprint={self.fingerprint[:12]}"
                f" source={self.cache_origin} --"
            )
        for i, (expr, plan, in_loop) in enumerate(self.sites):
            suffix = " (in loop)" if in_loop else ""
            lines = [f"-- site {i}{suffix} --"]
            if comprehensions:
                lines.append(f"view: {pretty(expr)}")
            lines.append(explain(plan, task_width=task_width))
            blocks.append("\n".join(lines))
        if trace and self.trace is not None:
            blocks.append(self.trace.render())
        return "\n".join(blocks)


# -- the pass table ----------------------------------------------------------

#: a pass's scope: what its call rewrites, and when the driver runs it
PROGRAM = "program"  # the driver program, before its sites compile
SITE_EXPR = "site expression"  # one site's comprehension view
SITE_PLAN = "site plan"  # the same site's combinator plan
POST_PROGRAM = "post-site program"  # the program, all sites compiled
POST_PLAN = "post-site plan"  # every site plan, all sites compiled


@dataclass(frozen=True)
class Pass:
    """One row of :data:`PASSES`.

    ``call(compiler, value, site)`` returns the rewritten value and the
    pass's stats: ``fired``, ``summary()`` (its provenance line, ``None``
    for nothing to add) and — read where ``decision_rule`` is set —
    ``decisions`` (a further line each).
    """

    phase: str
    rule: str
    #: the ``EmmaConfig`` field that gates the pass (``None``: always on)
    knob: str | None
    scope: str
    call: Callable[["_Compiler", Any, "int | None"], tuple[Any, Any]]
    #: the ``OptimizationReport`` fields the stats add to, each as
    #: ``report_field=stats_attribute`` (just the one name if equal)
    folds: str = ""
    #: the IR terms the event of a fired pass carries: "before after"
    shows: str = ""
    #: the pass records its decisions in the trace itself; the driver
    #: adds the summary line only where it stayed silent
    narrates: bool = False
    #: rule name of the events made from ``stats.decisions``
    decision_rule: str | None = None


@dataclass
class _Applied:
    """Stats of a step that always applies: its provenance line (a
    ``None`` line records no event)."""

    detail: str | None
    fired = True

    def summary(self) -> str | None:
        return self.detail


# The calls.  Each names its pass function as a module global, looked up
# when the call runs: benchmarks/e2e/spans.py attributes compile time by
# patching those names.


def _fingerprint(c, program, site):
    from repro.optimizer.fingerprint import PLAN_KNOBS, plan_fingerprint

    c.fingerprint = plan_fingerprint(program, c.config)
    return program, _Applied(
        f"sha256:{c.fingerprint[:12]} over canonical IR + "
        f"{len(PLAN_KNOBS)} plan-affecting knobs"
    )


def _inline(c, program, site):
    program, inlined = inline_single_use(program)
    return program, InlineStats(inlined)


def _cache(c, program, site):
    chosen = plan_caching(program)
    return insert_cache_statements(program, chosen), CachingStats(chosen)


def _resugar(c, expr, site):
    return resugar(expr), _Applied("MC⁻¹ recovered the comprehension view")


def _normalize(c, expr, site):
    stats = NormalizeStats()
    return normalize(expr, c.config.unnesting, stats), stats


def _fuse(c, expr, site):
    stats = FusionStats()
    return fold_group_fusion(expr, stats), stats


def _lower(c, expr, site):
    ctx = LoweringContext(
        frozenset(c.bag_names), c.config.filter_pushdown, c.trace, site
    )
    return lower(expr, ctx), _Applied(
        "comprehension realized as a combinator dataflow"
    )


def _reorder(c, plan, site):
    stats = ReorderStats()
    plan = reorder_operators(plan, stats, c.plan_context(), c.trace, site)
    return plan, stats


def _chain(c, plan, site):
    stats = ChainStats()
    return chain_operators(plan, stats, c.trace, site), stats


def _select_columnar(c, plan, site):
    config = c.config
    stats = ColumnarStats(
        operator_chaining=config.operator_chaining,
        chain_plane=config.columnar,
    )
    plan = select_columnar(
        plan,
        stats,
        c.trace,
        site,
        exchange=config.columnar_exchange,
        chains=stats.selects_chains,
    )
    return plan, stats


def _pull_partitions(c, program, site):
    cached = {d.name for d in c.report.cache_decisions}
    keys = choose_partition_keys(c.partition_uses, cached) if cached else {}
    return program, PartitionStats(keys, bool(cached))


def _plan_physical(c, plan, site):
    return annotate_physical(plan, c.plan_context())


def _hoist_bags(c, plan, site):
    # The cache statements' partition keys reach the engine as UDFs too.
    keys = c.report.partition_keys.items()
    c.report.partition_keys = {
        k: hoist_closed_bags(fn, c.hoisted) for k, fn in keys
    }
    hoisted = hoist_closed_bags(plan, c.hoisted)
    if hoisted is plan:
        return plan, _Applied(None)
    moved = "; ".join(
        f"{name} <- {sub.describe()}"
        for node in combinator_nodes(hoisted)
        for fn in node.udfs()
        for name, sub in fn.hoisted
    )
    return hoisted, _Applied(f"broadcast once per job: {moved}")


def hoist_closed_bags(value: Any, memo: dict[int, tuple[Any, Any]]) -> Any:
    """``value`` (a plan or a UDF) with the closed bag subexpressions of
    every UDF body moved into the UDF's ``hoisted`` subplans, lowered as
    a site is with default parameters: Section 4.3.2's driver-to-UDF
    data motion, which the engine then pays once per job instead of per
    element.  ``memo`` maps ids to ``(object, rewrite)``, so what the
    plan shares stays shared."""
    hit = memo.get(id(value))
    if hit is not None:
        return hit[1]
    if isinstance(value, ScalarFn):
        new, nodes = value.hoist_closed_bags()
        if nodes:
            new = replace(new, hoisted=tuple(
                (name, hoist_closed_bags(lower(normalize(resugar(n))), memo))
                for name, n in nodes.items()
            ))
    else:

        def hoist(v: Any) -> Any:
            return hoist_closed_bags(v, memo)

        new = rebuild_inputs(value, hoist, hoist)
        if isinstance(value, CChain):
            # The fused operators keep their stale ``input``.
            ops = tuple(rebuild_inputs(op, None, hoist) for op in value.ops)
            if any(a is not b for a, b in zip(ops, value.ops)):
                new = replace(new, ops=ops)
    memo[id(value)] = (value, new)
    return new


#: The compiler, in order.  ``unnesting`` and ``filter_pushdown`` gate no
#: row — they are parameters of ``normalize`` and ``lower`` — nor do the
#: plane knobs of the columnar selection, one traversal for both planes.
PASSES: tuple[Pass, ...] = (
    Pass("fingerprint", "plan-fingerprint", None, PROGRAM, _fingerprint),
    Pass("inlining", "inline-single-use", "inlining", PROGRAM, _inline,
         "inlined_definitions=inlined", "before after"),
    Pass("caching", "cache-insert", "caching", PROGRAM, _cache,
         "cache_decisions=chosen", decision_rule="cache-insert"),
    Pass("site compilation", "resugar", None, SITE_EXPR, _resugar,
         shows="before after"),
    Pass("site compilation", "normalize", None, SITE_EXPR, _normalize,
         "exists_unnests generator_unnests head_unnests", "before after"),
    Pass("site compilation", "fold-group-fusion", "fold_group_fusion",
         SITE_EXPR, _fuse, "fused_groups fused_folds", "before after"),
    Pass("site compilation", "lower", None, SITE_PLAN, _lower, shows="after"),
    Pass("udf reordering", "push-filter", "udf_reordering", SITE_PLAN,
         _reorder,
         "udfs_analyzed reorders_applied=applied reorders_rejected=rejected",
         narrates=True),
    Pass("operator chaining", "chain-fuse", "operator_chaining", SITE_PLAN,
         _chain, "operator_chains=chains chained_operators", narrates=True),
    Pass("columnar selection", "vectorize-chain", None, SITE_PLAN,
         _select_columnar, "columnar_chains columnar_exchanges"),
    Pass("partition pulling", "partition-key", "partition_pulling",
         POST_PROGRAM, _pull_partitions, "partition_keys=keys",
         decision_rule="partition-key"),
    Pass("physical planning", "interesting-properties", "physical_planning",
         POST_PLAN, _plan_physical,
         "physical_joins=annotated_joins"
         " elidable_shuffle_inputs=elidable_inputs"
         " hoistable_shuffle_inputs=hoistable_inputs",
         "after", decision_rule="join-strategy"),
    Pass("lowering", "hoist-closed-bags", None, POST_PLAN, _hoist_bags),
)


class _Compiler:
    """Drives :data:`PASSES` over a program and its dataflow sites."""

    def __init__(self, config: EmmaConfig) -> None:
        self.config = config
        self.report = OptimizationReport(config=config)
        self.trace = CompileTrace()
        self.fingerprint: str | None = None
        self.loop_mutated: frozenset[str] = frozenset()
        self.bag_names: set[str] = set()
        self.stateful_names: set[str] = set()
        self.partition_uses: list[PartitionUse] = []
        self.sites: list[tuple[Expr, Combinator, bool]] = []
        self.in_loop = False
        #: ``hoist_closed_bags``'s memo, shared by every site
        self.hoisted: dict[int, tuple[Any, Any]] = {}

    def enabled(self, p: Pass, site: int | None = None) -> bool:
        """Whether ``config`` lets the pass run — the one place a knob
        is checked; a disabled pass leaves its one event."""
        value = True if p.knob is None else getattr(self.config, p.knob)
        if value not in (False, "off"):
            return True
        self.trace.record(
            p.phase, p.rule, False, detail="disabled by config", site=site
        )
        return False

    def run(self, scope: str, value: Any, site: int | None = None) -> Any:
        """``value`` after every enabled pass of ``scope``, in order."""
        for p in PASSES:
            if p.scope == scope and self.enabled(p, site):
                value = self.apply(p, value, site)
        return value

    def apply(self, p: Pass, value: Any, site: int | None) -> Any:
        """Run one pass: fold its stats into the report and record its
        provenance (for a narrating pass, only if it recorded none)."""
        report, trace = self.report, self.trace
        mark = len(trace)
        result, stats = p.call(self, value, site)
        for fold in p.folds.split():
            total, _, part = fold.partition("=")
            old, new = getattr(report, total), getattr(stats, part or total)
            merged = {**old, **new} if isinstance(old, dict) else old + new
            setattr(report, total, merged)
        if p.narrates and len(trace) > mark:
            return result
        detail = stats.summary()
        if detail is not None:
            shown = p.shows if stats.fired else ""
            trace.record(
                p.phase,
                p.rule,
                stats.fired,
                detail=detail,
                site=site,
                before=value if "before" in shown else None,
                after=result if "after" in shown else None,
            )
        if p.decision_rule is not None:
            for decision in stats.decisions:
                trace.record(
                    p.phase, p.decision_rule, True, detail=decision, site=site
                )
        return result

    def plan_context(self) -> PlanContext:
        """What the plan-level passes may assume around the current site."""
        return PlanContext(
            in_loop=self.in_loop,
            cached_names=frozenset(
                d.name for d in self.report.cache_decisions
            ),
            stateful_names=frozenset(self.stateful_names),
            partition_keys=self.report.partition_keys,
            loop_mutated=self.loop_mutated,
        )

    def compile_site(self, expr: Expr) -> Combinator:
        site = self.report.dataflow_sites
        view = self.run(SITE_EXPR, expr, site)
        uses = collect_partition_uses(view, self.in_loop)
        self.partition_uses.extend(uses)
        plan = self.run(SITE_PLAN, view, site)
        self.report.dataflow_sites += 1
        self.sites.append((view, plan, self.in_loop))
        return plan

    # -- expression walk ----------------------------------------------------

    def compile_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, WriteCall):
            plan = self.compile_site(expr.source)
            return PlanExpr(
                plan=plan,
                kind="write",
                path=self.compile_expr(expr.path),
            )
        if isinstance(expr, FetchCall):
            return PlanExpr(
                plan=self.compile_site(expr.source), kind="fetch"
            )
        if isinstance(expr, StatefulCreate):
            return replace(
                expr, source=self.compile_expr(expr.source)
            )
        if isinstance(expr, (StatefulUpdate, StatefulUpdateWithMessages)):
            changes: dict[str, Expr] = {}
            if isinstance(expr, StatefulUpdateWithMessages):
                changes["messages"] = self.compile_expr(expr.messages)
            return replace(expr, **changes) if changes else expr
        if isinstance(expr, FoldCall):
            return PlanExpr(
                plan=self.compile_site(expr), kind="scalar"
            )
        if self._is_bag(expr):
            return PlanExpr(plan=self.compile_site(expr), kind="bag")
        return expr.rebuild(self.compile_expr)

    def _is_bag(self, expr: Expr) -> bool:
        if isinstance(expr, Comprehension):
            return expr.kind is BAG
        if isinstance(expr, BagExpr):
            return True
        if isinstance(expr, Ref):
            return expr.name in self.bag_names
        return False

    # -- statement walk -----------------------------------------------------

    def compile_block(self, stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        return tuple(self.compile_stmt(stmt) for stmt in stmts)

    def compile_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, SAssign):
            if stmt.stateful:
                self.stateful_names.add(stmt.name)
                self.bag_names.discard(stmt.name)
            elif stmt.bag_typed:
                self.bag_names.add(stmt.name)
                self.stateful_names.discard(stmt.name)
            else:
                self.bag_names.discard(stmt.name)
                self.stateful_names.discard(stmt.name)
        # A statement's own expressions run where the statement does;
        # a loop's blocks run inside the loop.
        stmt = stmt.rebuild(exprs=self.compile_expr)
        prev, self.in_loop = self.in_loop, self.in_loop or stmt.loop
        stmt = stmt.rebuild(blocks=self.compile_block)
        self.in_loop = prev
        return stmt


def compile_program(
    program: DriverProgram, config: EmmaConfig | None = None
) -> CompiledProgram:
    """Run the full pipeline; see the module docstring."""
    started = time.perf_counter()
    c = _Compiler(config or EmmaConfig())
    # The fingerprint is taken first, before any rewriting, so a plan
    # cache can key lookups without compiling.
    program = c.run(PROGRAM, program)
    # Collected up front for the per-site reordering pass (replacing
    # sites by plans does not change which names loops assign).
    c.loop_mutated = loop_mutated_names(program)
    c.bag_names |= set(program.bag_params)
    program = program.with_body(c.compile_block(program.body))
    program = c.run(POST_PROGRAM, program)
    for p in PASSES:
        if p.scope == POST_PLAN and c.enabled(p):
            plan_map: dict[int, Combinator] = {}
            for idx, (expr, plan, in_loop) in enumerate(c.sites):
                c.in_loop = in_loop
                annotated = c.apply(p, plan, idx)
                if annotated is not plan:
                    plan_map[id(plan)] = annotated
                c.sites[idx] = (expr, annotated, in_loop)
            if plan_map:
                program = program.with_body(
                    _replace_site_plans(program.body, plan_map)
                )
    return CompiledProgram(
        program=program,
        partition_keys=c.report.partition_keys,
        report=c.report,
        sites=c.sites,
        trace=c.trace,
        fingerprint=c.fingerprint,
        compile_seconds=time.perf_counter() - started,
    )


def _replace_site_plans(
    stmts: tuple[Stmt, ...], plan_map: Mapping[int, Combinator]
) -> tuple[Stmt, ...]:
    """Swap every embedded :class:`PlanExpr`'s plan for its annotated
    copy (matched by the original plan object's identity)."""

    def rewrite_expr(node: Expr) -> Expr:
        node = node.rebuild(rewrite_expr)
        if isinstance(node, PlanExpr):
            plan = plan_map.get(id(node.plan), node.plan)
            node = replace(node, plan=plan)
        return node

    def rewrite_block(block: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        return tuple(
            s.rebuild(exprs=rewrite_expr, blocks=rewrite_block)
            for s in block
        )

    return rewrite_block(stmts)
