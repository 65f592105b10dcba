"""The compiler pass manager (paper Figure 1, steps i-iii).

``compile_program`` takes lifted driver IR and a configuration and
produces a :class:`CompiledProgram`:

1. **Inlining** — single-use bag definitions collapse into their
   consumers (Section 4.1).
2. **Caching analysis** — loop-invariant multi-use bags get ``SCache``
   statements (Section 4.4); disabled by ``EmmaConfig.caching=False``.
3. **Per-site compilation** — every maximal DataBag expression in the
   driver IR is resugared (``MC⁻¹``), normalized (unnesting; the
   exists-rule obeys ``EmmaConfig.unnesting``), fold-group-fused
   (``EmmaConfig.fold_group_fusion``), and lowered to a combinator
   dataflow, which replaces the expression as a :class:`PlanExpr`.
4. **Partition pulling** — join/group keys observed over cached names
   in the normalized sites choose the enforced partitioning at each
   cache site (``EmmaConfig.partition_pulling``).

The :class:`OptimizationReport` records which optimizations actually
fired — reproducing the paper's Table 1 is a matter of compiling each
program and reading its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

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
    default_columnar_exchange,
    default_columnar_mode,
)
from repro.engines.spill import default_memory_budget
from repro.engines.faults import FaultPlan, RetryPolicy
from repro.engines.scheduler import (
    default_execution_mode,
    default_max_parallel_tasks,
)
from repro.engines.sizes import estimate_bag_bytes
from repro.engines.tracing import CompileTrace
from repro.errors import EmmaError
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SCache,
    SExpr,
    SFor,
    SIf,
    SReturn,
    SWhile,
    Stmt,
)
from repro.lowering.chaining import ChainStats, chain_operators
from repro.lowering.combinators import Combinator, ScalarFn, explain
from repro.lowering.rules import LoweringContext, lower
from repro.optimizer.caching import (
    CacheDecision,
    insert_cache_statements,
    plan_caching,
)
from repro.optimizer.columnar_select import ColumnarStats, select_columnar
from repro.optimizer.fold_group_fusion import FusionStats, fold_group_fusion
from repro.optimizer.inlining import inline_single_use
from repro.optimizer.partition_pulling import (
    PartitionUse,
    choose_partition_keys,
    collect_partition_uses,
)
from repro.optimizer.physical_props import (
    PlanContext,
    annotate_physical,
    loop_mutated_names,
)
from repro.optimizer.reorder import ReorderStats, reorder_operators
from repro.optimizer.udf_analysis import default_udf_reordering


@dataclass(frozen=True)
class EmmaConfig:
    """Which optimizations the compiler pipeline applies."""

    inlining: bool = True
    unnesting: bool = True
    fold_group_fusion: bool = True
    caching: bool = True
    partition_pulling: bool = True
    #: ablation knob: disable the Figure 3a filter-pushdown state
    filter_pushdown: bool = True
    #: physical operator chaining: fuse maximal runs of record-wise
    #: operators into one per-partition kernel (not a Table 1 row —
    #: it is the physical layer the target engines apply below the
    #: logical rewrites)
    operator_chaining: bool = True
    #: partitioning-aware physical planning: the interesting-properties
    #: pass (:mod:`repro.optimizer.physical_props`) annotates shuffle
    #: sites as required/elidable/hoistable and joins with a plan-time
    #: strategy; also a runtime knob — the engine's cost-based strategy
    #: choice, loop-invariant hoist cache, and partitioner propagation
    #: follow it (not a Table 1 row; a post-paper physical-layer pass)
    physical_planning: bool = True
    #: UDF-aware operator reordering (:mod:`repro.optimizer.reorder`):
    #: "auto" infers field-level read/write sets over lifted UDF bodies
    #: and pushes filters below joins/groupings (and before maps) the
    #: comprehension calculus cannot move; "off" leaves black-box UDFs
    #: in place.  Results are bit-identical either way — only data
    #: volumes (shuffled bytes, operator input sizes) and therefore
    #: simulated costs move.  Default honours ``REPRO_UDF_REORDERING``.
    udf_reordering: str = field(default_factory=default_udf_reordering)

    # Runtime (not compile-time) knobs, applied to the engine by
    # ``Algorithm.run``: they do not change the compiled plans, only
    # how the simulated cluster executes them.
    #: deterministic fault schedule for the simulated cluster
    fault_plan: FaultPlan | None = None
    #: scheduler reaction to injected task failures
    retry_policy: RetryPolicy | None = None
    #: stateful-bag checkpoint cadence (0 = initial snapshot only)
    checkpoint_interval: int = 0
    #: collect hierarchical runtime spans (:mod:`repro.engines.tracing`);
    #: ``Algorithm.run`` then returns a :class:`~repro.engines.tracing.
    #: TracedRun` instead of the bare result
    tracing: bool = False
    #: columnar batch data plane: "auto" vectorizes eligible chains
    #: when numpy is available, "on" forces the columnar path (with a
    #: pure-Python column fallback), "off" keeps every chain
    #: row-at-a-time.  Results and ``simulated_seconds`` are
    #: bit-identical either way — only wall clock and byte counters
    #: move.  Default honours ``REPRO_COLUMNAR``.
    columnar: str = field(default_factory=default_columnar_mode)
    #: columnar *exchange* plane: vectorized shuffle partitioning, hash
    #: join build/probe, and group-by over key columns ("auto" engages
    #: when numpy is available, "on" forces the PyColumn fallback,
    #: "off" keeps exchanges row-at-a-time).  Independent of
    #: ``columnar`` — results, ``simulated_seconds``, and fault
    #: schedules are bit-identical either way.  Default honours
    #: ``REPRO_COLUMNAR_EXCHANGE``.
    columnar_exchange: str = field(
        default_factory=default_columnar_exchange
    )
    #: how the scheduler dispatches the operators' partition tasks
    #: (the same ``TaskSpec`` per operator in every mode): "serial"
    #: (inline, in order), "threads", or "processes" (true multi-core
    #: via source-shipped chain kernels); results and
    #: ``simulated_seconds`` stay bit-identical across modes — only
    #: measured wall clock changes.  Default honours
    #: ``REPRO_EXECUTION_MODE`` so CI can run whole suites under the
    #: parallel backend.
    execution_mode: str = field(default_factory=default_execution_mode)
    #: concurrent partition-task slots (0 = one per host CPU core);
    #: default honours ``REPRO_MAX_PARALLEL_TASKS``
    max_parallel_tasks: int = field(
        default_factory=default_max_parallel_tasks
    )
    #: re-launch straggler partition tasks (first result wins)
    speculative_execution: bool = True
    #: driver memory budget in bytes for the out-of-core layer
    #: (:mod:`repro.engines.spill`): resident cached partitions, hoist
    #: caches, and columnar batches above the budget are LRU-spilled to
    #: real temp files and lazily reloaded; over-limit group
    #: materializations degrade to external run-merge instead of
    #: raising ``SimulatedMemoryError``.  ``0`` (the default) keeps
    #: everything resident.  Results, ``simulated_seconds``, and fault
    #: schedules are bit-identical under any budget — only wall clock
    #: and the ``spill_*`` metrics move.  Default honours
    #: ``REPRO_MEMORY_BUDGET``.
    memory_budget: int = field(default_factory=default_memory_budget)

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
        parts = []
        if self.unnesting:
            parts.append("unnesting")
        if self.fold_group_fusion:
            parts.append("fold-group-fusion")
        if self.caching:
            parts.append("caching")
        if self.partition_pulling:
            parts.append("partition-pulling")
        return "+".join(parts) if parts else "baseline"


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
        return {
            "unnesting": self.unnesting_applied,
            "fold_group_fusion": self.fold_group_fusion_applied,
            "caching": self.caching_applied,
            "partition_pulling": self.partition_pulling_applied,
        }


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

        blocks = []
        task_width = None
        if self.report.config.execution_mode != "serial":
            import os

            task_width = self.report.config.max_parallel_tasks or (
                os.cpu_count() or 1
            )
            blocks.append(
                f"-- execution: mode={self.report.config.execution_mode}"
                f" max-task-width={task_width} --"
            )
        if self.report.config.memory_budget:
            blocks.append(
                "-- memory: budget="
                f"{self.report.config.memory_budget}B"
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


class _SiteCompiler:
    """Compiles driver expressions, replacing dataflow sites in place."""

    def __init__(
        self,
        config: EmmaConfig,
        report: OptimizationReport,
        trace: CompileTrace | None = None,
        loop_mutated: frozenset[str] = frozenset(),
    ) -> None:
        self.config = config
        self.report = report
        self.trace = trace
        self.loop_mutated = loop_mutated
        self.bag_names: set[str] = set()
        self.stateful_names: set[str] = set()
        self.partition_uses: list[PartitionUse] = []
        self.sites: list[tuple[Expr, Combinator, bool]] = []
        self._in_loop = False

    # -- site pipeline ------------------------------------------------------

    def compile_site(self, expr: Expr) -> Combinator:
        site = self.report.dataflow_sites
        trace = self.trace
        norm_stats = NormalizeStats()
        rewritten = resugar(expr)
        if trace is not None:
            trace.record(
                "site compilation",
                "resugar",
                True,
                detail="MC⁻¹ recovered the comprehension view",
                site=site,
                before=expr,
                after=rewritten,
            )
        normalized = normalize(
            rewritten,
            unnest_exists=self.config.unnesting,
            stats=norm_stats,
        )
        if trace is not None:
            total = (
                norm_stats.exists_unnests
                + norm_stats.generator_unnests
                + norm_stats.head_unnests
            )
            detail = (
                f"exists={norm_stats.exists_unnests} "
                f"generator={norm_stats.generator_unnests} "
                f"head={norm_stats.head_unnests} unnests"
            )
            if not self.config.unnesting:
                detail += " (exists-unnesting disabled by config)"
            trace.record(
                "site compilation",
                "normalize",
                total > 0,
                detail=detail,
                site=site,
                before=rewritten if total else None,
                after=normalized if total else None,
            )
        rewritten = normalized
        self.report.exists_unnests += norm_stats.exists_unnests
        self.report.generator_unnests += norm_stats.generator_unnests
        self.report.head_unnests += norm_stats.head_unnests
        if self.config.fold_group_fusion:
            fusion = FusionStats()
            fused = fold_group_fusion(rewritten, fusion)
            if trace is not None:
                fired = fusion.fused_groups > 0
                trace.record(
                    "site compilation",
                    "fold-group-fusion",
                    fired,
                    detail=(
                        f"{fusion.fused_groups} group(s) with "
                        f"{fusion.fused_folds} fold(s) fused into agg_by"
                        if fired
                        else "no group consumed exclusively by folds"
                    ),
                    site=site,
                    before=rewritten if fired else None,
                    after=fused if fired else None,
                )
            rewritten = fused
            self.report.fused_groups += fusion.fused_groups
            self.report.fused_folds += fusion.fused_folds
        elif trace is not None:
            trace.record(
                "site compilation",
                "fold-group-fusion",
                False,
                detail="disabled by config",
                site=site,
            )
        self.partition_uses.extend(
            collect_partition_uses(rewritten, self._in_loop)
        )
        plan = lower(
            rewritten,
            LoweringContext(
                driver_vars=frozenset(self.bag_names),
                push_filters=self.config.filter_pushdown,
                trace=trace,
                site=site,
            ),
        )
        if trace is not None:
            trace.record(
                "site compilation",
                "lower",
                True,
                detail="comprehension realized as a combinator dataflow",
                site=site,
                after=plan,
            )
        if self.config.udf_reordering != "off":
            reorder_stats = ReorderStats()
            reorder_ctx = PlanContext(
                in_loop=self._in_loop,
                cached_names=frozenset(
                    d.name for d in self.report.cache_decisions
                ),
                stateful_names=frozenset(self.stateful_names),
                loop_mutated=self.loop_mutated,
            )
            before_events = len(trace) if trace is not None else 0
            plan = reorder_operators(
                plan, reorder_stats, reorder_ctx, trace=trace, site=site
            )
            self.report.udfs_analyzed += reorder_stats.udfs_analyzed
            self.report.reorders_applied += reorder_stats.applied
            self.report.reorders_rejected += reorder_stats.rejected
            if trace is not None and len(trace) == before_events:
                trace.record(
                    "udf reordering",
                    "push-filter",
                    False,
                    detail=(
                        "no movable filter above a join/grouping/map "
                        "in this plan"
                    ),
                    site=site,
                )
        elif trace is not None:
            trace.record(
                "udf reordering",
                "push-filter",
                False,
                detail="disabled by config",
                site=site,
            )
        if self.config.operator_chaining:
            chain_stats = ChainStats()
            before_events = len(trace) if trace is not None else 0
            plan = chain_operators(
                plan, chain_stats, trace=trace, site=site
            )
            self.report.operator_chains += chain_stats.chains
            self.report.chained_operators += (
                chain_stats.chained_operators
            )
            if trace is not None and len(trace) == before_events:
                trace.record(
                    "operator chaining",
                    "chain-fuse",
                    False,
                    detail=(
                        "no run of two or more adjacent record-wise "
                        "operators in this plan"
                    ),
                    site=site,
                )
        elif trace is not None:
            trace.record(
                "operator chaining",
                "chain-fuse",
                False,
                detail="disabled by config",
                site=site,
            )
        chains_on = (
            self.config.operator_chaining and self.config.columnar != "off"
        )
        if chains_on or self.config.columnar_exchange != "off":
            col_stats = ColumnarStats()
            plan = select_columnar(
                plan,
                col_stats,
                trace=trace,
                site=site,
                exchange=self.config.columnar_exchange,
                chains=chains_on,
            )
            self.report.columnar_chains += col_stats.columnar_chains
            self.report.columnar_exchanges += col_stats.columnar_exchanges
        if not chains_on and trace is not None:
            trace.record(
                "columnar selection",
                "vectorize-chain",
                False,
                detail=(
                    "disabled by config"
                    if self.config.operator_chaining
                    else "no fused chains without operator chaining"
                ),
                site=site,
            )
        self.report.dataflow_sites += 1
        self.sites.append((rewritten, plan, self._in_loop))
        return plan

    # -- expression walk ------------------------------------------------------

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

    # -- statement walk -----------------------------------------------------------

    def compile_block(self, stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for stmt in stmts:
            out.append(self.compile_stmt(stmt))
        return tuple(out)

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
            return replace(stmt, value=self.compile_expr(stmt.value))
        if isinstance(stmt, SExpr):
            return replace(stmt, value=self.compile_expr(stmt.value))
        if isinstance(stmt, SReturn):
            if stmt.value is None:
                return stmt
            return replace(stmt, value=self.compile_expr(stmt.value))
        if isinstance(stmt, SWhile):
            cond = self.compile_expr(stmt.cond)
            prev, self._in_loop = self._in_loop, True
            body = self.compile_block(stmt.body)
            self._in_loop = prev
            return replace(stmt, cond=cond, body=body)
        if isinstance(stmt, SFor):
            iterable = self.compile_expr(stmt.iterable)
            prev, self._in_loop = self._in_loop, True
            body = self.compile_block(stmt.body)
            self._in_loop = prev
            return replace(stmt, iterable=iterable, body=body)
        if isinstance(stmt, SIf):
            return replace(
                stmt,
                cond=self.compile_expr(stmt.cond),
                then=self.compile_block(stmt.then),
                orelse=self.compile_block(stmt.orelse),
            )
        if isinstance(stmt, SCache):
            return stmt
        raise EmmaError(
            f"cannot compile statement {type(stmt).__name__}"
        )


def compile_program(
    program: DriverProgram, config: EmmaConfig | None = None
) -> CompiledProgram:
    """Run the full pipeline; see the module docstring."""
    import time

    from repro.optimizer.fingerprint import (
        PLAN_KNOBS,
        plan_fingerprint,
    )

    started = time.perf_counter()
    config = config or EmmaConfig()
    report = OptimizationReport(config=config)
    trace = CompileTrace()

    # 0. Fingerprint: the content identity of (lifted IR, plan knobs),
    # computed *before* any rewriting so a plan cache can key lookups
    # without compiling (:mod:`repro.engines.plancache`).
    fingerprint = plan_fingerprint(program, config)
    trace.record(
        "fingerprint",
        "plan-fingerprint",
        True,
        detail=(
            f"sha256:{fingerprint[:12]} over canonical IR + "
            f"{len(PLAN_KNOBS)} plan-affecting knobs"
        ),
    )

    # 1. Inlining.
    if config.inlining:
        before_program = program
        program, inlined = inline_single_use(program)
        report.inlined_definitions = inlined
        trace.record(
            "inlining",
            "inline-single-use",
            inlined > 0,
            detail=(
                f"{inlined} single-use definition(s) spliced into "
                "their consumers"
                if inlined
                else "no single-use bag definitions"
            ),
            before=before_program if inlined else None,
            after=program if inlined else None,
        )
    else:
        trace.record(
            "inlining",
            "inline-single-use",
            False,
            detail="disabled by config",
        )

    # 2. Caching analysis (before sites are replaced by plans).
    if config.caching:
        decisions = plan_caching(program)
        report.cache_decisions = decisions
        if decisions:
            for d in decisions:
                trace.record(
                    "caching",
                    "cache-insert",
                    True,
                    detail=f"{d.name}: {d.reason}",
                )
        else:
            trace.record(
                "caching",
                "cache-insert",
                False,
                detail="no loop-invariant multi-use bags",
            )
        program = insert_cache_statements(program, decisions)
    else:
        trace.record(
            "caching", "cache-insert", False, detail="disabled by config"
        )

    # 3. Per-site compilation.  Loop-mutated names are collected up
    # front so the per-site reordering pass can consult them (the
    # mutation structure of the driver IR does not change when sites
    # are replaced by plans).
    compiler = _SiteCompiler(
        config,
        report,
        trace=trace,
        loop_mutated=loop_mutated_names(program),
    )
    compiler.bag_names |= set(program.bag_params)
    compiled_body = compiler.compile_block(program.body)
    compiled = program.with_body(compiled_body)

    # 4. Partition pulling.
    partition_keys: dict[str, ScalarFn] = {}
    if config.partition_pulling and report.cache_decisions:
        cached = {d.name for d in report.cache_decisions}
        partition_keys = choose_partition_keys(
            compiler.partition_uses, cached
        )
        report.partition_keys = partition_keys
        if partition_keys:
            for name, key in partition_keys.items():
                trace.record(
                    "partition pulling",
                    "partition-key",
                    True,
                    detail=(
                        f"{name} hash-partitioned on "
                        f"{key.describe()} at its cache site"
                    ),
                )
        else:
            trace.record(
                "partition pulling",
                "partition-key",
                False,
                detail="no join/group key observed over cached names",
            )
    elif config.partition_pulling:
        trace.record(
            "partition pulling",
            "partition-key",
            False,
            detail="nothing cached to pre-partition",
        )
    else:
        trace.record(
            "partition pulling",
            "partition-key",
            False,
            detail="disabled by config",
        )

    # 5. Physical planning: the interesting-properties pass annotates
    # every site plan with delivered/required partitionings, shuffle-
    # input motion classes, and plan-time join strategies.
    sites = compiler.sites
    if config.physical_planning:
        cached_names = frozenset(
            d.name for d in report.cache_decisions
        )
        mutated = compiler.loop_mutated
        plan_map: dict[int, Combinator] = {}
        new_sites: list[tuple[Expr, Combinator, bool]] = []
        for idx, (expr, plan, in_loop) in enumerate(sites):
            ctx = PlanContext(
                in_loop=in_loop,
                cached_names=cached_names,
                stateful_names=frozenset(compiler.stateful_names),
                partition_keys=partition_keys,
                loop_mutated=mutated,
            )
            annotated, stats = annotate_physical(plan, ctx)
            plan_map[id(plan)] = annotated
            new_sites.append((expr, annotated, in_loop))
            report.physical_joins += stats.annotated_joins
            report.elidable_shuffle_inputs += stats.elidable_inputs
            report.hoistable_shuffle_inputs += stats.hoistable_inputs
            trace.record(
                "physical planning",
                "interesting-properties",
                stats.fired,
                detail=stats.summary(),
                site=idx,
                after=annotated if stats.fired else None,
            )
            for decision in stats.decisions:
                trace.record(
                    "physical planning",
                    "join-strategy",
                    True,
                    detail=decision,
                    site=idx,
                )
        sites = new_sites
        compiled = compiled.with_body(
            _replace_site_plans(compiled.body, plan_map)
        )
    else:
        trace.record(
            "physical planning",
            "interesting-properties",
            False,
            detail="disabled by config",
        )

    return CompiledProgram(
        program=compiled,
        partition_keys=partition_keys,
        report=report,
        sites=sites,
        trace=trace,
        fingerprint=fingerprint,
        compile_seconds=time.perf_counter() - started,
    )


def _replace_site_plans(
    stmts: tuple[Stmt, ...], plan_map: Mapping[int, Combinator]
) -> tuple[Stmt, ...]:
    """Swap every embedded :class:`PlanExpr`'s plan for its annotated
    copy (matched by the original plan object's identity)."""

    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, PlanExpr):
            changes: dict[str, Any] = {}
            annotated = plan_map.get(id(expr.plan))
            if annotated is not None:
                changes["plan"] = annotated
            if expr.path is not None:
                changes["path"] = rewrite_expr(expr.path)
            return replace(expr, **changes) if changes else expr
        return expr.rebuild(rewrite_expr)

    def rewrite_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, (SAssign, SExpr)):
            return replace(stmt, value=rewrite_expr(stmt.value))
        if isinstance(stmt, SReturn):
            if stmt.value is None:
                return stmt
            return replace(stmt, value=rewrite_expr(stmt.value))
        if isinstance(stmt, SWhile):
            return replace(
                stmt,
                cond=rewrite_expr(stmt.cond),
                body=tuple(rewrite_stmt(s) for s in stmt.body),
            )
        if isinstance(stmt, SFor):
            return replace(
                stmt,
                iterable=rewrite_expr(stmt.iterable),
                body=tuple(rewrite_stmt(s) for s in stmt.body),
            )
        if isinstance(stmt, SIf):
            return replace(
                stmt,
                cond=rewrite_expr(stmt.cond),
                then=tuple(rewrite_stmt(s) for s in stmt.then),
                orelse=tuple(rewrite_stmt(s) for s in stmt.orelse),
            )
        return stmt

    return tuple(rewrite_stmt(s) for s in stmts)
