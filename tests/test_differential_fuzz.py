"""Differential fuzzing: random pipelines, every backend, every config.

Hypothesis generates random operator pipelines over integer bags —
maps, filters, distinct, union/minus, correlated ``exists`` filters,
nested ``min_by``/``max_by`` folds over a broadcast bag, plain and
guarded group-aggregations — and the resulting IR is executed:

* directly, via the expression interpreter (the semantic oracle);
* compiled (resugar -> normalize -> fold-group fusion -> lower ->
  operator chaining) and run on the Spark-like and Flink-like engines,
  with unnesting, fusion, and physical chaining independently toggled
  and the runtime point — execution mode and driver memory budget,
  drawn from the physical lattice's axis table — sampled per example.

Every combination must produce the same multiset.  This is the
paper's central soundness claim — the rewrites and the parallel
lowering never change program meaning — exercised over a far larger
program space than the hand-written workloads.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Compare,
    Const,
    DistinctCall,
    FilterCall,
    FoldCall,
    GroupByCall,
    IfElse,
    Lambda,
    MapCall,
    MinusCall,
    PlusCall,
    Ref,
    evaluate,
)
from repro.comprehension.ir import BAG, Comprehension, Generator
from repro.comprehension.normalize import normalize
from repro.comprehension.resugar import resugar
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.faults import (
    CRASH,
    STRAGGLER,
    WORKER_LOSS,
    FaultEvent,
    FaultPlan,
)
from repro.engines.flinklike import FlinkLikeEngine
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.chaining import chain_operators
from repro.lowering.combinators import CFold
from repro.lowering.rules import lower
from repro.optimizer.fold_group_fusion import fold_group_fusion
from tests.engines.test_physical_lattice import LATTICE

# ---------------------------------------------------------------------------
# Pipeline stages: each maps a bag-of-ints IR expression to another one.
# ---------------------------------------------------------------------------


def _stage_map(expr, k):
    return MapCall(
        expr, Lambda(("x",), BinOp("+", Ref("x"), Const(k)))
    )


def _stage_scale(expr, k):
    return MapCall(
        expr, Lambda(("x",), BinOp("*", Ref("x"), Const(k)))
    )


def _stage_mod(expr, k):
    m = max(2, abs(k))
    return MapCall(
        expr, Lambda(("x",), BinOp("%", Ref("x"), Const(m)))
    )


def _stage_filter_gt(expr, k):
    return FilterCall(
        expr, Lambda(("x",), Compare(">", Ref("x"), Const(k)))
    )


def _stage_filter_even(expr, _k):
    return FilterCall(
        expr,
        Lambda(
            ("x",),
            Compare("==", BinOp("%", Ref("x"), Const(2)), Const(0)),
        ),
    )


def _stage_distinct(expr, _k):
    return DistinctCall(expr)


def _stage_union(expr, _k):
    return PlusCall(expr, Ref("ys"))


def _stage_minus(expr, _k):
    return MinusCall(expr, Ref("ys"))


def _stage_exists(expr, k):
    # keep x if some y in ys has y % k == x % k  — a correlated
    # existential that unnesting turns into a semi-join.
    m = max(2, abs(k))
    predicate = Lambda(
        ("y",),
        Compare(
            "==",
            BinOp("%", Ref("y"), Const(m)),
            BinOp("%", Ref("x"), Const(m)),
        ),
    )
    return FilterCall(
        expr,
        Lambda(
            ("x",), FoldCall(Ref("ys"), AlgebraSpec("exists", (predicate,)))
        ),
    )


def _group_agg(expr, m, values):
    # group by x % m; emit key + 3*count + sum over ``values`` (an
    # expression over the group ``g``) — back to bag-of-ints.
    count = FoldCall(values, AlgebraSpec("count"))
    total = FoldCall(values, AlgebraSpec("sum"))
    head = BinOp(
        "+",
        Attr(Ref("g"), "key"),
        BinOp("+", BinOp("*", count, Const(3)), total),
    )
    return Comprehension(
        head=head,
        qualifiers=(
            Generator(
                "g",
                GroupByCall(
                    expr,
                    Lambda(("x",), BinOp("%", Ref("x"), Const(m))),
                ),
            ),
        ),
        kind=BAG,
    )


def _stage_group_agg(expr, k):
    return _group_agg(expr, max(2, abs(k)), Attr(Ref("g"), "values"))


def _stage_group_agg_guarded(expr, k):
    # fold only the group values above k — after fusion the guard rides
    # inside the algebra's singleton, where a failing record contributes
    # the zero.
    values = FilterCall(
        Attr(Ref("g"), "values"),
        Lambda(("v",), Compare(">", Ref("v"), Const(k))),
    )
    return _group_agg(expr, 3, values)


def _stage_nearest(expr, k):
    # x -> x + (distance to the nearest / farthest y in ys): the
    # k-means shape — a nested min_by / max_by over the broadcast ys,
    # keyed on the outer element.  The distance, not the chosen y, goes
    # into the result, so ties between equidistant ys cannot show.
    def distance(y):
        diff = BinOp("-", y, Ref("x"))
        return BinOp("*", diff, diff)

    alias = "min_by" if k % 2 == 0 else "max_by"
    chosen = FoldCall(
        Ref("ys"), AlgebraSpec(alias, (Lambda(("y",), distance(Ref("y"))),))
    )
    return MapCall(
        expr,
        Lambda(
            ("x",),
            IfElse(
                cond=Compare("==", chosen, Const(None)),
                then=Ref("x"),
                orelse=BinOp("+", Ref("x"), distance(chosen)),
            ),
        ),
    )


_STAGES = (
    _stage_map,
    _stage_scale,
    _stage_mod,
    _stage_filter_gt,
    _stage_filter_even,
    _stage_distinct,
    _stage_union,
    _stage_minus,
    _stage_exists,
    _stage_group_agg,
    _stage_nearest,
    _stage_group_agg_guarded,
)

stage_descriptors = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_STAGES) - 1),
        st.integers(min_value=-4, max_value=6),
    ),
    min_size=1,
    max_size=5,
)

int_bags = st.lists(
    st.integers(min_value=-30, max_value=30), max_size=25
)


#: the runtime half of the physical lattice: (execution mode, driver
#: memory budget), each value drawn from the harness's axis table
runtime_points = st.tuples(
    st.sampled_from(LATTICE["execution_mode"][:2]),
    st.sampled_from(LATTICE["memory_budget"][:2]),
)


def make_engine(engine_cls, runtime, num_workers=3, **kwargs):
    mode, budget = runtime
    return engine_cls(
        cluster=ClusterConfig(num_workers=num_workers),
        execution_mode=mode,
        max_parallel_tasks=2,
        memory_budget=budget,
        **kwargs,
    )


def build_pipeline(descriptors):
    expr = Ref("xs")
    for stage_index, k in descriptors:
        expr = _STAGES[stage_index](expr, k)
    return expr


def run_compiled(expr, env, engine, unnest, fuse, chain=False):
    rewritten = normalize(resugar(expr), unnest_exists=unnest)
    if fuse:
        rewritten = fold_group_fusion(rewritten)
    plan = lower(rewritten)
    if chain:
        plan = chain_operators(plan)
    if isinstance(plan, CFold):
        return engine.run_scalar(plan, env)
    return DataBag(engine.collect(engine.defer(plan, env)))


@settings(max_examples=40, deadline=None)
@given(stage_descriptors, int_bags, int_bags, runtime_points)
def test_every_backend_and_config_matches_the_oracle(
    descriptors, xs, ys, runtime
):
    expr = build_pipeline(descriptors)
    env = {"xs": DataBag(xs), "ys": DataBag(ys)}
    oracle = evaluate(expr, dict(env))

    for engine_cls in (SparkLikeEngine, FlinkLikeEngine):
        for unnest in (False, True):
            for fuse in (False, True):
                engine = make_engine(engine_cls, runtime)
                result = run_compiled(
                    expr, dict(env), engine, unnest, fuse
                )
                assert result == oracle, (
                    f"{engine_cls.__name__} unnest={unnest} "
                    f"fuse={fuse} runtime={runtime} diverged"
                )


@settings(max_examples=25, deadline=None)
@given(stage_descriptors, int_bags, int_bags, runtime_points)
def test_terminal_folds_match_the_oracle(descriptors, xs, ys, runtime):
    expr = FoldCall(build_pipeline(descriptors), AlgebraSpec("sum"))
    env = {"xs": DataBag(xs), "ys": DataBag(ys)}
    oracle = evaluate(expr, dict(env))
    engine = make_engine(SparkLikeEngine, runtime, num_workers=4)
    assert run_compiled(expr, dict(env), engine, True, True) == oracle


# ---------------------------------------------------------------------------
# Fault-plan fuzzing: random pipelines under random deterministic fault
# schedules must still match the oracle bit for bit — crashes, worker
# losses, and stragglers may only cost simulated time.
# ---------------------------------------------------------------------------

_EVENT_MIXES = (
    (),
    (FaultEvent(CRASH, task=1),),
    (FaultEvent(WORKER_LOSS, task=2),),
    (
        FaultEvent(CRASH, task=0),
        FaultEvent(STRAGGLER, task=1),
        FaultEvent(WORKER_LOSS, task=3),
    ),
)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    task_crash_prob=st.floats(min_value=0.0, max_value=0.25),
    worker_loss_prob=st.floats(min_value=0.0, max_value=0.08),
    straggler_prob=st.floats(min_value=0.0, max_value=0.25),
    crash_attempts=st.integers(min_value=1, max_value=2),
    max_task_crashes=st.just(32),
    max_worker_losses=st.just(4),
    max_stragglers=st.just(32),
    events=st.sampled_from(_EVENT_MIXES),
)


@settings(max_examples=25, deadline=None)
@given(stage_descriptors, int_bags, int_bags, fault_plans, runtime_points)
# The worker-memo collision: a broadcast semi-join's key set {0} once
# fingerprinted like set() and {0, 1, 2, 3} (the 32-bit partition hash
# as a content identity), so a warmed pool worker answered from a stale
# key set: DataBag([]) against the oracle's DataBag([0]).
@example(
    descriptors=[(8, 0)],
    xs=[0],
    ys=[0],
    plan=FaultPlan(),
    runtime=("processes", 0),
)
def test_fault_injection_never_changes_results(
    descriptors, xs, ys, plan, runtime
):
    expr = build_pipeline(descriptors)
    env = {"xs": DataBag(xs), "ys": DataBag(ys)}
    oracle = evaluate(expr, dict(env))

    for engine_cls in (SparkLikeEngine, FlinkLikeEngine):
        engine = make_engine(engine_cls, runtime, fault_plan=plan)
        result = run_compiled(
            expr, dict(env), engine, True, True, chain=True
        )
        assert result == oracle, (
            f"{engine_cls.__name__} runtime={runtime} diverged under fault "
            f"plan seed={plan.seed}"
        )


@settings(max_examples=10, deadline=None)
@given(stage_descriptors, int_bags, int_bags)
def test_fault_schedule_is_reproducible(descriptors, xs, ys):
    """Same plan, same program → identical injections and timings."""
    expr = build_pipeline(descriptors)
    env = {"xs": DataBag(xs), "ys": DataBag(ys)}
    plan = FaultPlan.aggressive(seed=29)
    observations = []
    for _ in range(2):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=3), fault_plan=plan
        )
        run_compiled(expr, dict(env), engine, True, True, chain=True)
        m = engine.metrics
        observations.append(
            (
                m.tasks_retried,
                m.workers_lost,
                m.stragglers_injected,
                m.recovery_seconds,
                m.simulated_seconds,
            )
        )
    assert observations[0] == observations[1]


@settings(max_examples=40, deadline=None)
@given(stage_descriptors, int_bags, int_bags, runtime_points)
def test_operator_chaining_never_changes_results(
    descriptors, xs, ys, runtime
):
    """Physical chaining on vs off, on every engine, vs the oracle.

    This is the soundness obligation of the fused per-partition
    kernels: chain discovery, UDF inlining, and the map-side
    aggregation fusion must be invisible in the results.
    """
    expr = build_pipeline(descriptors)
    env = {"xs": DataBag(xs), "ys": DataBag(ys)}
    oracle = evaluate(expr, dict(env))

    for engine_cls in (SparkLikeEngine, FlinkLikeEngine):
        results = {}
        for chain in (False, True):
            engine = make_engine(engine_cls, runtime)
            results[chain] = run_compiled(
                expr, dict(env), engine, True, True, chain=chain
            )
        assert results[True] == results[False], (
            f"{engine_cls.__name__}: chaining changed the result"
        )
        assert results[True] == oracle, (
            f"{engine_cls.__name__}: chained run diverged from oracle"
        )
