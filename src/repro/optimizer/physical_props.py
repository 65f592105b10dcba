"""Interesting physical properties — partitioning-aware planning.

The paper's physical layer promises *transparent data motion*
(Section 4.2/4.3: broadcast injection, caching, partition pulling), but
the plans it hands the engines still describe data motion operator-at-
a-time: every join/group site pays for its shuffle as if its input's
layout were unknown.  This pass closes that gap with the classic
Selinger-style *interesting properties* argument, applied to hash
partitionings over the combinator DAG:

* **delivered** partitioning propagates bottom-up: a cached bag whose
  cache site enforces a pulled partition key delivers that key; filters
  (and all-filter chains) pass their input's partitioning through;
  group/agg outputs deliver their grouping key; a repartition join
  delivers its join key over the pair's left element.
* **required** partitioning flows from the shuffle consumers: the two
  key extractors of an equi/semi-join and the key of a group/agg.

Where required meets delivered, each shuffle-feeding input is
classified as

* ``elidable`` — delivered already matches required (the shuffle is a
  no-op at runtime);
* ``hoistable`` — the input is **loop-invariant** (every leaf is a
  cached bag, no UDF in the subtree reads a loop-mutated or stateful
  name), so its shuffled result can be computed once and reused by
  every iteration of the enclosing driver loop;
* ``required`` — the data genuinely moves.

Join nodes additionally get a plan-time **strategy** annotation:
``"repartition"`` when either side's motion is free (elidable), else
``"cost"`` — deferring to the executor's runtime comparison of
broadcast vs repartition seconds from
:class:`~repro.engines.costmodel.CostModel` estimates over the sizes
the join actually sees (a hoistable side is priced at zero there).

The partitioning-key rules (alpha-insensitive key equality, a key
lifted over a join's output pair, a grouping's output key) are the
ones the executor propagates with, from
:mod:`repro.lowering.combinators`.

The pass is purely annotational: results never depend on it (the
executor re-checks every delivered partitioning against the actual
runtime partitioner), only data motion and its accounting do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.comprehension.exprs import Attr, Ref
from repro.core.stateful import KEY_ATTRS
from repro.lowering.combinators import (
    GROUP_KEY,
    CAggBy,
    CBagRef,
    CChain,
    CCross,
    CDistinct,
    CEqJoin,
    CFilter,
    CFlatMap,
    CFold,
    CGroupBy,
    CMap,
    CMinus,
    CSemiJoin,
    CUnion,
    Combinator,
    PhysProps,
    ScalarFn,
    combinator_nodes,
)

ELIDABLE = "elidable"
HOISTABLE = "hoistable"
REQUIRED = "required"


@dataclass(frozen=True)
class PlanContext:
    """Driver-level facts the per-site annotation needs."""

    #: whether the site executes inside a driver loop
    in_loop: bool = False
    #: names materialized by ``SCache`` statements
    cached_names: frozenset[str] = frozenset()
    #: names bound to stateful bags
    stateful_names: frozenset[str] = frozenset()
    #: partition keys enforced at cache sites (partition pulling)
    partition_keys: Mapping[str, ScalarFn] = field(default_factory=dict)
    #: names (re)assigned inside any driver loop body
    loop_mutated: frozenset[str] = frozenset()


@dataclass
class PhysicalPlanStats:
    """What the pass decided for one site (trace/report fodder)."""

    annotated_joins: int = 0
    elidable_inputs: int = 0
    hoistable_inputs: int = 0
    required_inputs: int = 0
    decisions: list[str] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        return bool(self.elidable_inputs or self.hoistable_inputs)

    def count(self, motion: str) -> None:
        """Tally one classified shuffle-feeding input."""
        if motion == ELIDABLE:
            self.elidable_inputs += 1
        elif motion == HOISTABLE:
            self.hoistable_inputs += 1
        else:
            self.required_inputs += 1

    def summary(self) -> str:
        """One-line trace/report description of the decisions."""
        return (
            f"{self.annotated_joins} join(s); shuffle inputs: "
            f"{self.elidable_inputs} elidable, "
            f"{self.hoistable_inputs} hoistable, "
            f"{self.required_inputs} required"
        )


def annotate_physical(
    plan: Combinator, ctx: PlanContext
) -> tuple[Combinator, PhysicalPlanStats]:
    """Annotate one site plan; returns the copy plus decision stats."""
    stats = PhysicalPlanStats()
    return _annotate(plan, ctx, stats), stats


# -- recursion ---------------------------------------------------------------


def _annotate(
    node: Combinator, ctx: PlanContext, stats: PhysicalPlanStats
) -> Combinator:
    if isinstance(node, (CEqJoin, CSemiJoin)):
        # Children are annotated first so a nested join/group's own
        # delivered partitioning is visible to this classification.
        left = _annotate(node.left, ctx, stats)
        right = _annotate(node.right, ctx, stats)
        lm, lrefs = _classify(left, node.kx, ctx)
        rm, rrefs = _classify(right, node.ky, ctx)
        stats.annotated_joins += 1
        stats.count(lm)
        stats.count(rm)
        # A side that is already laid out right makes repartition free
        # on that side — fix the strategy statically.  A *hoistable*
        # side only amortizes its shuffle, so the choice stays with the
        # runtime cost comparison (which prices that side at zero).
        strategy = (
            "repartition" if ELIDABLE in (lm, rm) else "cost"
        )
        delivered = (
            node.kx.over_pair(0) if strategy == "repartition" else None
        )
        stats.decisions.append(
            f"{node.describe()}: strategy={strategy} "
            f"(left {lm}, right {rm})"
        )
        out = replace(
            node,
            left=_with_motion(left, lm, lrefs),
            right=_with_motion(right, rm, rrefs),
        )
        return out.with_phys(
            PhysProps(delivered=delivered, strategy=strategy)
        )
    if isinstance(node, (CGroupBy, CAggBy)):
        inp = _annotate(node.input, ctx, stats)
        motion, refs = _classify(inp, node.key, ctx)
        stats.count(motion)
        out = replace(node, input=_with_motion(inp, motion, refs))
        return out.with_phys(PhysProps(delivered=GROUP_KEY))
    if isinstance(node, CMap):
        # Planned: the executor may propagate the input's partitioner
        # through the map (an empty annotation; explain shows nothing).
        inp = _annotate(node.input, ctx, stats)
        return replace(node, input=inp, phys=PhysProps())
    if isinstance(node, (CFlatMap, CFilter, CChain, CDistinct, CFold)):
        return replace(node, input=_annotate(node.input, ctx, stats))
    if isinstance(node, (CCross, CUnion, CMinus)):
        return replace(
            node,
            left=_annotate(node.left, ctx, stats),
            right=_annotate(node.right, ctx, stats),
        )
    return node


def _with_motion(
    node: Combinator, motion: str, refs: tuple[str, ...]
) -> Combinator:
    base = node.phys if node.phys is not None else PhysProps()
    return node.with_phys(
        replace(base, motion=motion, invariant_refs=refs)
    )


# -- classification ----------------------------------------------------------


def _classify(
    node: Combinator, required: ScalarFn, ctx: PlanContext
) -> tuple[str, tuple[str, ...]]:
    """How a shuffle-feeding input satisfies its required partitioning."""
    delivered = _delivered(node, ctx)
    if delivered is not None and delivered.alpha_equal(required):
        return ELIDABLE, ()
    if _is_stateful_ref(node, ctx) and _is_state_key(required):
        # A stateful bag's dataflow view is hash-partitioned on the
        # state key; the exact key attribute is only known at runtime,
        # so this is a (sound-to-miss) structural heuristic.
        return ELIDABLE, ()
    if ctx.in_loop:
        invariant, refs = _loop_invariant(node, ctx)
        if invariant:
            return HOISTABLE, refs
    return REQUIRED, ()


def _loop_invariant(
    node: Combinator, ctx: PlanContext
) -> tuple[bool, tuple[str, ...]]:
    """Whether a subtree recomputes identically on every iteration.

    True when every leaf is a cached bag and no UDF in the subtree
    reads a loop-mutated or stateful name — then both the subtree's
    records and its shuffled layout are iteration-independent.
    """
    refs: set[str] = set()
    for sub in combinator_nodes(node):
        if not sub.inputs():
            if not isinstance(sub, CBagRef):
                return False, ()
            if sub.name not in ctx.cached_names:
                return False, ()
            if sub.name in ctx.loop_mutated:
                return False, ()
            refs.add(sub.name)
        for udf in sub.udfs():
            free = udf.free_names()
            if free & (ctx.loop_mutated | ctx.stateful_names):
                return False, ()
    if not refs:
        return False, ()
    return True, tuple(sorted(refs))


# -- delivered-partitioning propagation --------------------------------------


def _delivered(node: Combinator, ctx: PlanContext) -> ScalarFn | None:
    """The hash-partitioning key a node's output carries, if known."""
    if node.partition_hint is not None:
        return node.partition_hint
    if isinstance(node, CBagRef):
        return ctx.partition_keys.get(node.name)
    if isinstance(node, CFilter):
        return _delivered(node.input, ctx)
    if isinstance(node, CChain):
        if node.preserves_partitioning():
            return _delivered(node.input, ctx)
        return None
    if isinstance(node, (CGroupBy, CAggBy)):
        return GROUP_KEY
    if isinstance(node, CEqJoin):
        props = node.phys
        if props is not None and props.delivered is not None:
            return props.delivered
        return None
    if isinstance(node, CSemiJoin):
        # Both realizations keep the left side's layout.
        return _delivered(node.left, ctx)
    if isinstance(node, (CDistinct, CMinus)):
        return ScalarFn.identity("_d")
    if isinstance(node, CUnion):
        left = _delivered(node.left, ctx)
        right = _delivered(node.right, ctx)
        if left is not None and right is not None and left.alpha_equal(right):
            return left
        return None
    return None


# -- small helpers -----------------------------------------------------------


def _is_stateful_ref(node: Combinator, ctx: PlanContext) -> bool:
    return isinstance(node, CBagRef) and node.name in ctx.stateful_names


def _is_state_key(key: ScalarFn) -> bool:
    return (
        len(key.params) == 1
        and isinstance(key.body, Attr)
        and isinstance(key.body.obj, Ref)
        and key.body.obj.name == key.params[0]
        and key.body.name in KEY_ATTRS
    )
