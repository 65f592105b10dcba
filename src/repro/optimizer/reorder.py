"""UDF-aware operator reordering over the combinator dataflow.

The comprehension calculus already pushes *syntactically* provable
guards into join slots during unnesting; everything else arrives here
as a black-box :class:`~repro.lowering.combinators.CFilter` whose
predicate mentions whole records.  This pass reopens those boxes using
the field-level read/write sets inferred by
:mod:`repro.optimizer.udf_analysis` (after Hueske et al., PAPERS.md)
and commutes operators whenever the sets prove a conflict-free swap:

* **filter below equi-join / cross** — the predicate reads only fields
  of one pair component, so it is rewritten over that component and
  pushed into the corresponding join input (pre-shuffle selection);
* **filter below semi-/anti-join** — the output *is* the left element,
  so any analyzable predicate commutes to the left input;
* **filter below group-by / agg-by** — the predicate reads only the
  group ``.key``, so it composes with the key extractor and filters
  the ungrouped input;
* **filter below distinct** — duplicate elimination preserves records;
* **filter before map** — every field the predicate reads is a pure
  *copy* in the map's emit set, so the predicate re-expressed over the
  map input selects first and maps after.

Every decision — fired, skipped, or rejected — lands in the
:class:`~repro.engines.tracing.CompileTrace` with the inferred sets as
the reason, and moved filters carry a ``reorder_note`` that
``explain()`` renders inline (``[pushed-below-join: reads {...}]``).

The pass consults the PR 4 physical-planning facts before moving data
across a shuffle: pushing a loop-varying predicate into a
loop-invariant join side would invalidate the hoisted once-per-loop
shuffle, so that pushdown is *rejected* (``reorders_rejected``) — the
hoist amortization beats pre-shuffle filtering.  Filters themselves
pass hash partitionings through (see ``physical_props``), so a fired
pushdown never breaks co-partitioning.

Reordering changes data volumes and therefore simulated costs — that
is its purpose — but never results: the differential suites pin
repr-identical output reorder-on vs reorder-off across execution modes
and fault plans.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.comprehension.exprs import (
    Attr,
    Const,
    Expr,
    Index,
    Lambda,
    Ref,
    fresh_name,
    transform,
    walk,
)
from repro.lowering.chaining import consumer_counts
from repro.lowering.combinators import (
    CAggBy,
    CCross,
    CDistinct,
    CEqJoin,
    CFilter,
    CGroupBy,
    CMap,
    CSemiJoin,
    Combinator,
    ScalarFn,
)
from repro.optimizer.physical_props import PlanContext, _loop_invariant
from repro.optimizer.udf_analysis import (
    EmitSet,
    ReadSet,
    analyze_emit_set,
    analyze_read_set,
    render_paths,
    simplify_projections,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.tracing import CompileTrace

#: bound on whole-tree rewrite passes; each pass applies at most one
#: rule per node, so cascades (filter past map past join) converge fast
MAX_PASSES = 16

PHASE = "udf reordering"

_SIDE_NAMES = ("left", "right")


@dataclass
class ReorderStats:
    """What the pass did at one site (report/metrics fodder)."""

    applied: int = 0
    rejected: int = 0
    udfs_analyzed: int = 0
    decisions: list[str] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        return self.applied > 0

    def summary(self) -> str:
        """The provenance line of a site with no candidate at all
        (every push and rejection is recorded by the pass itself)."""
        return "no movable filter above a join/grouping/map in this plan"


class _Reorderer:
    def __init__(
        self,
        stats: ReorderStats,
        ctx: PlanContext,
        trace: "CompileTrace | None",
        site: int | None,
    ) -> None:
        self.stats = stats
        self.ctx = ctx
        self.trace = trace
        self.site = site
        self._read_sets: dict[int, ReadSet] = {}
        self._emit_sets: dict[int, EmitSet] = {}
        self._skips_logged: set[tuple[int, str]] = set()

    # -- memoized analyses -------------------------------------------------

    def read_set(self, fn: ScalarFn) -> ReadSet:
        key = id(fn)
        if key not in self._read_sets:
            self._read_sets[key] = analyze_read_set(fn)
            self.stats.udfs_analyzed += 1
        return self._read_sets[key]

    def emit_set(self, fn: ScalarFn) -> EmitSet:
        key = id(fn)
        if key not in self._emit_sets:
            self._emit_sets[key] = analyze_emit_set(fn)
            self.stats.udfs_analyzed += 1
        return self._emit_sets[key]

    # -- trace helpers -----------------------------------------------------

    def fired(
        self,
        rule: str,
        detail: str,
        before: Combinator,
        after: Combinator,
    ) -> None:
        self.stats.applied += 1
        self.stats.decisions.append(f"{rule}: {detail}")
        if self.trace is not None:
            self.trace.record(
                PHASE,
                rule,
                True,
                detail=detail,
                site=self.site,
                before=before,
                after=after,
            )

    def skipped(self, node: Combinator, rule: str, detail: str) -> None:
        key = (node.node_id, rule)
        if key in self._skips_logged:
            return
        self._skips_logged.add(key)
        if self.trace is not None:
            self.trace.record(
                PHASE, rule, False, detail=detail, site=self.site
            )

    def rejected(self, node: Combinator, rule: str, detail: str) -> None:
        key = (node.node_id, rule)
        if key in self._skips_logged:
            return
        self._skips_logged.add(key)
        self.stats.rejected += 1
        self.stats.decisions.append(f"{rule} rejected: {detail}")
        if self.trace is not None:
            self.trace.record(
                PHASE, rule, False, detail=detail, site=self.site
            )

    # -- fixpoint driver ---------------------------------------------------

    def run(self, root: Combinator) -> Combinator:
        for _ in range(MAX_PASSES):
            self._changed = False
            self._consumers = consumer_counts(root)
            self._memo: dict[int, Combinator] = {}
            root = self._rebuild(root)
            if not self._changed:
                break
        return root

    def _rebuild(self, node: Combinator) -> Combinator:
        key = id(node)
        if key in self._memo:
            return self._memo[key]
        changes: dict[str, Combinator] = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Combinator):
                new = self._rebuild(value)
                if new is not value:
                    changes[f.name] = new
        if changes:
            node = dataclasses.replace(node, **changes)
        rewritten = self._try_rules(node)
        if rewritten is not node:
            self._changed = True
            node = rewritten
        self._memo[key] = node
        return node

    # -- rules -------------------------------------------------------------

    def _try_rules(self, node: Combinator) -> Combinator:
        if not isinstance(node, CFilter):
            return node
        child = node.input
        rule = _RULE_NAMES.get(type(child))
        if rule is None:
            return node
        if not self._movable(node, child, rule):
            return node
        if isinstance(child, (CEqJoin, CCross)):
            return self._push_below_pair_join(node, child, rule)
        if isinstance(child, CSemiJoin):
            return self._push_below_semi_join(node, child, rule)
        if isinstance(child, (CGroupBy, CAggBy)):
            return self._push_below_grouping(node, child, rule)
        if isinstance(child, CDistinct):
            return self._push_below_distinct(node, child, rule)
        if isinstance(child, CMap):
            return self._swap_before_map(node, child, rule)
        return node  # pragma: no cover - rule table is exhaustive

    def _movable(
        self, filt: CFilter, child: Combinator, rule: str
    ) -> bool:
        """Structural guards shared by every rule: moving the filter
        must not change any annotation-visible materialization."""
        if filt.cache or filt.partition_hint is not None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} carries physical annotations "
                "(cache/partition hint) and stays put",
            )
            return False
        if child.cache or child.partition_hint is not None:
            self.skipped(
                filt,
                rule,
                f"{child.describe()} is a materialization point "
                "(cache/partition hint); pushing a filter inside would "
                "change the materialized bag",
            )
            return False
        if self._consumers.get(id(child), 1) > 1:
            self.skipped(
                filt,
                rule,
                f"{child.describe()} has multiple consumers; filtering "
                "inside it would change the shared result",
            )
            return False
        return True

    def _hoist_conflict(
        self, filt: CFilter, rule: str, side_input: Combinator, rs: ReadSet
    ) -> bool:
        """The PR 4 cost-model consult: reject a pushdown into a
        loop-invariant (hoistable) shuffle side when the predicate
        reads loop-mutated or stateful driver names — the once-per-loop
        hoisted shuffle amortizes better than per-iteration filtering,
        and the filtered side would no longer be invariant."""
        if not self.ctx.in_loop:
            return False
        varying = rs.free & (self.ctx.loop_mutated | self.ctx.stateful_names)
        if not varying:
            return False
        invariant, _refs = _loop_invariant(side_input, self.ctx)
        if not invariant:
            return False
        self.rejected(
            filt,
            rule,
            f"{filt.describe()} reads loop-varying driver state "
            f"{{{', '.join(sorted(varying))}}}; pushing it into the "
            "loop-invariant input would invalidate the hoisted "
            "once-per-loop shuffle (cost model: hoist amortization "
            "beats pre-shuffle filtering)",
        )
        return True

    def _push_below_pair_join(
        self, filt: CFilter, join: CEqJoin | CCross, rule: str
    ) -> Combinator:
        pred = filt.predicate
        if len(pred.params) != 1:
            return filt
        param = pred.params[0]
        rs = self.read_set(pred)
        if rs.top:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {join.label()}: "
                f"{rs.describe()}",
            )
            return filt
        side = rs.pair_side(param)
        if side is None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {join.label()}: "
                f"{rs.describe(param)} spans both pair components",
            )
            return filt
        side_input = join.inputs()[side]
        if self._hoist_conflict(filt, rule, side_input, rs):
            return filt
        new_pred = _project_pair_predicate(pred, param, side)
        if new_pred is None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {join.label()}: the "
                f"predicate could not be re-expressed over pair side "
                f"{side} alone",
            )
            return filt
        reads = render_paths(self.read_set(new_pred).reads(new_pred.params[0]))
        note = f"pushed-below-join: reads {reads}"
        pushed = dataclasses.replace(
            filt, predicate=new_pred, input=side_input, reorder_note=note
        )
        new_join = dataclasses.replace(
            join, **{_SIDE_NAMES[side]: pushed}
        )
        self.fired(
            rule,
            f"{filt.describe()} reads only pair side {side} "
            f"({rs.describe(param)}); pushed into the "
            f"{_SIDE_NAMES[side]} input of {join.describe()} as "
            f"{pushed.describe()}",
            before=filt,
            after=new_join,
        )
        return new_join

    def _push_below_semi_join(
        self, filt: CFilter, join: CSemiJoin, rule: str
    ) -> Combinator:
        pred = filt.predicate
        if len(pred.params) != 1:
            return filt
        rs = self.read_set(pred)
        if rs.top:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {join.label()}: "
                f"{rs.describe()}",
            )
            return filt
        if self._hoist_conflict(filt, rule, join.left, rs):
            return filt
        reads = render_paths(rs.reads(pred.params[0]))
        note = f"pushed-below-{join.describe().split('(')[0].lower()}: reads {reads}"
        pushed = dataclasses.replace(
            filt, input=join.left, reorder_note=note
        )
        new_join = dataclasses.replace(join, left=pushed)
        self.fired(
            rule,
            f"{join.describe()} emits its left elements unchanged; "
            f"{filt.describe()} ({rs.describe(pred.params[0])}) "
            "commutes to the left input",
            before=filt,
            after=new_join,
        )
        return new_join

    def _push_below_grouping(
        self, filt: CFilter, group: CGroupBy | CAggBy, rule: str
    ) -> Combinator:
        pred = filt.predicate
        if len(pred.params) != 1:
            return filt
        param = pred.params[0]
        rs = self.read_set(pred)
        if rs.top or not rs.only_attr(param, "key"):
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {group.label()}: "
                f"{rs.describe() if rs.top else rs.describe(param)} "
                "is not confined to the group key",
            )
            return filt
        if self._hoist_conflict(filt, rule, group.input, rs):
            return filt
        new_pred = _compose_with_key(pred, param, group.key)
        if new_pred is None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {group.label()}: the "
                "predicate could not be composed with the key extractor",
            )
            return filt
        reads = render_paths(rs.reads(param))
        note = f"pushed-below-{group.label().lower()}: reads {reads}"
        pushed = dataclasses.replace(
            filt, predicate=new_pred, input=group.input, reorder_note=note
        )
        new_group = dataclasses.replace(group, input=pushed)
        self.fired(
            rule,
            f"{filt.describe()} reads only the group key "
            f"({rs.describe(param)}); composed with key "
            f"{group.key.describe()} and pushed below "
            f"{group.describe()} as {pushed.describe()}",
            before=filt,
            after=new_group,
        )
        return new_group

    def _push_below_distinct(
        self, filt: CFilter, child: CDistinct, rule: str
    ) -> Combinator:
        pred = filt.predicate
        if len(pred.params) != 1:
            return filt
        rs = self.read_set(pred)
        if rs.top:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above Distinct: "
                f"{rs.describe()}",
            )
            return filt
        if self._hoist_conflict(filt, rule, child.input, rs):
            return filt
        reads = render_paths(rs.reads(pred.params[0]))
        note = f"pushed-below-distinct: reads {reads}"
        pushed = dataclasses.replace(
            filt, input=child.input, reorder_note=note
        )
        new_child = dataclasses.replace(child, input=pushed)
        self.fired(
            rule,
            "Distinct preserves records; "
            f"{filt.describe()} ({rs.describe(pred.params[0])}) "
            "commutes below the duplicate elimination",
            before=filt,
            after=new_child,
        )
        return new_child

    def _swap_before_map(
        self, filt: CFilter, mp: CMap, rule: str
    ) -> Combinator:
        pred = filt.predicate
        if len(pred.params) != 1 or len(mp.fn.params) != 1:
            return filt
        param = pred.params[0]
        rs = self.read_set(pred)
        es = self.emit_set(mp.fn)
        if rs.top:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {mp.describe()}: "
                f"{rs.describe()}",
            )
            return filt
        if es.components is None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {mp.describe()}: "
                f"{es.describe()}",
            )
            return filt
        unresolved = [
            p for p in rs.reads(param) if not es.resolves(p)
        ]
        if unresolved:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {mp.describe()}: it "
                f"reads {render_paths(frozenset(unresolved))}, which "
                f"the map computes rather than copies ({es.describe()})",
            )
            return filt
        new_pred = _compose_with_key(pred, param, mp.fn)
        if new_pred is None:
            self.skipped(
                filt,
                rule,
                f"{filt.describe()} stays above {mp.describe()}: the "
                "predicate could not be re-expressed over the map input",
            )
            return filt
        reads = render_paths(self.read_set(new_pred).reads(new_pred.params[0]))
        note = f"swapped-before-map: reads {reads}"
        pushed = dataclasses.replace(
            filt, predicate=new_pred, input=mp.input, reorder_note=note
        )
        new_map = dataclasses.replace(mp, input=pushed)
        self.fired(
            rule,
            f"{filt.describe()} reads only fields {mp.describe()} "
            f"copies ({rs.describe(param)} vs {es.describe()}); "
            f"selection swapped before the map as {pushed.describe()}",
            before=filt,
            after=new_map,
        )
        return new_map


_RULE_NAMES: dict[type, str] = {
    CEqJoin: "push-filter-below-join",
    CCross: "push-filter-below-cross",
    CSemiJoin: "push-filter-below-semi-join",
    CGroupBy: "push-filter-below-group-by",
    CAggBy: "push-filter-below-agg-by",
    CDistinct: "push-filter-below-distinct",
    CMap: "swap-filter-before-map",
}


def _shadows(body: Expr, param: str) -> bool:
    """Whether an inner lambda rebinds ``param`` — the pattern-based
    rewrites below are not binding-aware, so they bail out."""
    return any(
        isinstance(n, Lambda) and param in n.params for n in walk(body)
    )


def _project_pair_predicate(
    pred: ScalarFn, param: str, side: int
) -> ScalarFn | None:
    """Re-express a pair predicate over one pair component.

    Replaces every ``param[side]`` access chain root in the
    (projection-simplified) body with a fresh variable; fails when the
    parameter survives in any other position.
    """
    body = simplify_projections(pred.body)
    if _shadows(body, param):
        return None
    fresh = fresh_name("_e", body.free_vars() | {param})

    def step(node: Expr) -> Expr:
        if (
            isinstance(node, Index)
            and isinstance(node.obj, Ref)
            and node.obj.name == param
            and isinstance(node.index, Const)
            and node.index.value == side
            and not isinstance(node.index.value, bool)
        ):
            return Ref(fresh)
        return node

    new_body = transform(body, step)
    if param in new_body.free_vars():
        return None
    return ScalarFn((fresh,), new_body)


def _compose_with_key(
    pred: ScalarFn, param: str, key: ScalarFn
) -> ScalarFn | None:
    """``p(g) where g reads only .key``  ⇒  ``p'(x) = p over key(x)``.

    Used both for group/agg pushdown (replace ``param.key`` with the
    key extractor's body) and the filter/map swap (replace ``param``
    with the map body outright), followed by projection simplification
    so tuple re-packings collapse back to field reads.
    """
    if len(key.params) != 1:
        return None
    body = simplify_projections(pred.body)
    if _shadows(body, param):
        return None
    fresh = fresh_name(
        "_e", body.free_vars() | key.body.free_vars() | {param}
    )
    key_body = key.body.substitute({key.params[0]: Ref(fresh)})

    def step(node: Expr) -> Expr:
        if (
            isinstance(node, Attr)
            and node.name == "key"
            and isinstance(node.obj, Ref)
            and node.obj.name == param
        ):
            return key_body
        return node

    new_body = transform(body, step)
    if param in new_body.free_vars():
        # Whole-parameter substitution (the map-swap case).
        new_body = body.substitute({param: key_body})
    new_body = simplify_projections(new_body)
    if param in new_body.free_vars():
        return None
    return ScalarFn((fresh,), new_body)


def reorder_operators(
    root: Combinator,
    stats: ReorderStats | None = None,
    ctx: PlanContext | None = None,
    trace: "CompileTrace | None" = None,
    site: int | None = None,
) -> Combinator:
    """Apply the UDF-aware reordering rules to a lowered plan.

    Runs bounded whole-tree rewrite passes to fixpoint so pushdowns
    cascade (a filter swapped before a map can then sink below the
    join feeding it).  Returns the rewritten plan; decisions accumulate
    on ``stats`` and in ``trace``.
    """
    stats = stats if stats is not None else ReorderStats()
    ctx = ctx if ctx is not None else PlanContext()
    return _Reorderer(stats, ctx, trace, site).run(root)
