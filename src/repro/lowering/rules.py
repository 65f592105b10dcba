"""Comprehension -> combinator rewrite rules (paper Figure 2 / 3a).

The rewrite works on one normalized comprehension at a time and follows
the Figure 3a state machine:

1. **Filter** — every guard whose variables come from a single generator
   is pushed down onto that generator's dataflow.
2. **EqJoin** — an equality guard connecting two generators turns them
   into an equi-join; ``EXISTS``/``NOT_EXISTS`` generators turn into
   semi-/anti-joins of their partner generator.
3. **Cross** — remaining generator pairs combine via cartesian product.
4. **Map / FlatMap / Fold** — the head is applied to the single
   remaining dataflow; a fold kind wraps the result in a global fold.

Guards that survive to step 4 (e.g. non-equi predicates over joined
variables) become residual filters on the combined dataflow.

The bookkeeping uses *slots*: a slot is a dataflow under construction
plus a mapping from the original comprehension variables it covers to
access expressions over the slot's element variable (after a join the
element is the pair ``(x, y)``, so ``x`` maps to ``elem[0]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.tracing import CompileTrace

from repro.comprehension.exprs import (
    AggByCall,
    BagLiteral,
    Compare,
    DistinctCall,
    Expr,
    GroupByCall,
    Index,
    MinusCall,
    PlusCall,
    ReadCall,
    Ref,
    StatefulBagOf,
    TupleExpr,
    fresh_name,
)
from repro.comprehension.ir import (
    Comprehension,
    Flatten,
    FoldKind,
    GenMode,
    Generator,
)
from repro.errors import LoweringError
from repro.lowering.combinators import (
    CAggBy,
    CBagRef,
    CCross,
    CDistinct,
    CEqJoin,
    CFilter,
    CFlatMap,
    CFold,
    CGroupBy,
    CMap,
    CMinus,
    CParallelize,
    CSemiJoin,
    CSource,
    CUnion,
    Combinator,
    ScalarFn,
)


@dataclass
class LoweringContext:
    """Ambient knowledge for a lowering run.

    ``driver_vars`` are names bound in the driver (scalars or bags) —
    guards referencing only driver names are constant per dataflow and
    are applied as cheap residual filters.  ``push_filters`` disables
    the Figure 3a filter-pushdown state when False (an ablation knob:
    single-generator guards then run as residual filters above the
    joins instead of below them).
    """

    driver_vars: frozenset[str] = frozenset()
    push_filters: bool = True
    #: compile-provenance collector (duck-typed to avoid an engines
    #: import at module level); None = no recording
    trace: "CompileTrace | None" = None
    #: dataflow-site index stamped onto recorded events
    site: int | None = None

    def record(
        self,
        rule: str,
        fired: bool,
        detail: str,
        before: Any = None,
        after: Any = None,
    ) -> None:
        """Record one lowering-rule decision (no-op without a trace)."""
        if self.trace is not None:
            self.trace.record(
                "lowering",
                rule,
                fired,
                detail=detail,
                site=self.site,
                before=before,
                after=after,
            )


@dataclass
class _Slot:
    comb: Combinator
    var: str
    bindings: dict[str, Expr]

    def covers(self, names: Iterable[str]) -> bool:
        return all(n in self.bindings for n in names)


def lower(expr: Expr, ctx: LoweringContext | None = None) -> Combinator:
    """Lower a normalized bag/fold expression to a combinator tree."""
    ctx = ctx or LoweringContext()
    if isinstance(expr, Comprehension):
        return _lower_comprehension(expr, ctx, flatten_head=False)
    if isinstance(expr, Flatten):
        inner = expr.source
        if isinstance(inner, Comprehension):
            return _lower_comprehension(inner, ctx, flatten_head=True)
        raise LoweringError(
            "flatten of a non-comprehension survived normalization"
        )
    return lower_source(expr, ctx)


def lower_source(expr: Expr, ctx: LoweringContext) -> Combinator:
    """Lower a generator source expression to a combinator leaf/subtree."""
    if isinstance(expr, Ref):
        return CBagRef(name=expr.name)
    if isinstance(expr, ReadCall):
        return CSource(path=expr.path, fmt=expr.fmt)
    if isinstance(expr, BagLiteral):
        return CParallelize(seq=expr.seq)
    if isinstance(expr, GroupByCall):
        return CGroupBy(
            key=ScalarFn(expr.key.params, expr.key.body),
            input=lower_source(expr.source, ctx),
        )
    if isinstance(expr, AggByCall):
        return CAggBy(
            key=ScalarFn(expr.key.params, expr.key.body),
            specs=expr.specs,
            input=lower_source(expr.source, ctx),
        )
    if isinstance(expr, PlusCall):
        return CUnion(
            left=lower_source(expr.left, ctx),
            right=lower_source(expr.right, ctx),
        )
    if isinstance(expr, MinusCall):
        return CMinus(
            left=lower_source(expr.left, ctx),
            right=lower_source(expr.right, ctx),
        )
    if isinstance(expr, DistinctCall):
        return CDistinct(input=lower_source(expr.source, ctx))
    if isinstance(expr, StatefulBagOf) and isinstance(expr.state, Ref):
        # Reading a stateful bag inside a dataflow: the driver name
        # resolves to the engine's keyed state, already distributed.
        return CBagRef(name=expr.state.name)
    if isinstance(expr, (Comprehension, Flatten)):
        return lower(expr, ctx)
    raise LoweringError(
        f"cannot use {type(expr).__name__} as a dataflow source"
    )


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------


def _lower_comprehension(
    comp: Comprehension, ctx: LoweringContext, flatten_head: bool
) -> Combinator:
    slots: list[_Slot] = []
    guards: list[Expr] = []
    existentials: list[Generator] = []
    order: list[str] = []  # generator vars, for deterministic choices

    for q in comp.qualifiers:
        if isinstance(q, Generator):
            order.append(q.var)
            if q.mode is not GenMode.NORMAL:
                existentials.append(q)
                continue
            bound_so_far = {
                name for s in slots for name in s.bindings
            }
            dependent = q.source.free_vars() & bound_so_far
            if dependent:
                # Dependent generator: its source ranges over data
                # derived from an earlier element (e.g. an adjacency
                # list attribute).  Realized as a flat-map on the slot
                # that binds those variables, pairing each parent
                # element with each generated value.
                _absorb_dependent_generator(slots, q, dependent)
                ctx.record(
                    "flatmap-unnest",
                    True,
                    f"dependent generator {q.var!r} (ranging over "
                    f"{sorted(dependent)}) realized as a flat-map",
                    before=q.source,
                )
            else:
                slots.append(
                    _Slot(
                        comb=lower_source(q.source, ctx),
                        var=q.var,
                        bindings={q.var: Ref(q.var)},
                    )
                )
        else:
            guards.append(q.predicate)

    if not slots:
        raise LoweringError("comprehension has no normal generators")

    exists_vars = frozenset(g.var for g in existentials)

    # State 1: push single-generator filters down.  (Existential
    # guards always push: the semi-join construction depends on it.)
    if not ctx.push_filters and guards:
        ctx.record(
            "filter-pushdown",
            False,
            "disabled by config; single-generator guards run as "
            "residual filters above the joins",
        )
    guards = _push_filters(slots, existentials, guards, ctx, exists_vars)

    # State 2a: resolve existential generators into semi-/anti-joins.
    guards = _apply_existentials(slots, existentials, guards, ctx)

    # State 2b: equi-joins between remaining slots.
    guards = _apply_joins(slots, guards, ctx)

    # State 3: cross products for unconnected slots.
    _apply_crosses(slots, ctx)

    (slot,) = slots

    # Residual guards (non-equi multi-variable predicates).
    for predicate in guards:
        ctx.record(
            "residual-filter",
            True,
            "guard is not a pushable/joinable equality; kept as a "
            "filter above the joins",
            before=predicate,
        )
        slot.comb = CFilter(
            predicate=ScalarFn(
                (slot.var,), predicate.substitute(slot.bindings)
            ),
            input=slot.comb,
        )

    # State 4: head application.
    head = comp.head.substitute(slot.bindings)
    head_fn = ScalarFn((slot.var,), head)
    if isinstance(comp.kind, FoldKind):
        spec = comp.kind.spec.substitute(slot.bindings)
        if not head_fn.is_identity() or spec.head is not None:
            spec = spec.fused_with(slot.var, head, ())
        return CFold(spec=spec, input=slot.comb)
    if flatten_head:
        return CFlatMap(fn=head_fn, input=slot.comb)
    if head_fn.is_identity():
        return slot.comb
    return CMap(fn=head_fn, input=slot.comb)


def _absorb_dependent_generator(
    slots: list[_Slot], gen: Generator, dependent: frozenset[str]
) -> None:
    """Fold a dependent generator into the slot binding its variables."""
    from repro.comprehension.ir import BAG as _BAG

    owner = None
    for slot in slots:
        if dependent <= frozenset(slot.bindings):
            owner = slot
            break
    if owner is None:
        raise LoweringError(
            f"generator {gen.var!r} depends on variables from several "
            "dataflows; join them with an explicit predicate first"
        )
    source = gen.source.substitute(owner.bindings)
    pair_comp = Comprehension(
        head=TupleExpr((Ref(owner.var), Ref(gen.var))),
        qualifiers=(Generator(gen.var, source),),
        kind=_BAG,
    )
    new_var = fresh_name(
        "_fm", frozenset(owner.bindings) | {gen.var, owner.var}
    )
    comb = CFlatMap(
        fn=ScalarFn((owner.var,), pair_comp),
        input=owner.comb,
    )
    left_elem = Index(Ref(new_var), _const_index(0))
    right_elem = Index(Ref(new_var), _const_index(1))
    new_bindings: dict[str, Expr] = {}
    for name, access in owner.bindings.items():
        new_bindings[name] = access.substitute({owner.var: left_elem})
    new_bindings[gen.var] = right_elem
    owner.comb = comb
    owner.var = new_var
    owner.bindings = new_bindings


def _comp_vars(expr: Expr, ctx: LoweringContext) -> frozenset[str]:
    """Free names of ``expr`` that are comprehension-bound (not driver)."""
    return expr.free_vars() - ctx.driver_vars


def _push_filters(
    slots: list[_Slot],
    existentials: list[Generator],
    guards: list[Expr],
    ctx: LoweringContext,
    exists_vars: frozenset[str],
) -> list[Expr]:
    """Attach guards referencing a single generator to that generator.

    A guard counts every generator it names, normal or existential, so
    an equi-guard between a slot and an existential stays behind for the
    semi-join.  With filter pushdown off only exists-only guards move.
    """
    remaining: list[Expr] = []
    slot_by_name: dict[str, _Slot] = {}
    for s in slots:
        for bound in s.bindings:
            slot_by_name[bound] = s
    for predicate in guards:
        names = _comp_vars(predicate, ctx) & (
            set(slot_by_name) | exists_vars
        )
        exists_names = names & exists_vars
        if len(names) == 1 and exists_names:
            (name,) = names
            gen = next(g for g in existentials if g.var == name)
            idx = existentials.index(gen)
            filtered = CFilter(
                predicate=ScalarFn((name,), predicate),
                input=_existential_source(gen, ctx),
            )
            existentials[idx] = Generator(
                var=gen.var,
                source=_Prelowered(filtered),
                mode=gen.mode,
            )
            ctx.record(
                "filter-pushdown",
                True,
                f"guard pushed onto existential generator {name!r}",
                before=predicate,
            )
            continue
        if names and not exists_names and ctx.push_filters:
            owners = {id(slot_by_name[n]) for n in names}
            if len(owners) == 1:
                slot = slot_by_name[next(iter(names))]
                slot.comb = CFilter(
                    predicate=ScalarFn(
                        (slot.var,),
                        predicate.substitute(slot.bindings),
                    ),
                    input=slot.comb,
                )
                ctx.record(
                    "filter-pushdown",
                    True,
                    f"single-generator guard over {sorted(names)} "
                    "pushed below the joins",
                    before=predicate,
                )
                continue
        # Multi-slot predicates (join candidates) and driver-constant
        # guards stay for the later rewrite states.
        remaining.append(predicate)
    return remaining


def _existential_source(gen: Generator, ctx: LoweringContext) -> Combinator:
    if isinstance(gen.source, _Prelowered):
        return gen.source.comb
    return lower_source(gen.source, ctx)


@dataclass(frozen=True)
class _Prelowered(Expr):
    """Internal wrapper: a generator source already lowered to a dataflow."""

    comb: Combinator = None  # type: ignore[assignment]

    def children(self):  # pragma: no cover - no Expr children
        return iter(())

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping) -> Expr:
        return self


def _split_equi_guard(
    predicate: Expr,
    left_names: frozenset[str],
    right_names: frozenset[str],
    ctx: LoweringContext,
) -> tuple[Expr, Expr] | None:
    """Match ``k1(x) == k2(y)`` with sides split across two var sets.

    Returns (left-side key expr, right-side key expr) or ``None``.
    """
    if not isinstance(predicate, Compare) or predicate.op != "==":
        return None
    generator_names = left_names | right_names
    lv = predicate.left.free_vars() & generator_names
    rv = predicate.right.free_vars() & generator_names
    if lv and lv <= left_names and rv and rv <= right_names:
        return predicate.left, predicate.right
    if lv and lv <= right_names and rv and rv <= left_names:
        return predicate.right, predicate.left
    return None


def _apply_existentials(
    slots: list[_Slot],
    existentials: list[Generator],
    guards: list[Expr],
    ctx: LoweringContext,
) -> list[Expr]:
    """Turn EXISTS/NOT_EXISTS generators into semi-/anti-joins."""
    for gen in existentials:
        gen_names = frozenset((gen.var,))
        matched = False
        for slot in slots:
            slot_names = frozenset(slot.bindings)
            for predicate in list(guards):
                split = _split_equi_guard(
                    predicate, slot_names, gen_names, ctx
                )
                if split is None:
                    continue
                left_key, right_key = split
                anti = gen.mode is GenMode.NOT_EXISTS
                slot.comb = CSemiJoin(
                    kx=ScalarFn(
                        (slot.var,), left_key.substitute(slot.bindings)
                    ),
                    ky=ScalarFn((gen.var,), right_key),
                    left=slot.comb,
                    right=_existential_source(gen, ctx),
                    anti=anti,
                )
                ctx.record(
                    "anti-join" if anti else "semi-join",
                    True,
                    f"{'NOT_EXISTS' if anti else 'EXISTS'} generator "
                    f"{gen.var!r} + equi-guard realized as a "
                    f"{'anti' if anti else 'semi'}-join",
                    before=predicate,
                )
                guards.remove(predicate)
                matched = True
                break
            if matched:
                break
        if not matched:
            raise LoweringError(
                f"existential generator {gen.var!r} has no equi-join "
                "predicate; normalization should not have unnested it"
            )
    return guards


def _apply_joins(
    slots: list[_Slot], guards: list[Expr], ctx: LoweringContext
) -> list[Expr]:
    """Repeatedly join slot pairs connected by equality guards."""
    changed = True
    while changed and len(slots) > 1:
        changed = False
        for predicate in list(guards):
            pair = _find_joinable(slots, predicate, ctx)
            if pair is None:
                continue
            a, b, left_key, right_key = pair
            joined = _join_slots(a, b, left_key, right_key)
            ctx.record(
                "equi-join",
                True,
                f"equality guard joins generators "
                f"{sorted(a.bindings)} and {sorted(b.bindings)}",
                before=predicate,
                after=joined.comb,
            )
            slots.remove(a)
            slots.remove(b)
            slots.append(joined)
            guards.remove(predicate)
            changed = True
            break
    return guards


def _find_joinable(
    slots: list[_Slot], predicate: Expr, ctx: LoweringContext
) -> tuple[_Slot, _Slot, Expr, Expr] | None:
    for i, a in enumerate(slots):
        for b in slots[i + 1 :]:
            split = _split_equi_guard(
                predicate,
                frozenset(a.bindings),
                frozenset(b.bindings),
                ctx,
            )
            if split is not None:
                return a, b, split[0], split[1]
    return None


def _join_slots(
    a: _Slot, b: _Slot, left_key: Expr, right_key: Expr
) -> _Slot:
    var = fresh_name("_j", frozenset(a.bindings) | frozenset(b.bindings))
    comb = CEqJoin(
        kx=ScalarFn((a.var,), left_key.substitute(a.bindings)),
        ky=ScalarFn((b.var,), right_key.substitute(b.bindings)),
        left=a.comb,
        right=b.comb,
    )
    return _Slot(comb=comb, var=var, bindings=_pair_bindings(a, b, var))


def _apply_crosses(
    slots: list[_Slot], ctx: LoweringContext
) -> None:
    while len(slots) > 1:
        a = slots.pop(0)
        b = slots.pop(0)
        ctx.record(
            "cross",
            True,
            f"no connecting guard between {sorted(a.bindings)} and "
            f"{sorted(b.bindings)}; combined via cartesian product",
        )
        var = fresh_name(
            "_c", frozenset(a.bindings) | frozenset(b.bindings)
        )
        slot = _Slot(
            comb=CCross(left=a.comb, right=b.comb),
            var=var,
            bindings=_pair_bindings(a, b, var),
        )
        slots.insert(0, slot)


def _pair_bindings(a: _Slot, b: _Slot, var: str) -> dict[str, Expr]:
    """Rebase both slots' bindings onto the pair element ``(a, b)``."""
    left_elem = Index(Ref(var), _const_index(0))
    right_elem = Index(Ref(var), _const_index(1))
    bindings: dict[str, Expr] = {}
    for name, access in a.bindings.items():
        bindings[name] = access.substitute({a.var: left_elem})
    for name, access in b.bindings.items():
        bindings[name] = access.substitute({b.var: right_elem})
    return bindings


def _const_index(i: int) -> Expr:
    from repro.comprehension.exprs import Const

    return Const(i)
