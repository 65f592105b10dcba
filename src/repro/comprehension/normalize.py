"""Comprehension normalization — the unnesting rules of Section 4.1.

Three rewrite rules, applied to a fixpoint:

1. **Head unnesting** (flatten elimination)::

       flatten [[ [[ e | qs' ]] | qs ]]^T  =>  [[ e | qs, qs' ]]^T

2. **Generator unnesting** (fusion)::

       [[ t | qs, x <- [[ t' | qs' ]], qs'' ]]^T
           =>  [[ t[t'/x] | qs, qs', qs''[t'/x] ]]^T

   This performs map/fold fusion at compile time — chains that engines
   would otherwise pipeline through virtual function calls collapse into
   a single comprehension.

3. **Exists unnesting** (a generalization of Kim's type-N rewrite)::

       [[ e | qs, [[ p | qs'' ]]^exists, qs' ]]^T
           =>  [[ e | qs, qs'', p, qs' ]]^T

   The spliced generators are marked ``EXISTS`` mode, preserving bag
   multiplicities (the lowering realizes them as semi-joins and may pick
   a broadcast or repartition strategy).  Negated existentials produce
   ``NOT_EXISTS`` (anti-join) generators.  This rule is *toggleable*:
   with ``unnest_exists=False`` the existential stays a guard, which the
   lowering realizes as a filter with a broadcast of the inner bag —
   exactly the paper's unoptimized baseline in Figure 4.

All rules alpha-rename spliced generator variables as needed to avoid
capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comprehension.exprs import (
    Expr,
    FoldCall,
    Lambda,
    Ref,
    UnaryOp,
    fresh_name,
    transform,
)
from repro.comprehension.ir import (
    BAG,
    Comprehension,
    Flatten,
    FoldKind,
    GenMode,
    Generator,
    Guard,
    Qualifier,
)

_MAX_PASSES = 64


@dataclass
class NormalizeStats:
    """Which rules fired during normalization (drives tests/reports)."""

    head_unnests: int = 0
    generator_unnests: int = 0
    exists_unnests: int = 0
    #: the ``unnest_exists`` parameter :func:`normalize` last ran with
    unnest_exists: bool = True

    def total(self) -> int:
        """Total rule firings (fixpoint detection)."""
        return (
            self.head_unnests
            + self.generator_unnests
            + self.exists_unnests
        )

    @property
    def fired(self) -> bool:
        return self.total() > 0

    def summary(self) -> str:
        """One-line provenance description of the rule firings."""
        detail = (
            f"exists={self.exists_unnests} "
            f"generator={self.generator_unnests} "
            f"head={self.head_unnests} unnests"
        )
        if not self.unnest_exists:
            detail += " (exists-unnesting disabled by config)"
        return detail


def normalize(
    expr: Expr,
    unnest_exists: bool = True,
    stats: NormalizeStats | None = None,
) -> Expr:
    """Apply the normalization rules to a fixpoint, bottom-up."""
    stats = stats if stats is not None else NormalizeStats()
    stats.unnest_exists = unnest_exists
    current = expr
    for _ in range(_MAX_PASSES):
        before = stats.total()
        current = transform(
            current, lambda node: _normalize_node(node, unnest_exists, stats)
        )
        if stats.total() == before:
            return current
    return current


def _normalize_node(
    node: Expr, unnest_exists: bool, stats: NormalizeStats
) -> Expr:
    if isinstance(node, Flatten):
        rewritten = _unnest_head(node, stats)
        if rewritten is not None:
            return rewritten
        return node
    if isinstance(node, Comprehension):
        rewritten = _unnest_generator(node, stats)
        if rewritten is not None:
            return rewritten
        if unnest_exists:
            rewritten = _unnest_exists(node, stats)
            if rewritten is not None:
                return rewritten
    return node


# ---------------------------------------------------------------------------
# Rule 1: head unnesting
# ---------------------------------------------------------------------------


def _unnest_head(node: Flatten, stats: NormalizeStats) -> Expr | None:
    outer = node.source
    if not isinstance(outer, Comprehension) or outer.is_fold():
        return None
    inner = outer.head
    if not isinstance(inner, Comprehension) or inner.is_fold():
        # ``flatten [[ b | qs ]]`` where b is any collection-valued
        # expression (flatten requires one): wrap b in a trivial
        # comprehension so the rule applies —
        # ``flatten [[ b | qs ]] == [[ y | qs, y <- b ]]``.
        var = fresh_name("_f", outer.free_vars() | _bound_vars(outer))
        inner = Comprehension(
            head=Ref(var),
            qualifiers=(Generator(var, inner),),
            kind=BAG,
        )
    inner = _avoid_collisions(
        inner, _bound_vars(outer) | outer.free_vars()
    )
    stats.head_unnests += 1
    return Comprehension(
        head=inner.head,
        qualifiers=outer.qualifiers + inner.qualifiers,
        kind=outer.kind,
    )


# ---------------------------------------------------------------------------
# Rule 2: generator unnesting (fusion)
# ---------------------------------------------------------------------------


def _unnest_generator(
    node: Comprehension, stats: NormalizeStats
) -> Expr | None:
    for i, q in enumerate(node.qualifiers):
        if not isinstance(q, Generator) or q.mode is not GenMode.NORMAL:
            continue
        source = q.source
        if not isinstance(source, Comprehension) or source.is_fold():
            continue
        taken = _bound_vars(node) | node.free_vars()
        source = _avoid_collisions(source, taken)
        replacement = {q.var: source.head}
        tail: list[Qualifier] = []
        for rest in node.qualifiers[i + 1 :]:
            if isinstance(rest, Generator):
                tail.append(
                    Generator(
                        rest.var,
                        rest.source.substitute(replacement),
                        rest.mode,
                    )
                )
            else:
                tail.append(Guard(rest.predicate.substitute(replacement)))
        new_head = node.head.substitute(replacement)
        new_kind = node.kind
        if isinstance(new_kind, FoldKind):
            new_kind = FoldKind(new_kind.spec.substitute(replacement))
        stats.generator_unnests += 1
        return Comprehension(
            head=new_head,
            qualifiers=(
                node.qualifiers[:i] + source.qualifiers + tuple(tail)
            ),
            kind=new_kind,
        )
    return None


# ---------------------------------------------------------------------------
# Rule 3: exists unnesting
# ---------------------------------------------------------------------------


def _unnest_exists(
    node: Comprehension, stats: NormalizeStats
) -> Expr | None:
    for i, q in enumerate(node.qualifiers):
        if not isinstance(q, Guard):
            continue
        match = _match_existential(q.predicate)
        if match is None:
            continue
        inner, negated = match
        outer_bound = frozenset(
            g.var
            for g in node.qualifiers[:i]
            if isinstance(g, Generator)
        )
        splice = _existential_qualifiers(
            inner,
            negated,
            _bound_vars(node) | node.free_vars(),
            outer_bound,
        )
        if splice is None:
            continue
        stats.exists_unnests += 1
        return Comprehension(
            head=node.head,
            qualifiers=(
                node.qualifiers[:i]
                + splice
                + node.qualifiers[i + 1 :]
            ),
            kind=node.kind,
        )
    return None


def _match_existential(
    predicate: Expr,
) -> tuple[Comprehension | FoldCall, bool] | None:
    """Recognize ``xs.exists(p)`` / ``not xs.exists(p)`` guard shapes."""
    negated = False
    if isinstance(predicate, UnaryOp) and predicate.op == "not":
        negated = True
        predicate = predicate.operand
    if (
        isinstance(predicate, Comprehension)
        and isinstance(predicate.kind, FoldKind)
        and predicate.kind.spec.alias == "exists"
    ):
        return predicate, negated
    if isinstance(predicate, FoldCall) and predicate.spec.alias == "exists":
        return predicate, negated
    return None


def _existential_qualifiers(
    inner: Comprehension | FoldCall,
    negated: bool,
    taken: frozenset[str] | set[str],
    outer_bound: frozenset[str],
) -> tuple[Qualifier, ...] | None:
    """Build the spliced ``EXISTS``-generator + guards for a matched
    existential.

    Returns ``None`` (rule does not fire; the guard stays a broadcast
    filter) when the inner shape is unsupported: more than one inner
    generator, or no predicate conjunct of equi-join form connecting the
    inner variable to the outer generators — the shape the lowering
    needs to realize the generator as a semi-join.
    """
    mode = GenMode.NOT_EXISTS if negated else GenMode.EXISTS
    if isinstance(inner, FoldCall):
        # xs.exists(lambda y: p(y)) with an arbitrary bag expression xs.
        (pred,) = inner.spec.args
        if not isinstance(pred, Lambda) or len(pred.params) != 1:
            return None
        var = fresh_name(pred.params[0], taken)
        guards = _conjuncts(
            pred.body.substitute({pred.params[0]: Ref(var)})
        )
        gen = Generator(var, inner.source, mode)
        if not _semi_joinable(guards, var, outer_bound):
            return None
        return (gen, *(Guard(g) for g in guards))
    # Comprehension form: [[ h | y <- ys, gs ]]^exists(p)
    generators = inner.generators()
    if len(generators) != 1:
        return None
    inner = _avoid_collisions(inner, taken)
    (gen,) = inner.generators()
    guards = [g.predicate for g in inner.guards()]
    kind = inner.kind
    assert isinstance(kind, FoldKind)
    (pred,) = kind.spec.args
    if not isinstance(pred, Lambda) or len(pred.params) != 1:
        return None
    # The exists predicate applies to the inner head.
    guards.extend(
        _conjuncts(pred.body.substitute({pred.params[0]: inner.head}))
    )
    if not _semi_joinable(guards, gen.var, outer_bound):
        return None
    return (
        Generator(gen.var, gen.source, mode),
        *(Guard(g) for g in guards),
    )


def _conjuncts(predicate: Expr) -> list[Expr]:
    """Split top-level ``and`` chains into conjunct predicates."""
    from repro.comprehension.exprs import BoolOp

    if isinstance(predicate, BoolOp) and predicate.op == "and":
        out: list[Expr] = []
        for part in predicate.operands:
            out.extend(_conjuncts(part))
        return out
    return [predicate]


def _semi_joinable(
    guards: list[Expr], inner_var: str, outer_bound: frozenset[str]
) -> bool:
    """Check the guard set lowers to a clean semi-join.

    Required: every guard references only the inner variable (pushable
    onto the inner source) except exactly one equality conjunct of form
    ``k_outer(outer vars) == k_inner(inner var)``.
    """
    from repro.comprehension.exprs import Compare

    equi_count = 0
    for g in guards:
        names = g.free_vars()
        inner_only = inner_var in names and not (names & outer_bound)
        if inner_only:
            continue
        if (
            isinstance(g, Compare)
            and g.op == "=="
            and inner_var in names
        ):
            lv, rv = g.left.free_vars(), g.right.free_vars()
            one_sided = (
                inner_var in lv
                and not (lv & outer_bound)
                and rv & outer_bound
                and inner_var not in rv
            ) or (
                inner_var in rv
                and not (rv & outer_bound)
                and lv & outer_bound
                and inner_var not in lv
            )
            if one_sided:
                equi_count += 1
                continue
        return False
    return equi_count == 1


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _bound_vars(comp: Comprehension) -> frozenset[str]:
    return frozenset(g.var for g in comp.generators())


def _avoid_collisions(
    comp: Comprehension, taken: frozenset[str] | set[str]
) -> Comprehension:
    """Alpha-rename the comprehension's generators away from ``taken``."""
    renames: dict[str, Expr] = {}
    avoid = set(taken) | set(_bound_vars(comp)) | set(comp.free_vars())
    new_quals: list[Qualifier] = []
    for q in comp.qualifiers:
        if isinstance(q, Generator):
            source = q.source.substitute(renames) if renames else q.source
            var = q.var
            if var in taken:
                var = fresh_name(var, avoid)
                avoid.add(var)
                renames[q.var] = Ref(var)
            new_quals.append(Generator(var, source, q.mode))
        else:
            pred = (
                q.predicate.substitute(renames) if renames else q.predicate
            )
            new_quals.append(Guard(pred))
    head = comp.head.substitute(renames) if renames else comp.head
    kind = comp.kind
    if renames and isinstance(kind, FoldKind):
        kind = FoldKind(kind.spec.substitute(renames))
    if not renames:
        return comp
    return Comprehension(head=head, qualifiers=tuple(new_quals), kind=kind)
