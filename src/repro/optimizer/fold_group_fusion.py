"""Fold-group fusion (paper Section 4.2.2).

The rewrite targets comprehensions with a generator over a ``group_by``
whose group values are consumed *exclusively* by folds::

    [[ t | g <- xs.group_by(k) ]]      with t using g.values only
                                       inside fold comprehensions

Two algebraic laws justify the rewrite:

* **Banana split** — a tuple of folds over the same bag equals one fold
  over tuples of the component algebras applied pointwise;
* **Fold-build fusion** (deforestation) — constructing the group values
  with the bag constructors and immediately consuming them with a fold
  collapses into applying the fold algebra during construction.

Together: replace the ``group_by`` with an ``agg_by`` carrying the
product of the collected fold algebras, and substitute each original
fold comprehension in the head/guards with a positional aggregate
access ``g.aggs[i]``.  Because our folds are defined over the *union*
representation, the combining functions are associative-commutative by
the well-definedness conditions, so the partial aggregation that
``agg_by`` performs on the mapper side is always legal — no extra
"homomorphy" annotations needed (contrast with Steno [29], discussed in
the paper's related work).

The rewrite is conservative: if any use of ``g.values`` escapes a fold
comprehension, or a fold comprehension over the values has more than
one generator, the ``group_by`` is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comprehension.exprs import (
    AggByCall,
    AlgebraSpec,
    Attr,
    Const,
    Expr,
    GroupByCall,
    Index,
    Ref,
    transform,
    walk,
)
from repro.comprehension.ir import (
    Comprehension,
    FoldKind,
    Generator,
    Guard,
    Qualifier,
)


@dataclass
class FusionStats:
    """How many group-by sites were fused (drives Table 1 reporting)."""

    fused_groups: int = 0
    fused_folds: int = 0

    @property
    def fired(self) -> bool:
        return self.fused_groups > 0

    def summary(self) -> str:
        """One-line provenance description of the fusions."""
        if not self.fired:
            return "no group consumed exclusively by folds"
        return (
            f"{self.fused_groups} group(s) with "
            f"{self.fused_folds} fold(s) fused into agg_by"
        )


def fold_group_fusion(
    expr: Expr, stats: FusionStats | None = None
) -> Expr:
    """Apply fold-group fusion bottom-up across an expression tree."""
    stats = stats if stats is not None else FusionStats()

    def rewrite(node: Expr) -> Expr:
        if isinstance(node, Comprehension):
            fused = _try_fuse(node, stats)
            if fused is not None:
                return fused
        return node

    return transform(expr, rewrite)


def _try_fuse(
    comp: Comprehension, stats: FusionStats
) -> Comprehension | None:
    for gi, q in enumerate(comp.qualifiers):
        if not isinstance(q, Generator):
            continue
        if not isinstance(q.source, GroupByCall):
            continue
        fused = _fuse_generator(comp, gi, q, stats)
        if fused is not None:
            return fused
    return None


def _fuse_generator(
    comp: Comprehension,
    gi: int,
    gen: Generator,
    stats: FusionStats,
) -> Comprehension | None:
    g = gen.var
    group_by = gen.source
    assert isinstance(group_by, GroupByCall)
    values_access = Attr(Ref(g), "values")

    # Later generators must not range over the group values.
    for q in comp.qualifiers[gi + 1 :]:
        if isinstance(q, Generator) and g in q.source.free_vars():
            return None

    # The region where g is visible: the head plus later guards (and
    # the outer fold spec, where fusion is not supported).
    if isinstance(comp.kind, FoldKind) and g in comp.kind.spec.free_vars():
        return None
    region: list[Expr] = [comp.head]
    region.extend(
        q.predicate
        for q in comp.qualifiers[gi + 1 :]
        if isinstance(q, Guard)
    )

    # Collect the distinct fold comprehensions over g.values.  Folds
    # that differ only in generator variable names are the same
    # aggregate (resugaring synthesizes fresh names), so candidates are
    # deduplicated up to alpha-equivalence.
    candidates: list[Comprehension] = []
    candidate_keys: list[Comprehension] = []
    for part in region:
        for node in walk(part):
            if _is_fold_over(node, values_access):
                key = _alpha_canonical(node)  # type: ignore[arg-type]
                if not any(key == k for k in candidate_keys):
                    candidates.append(node)  # type: ignore[arg-type]
                    candidate_keys.append(key)
    if not candidates:
        return None

    # Build the fused algebra specs; abort on unsupported shapes.
    specs: list[AlgebraSpec] = []
    for cand in candidates:
        spec = _fused_spec(cand)
        if spec is None:
            return None
        specs.append(spec)

    # Substitute each candidate with a positional aggregate access and
    # then verify no use of g escaped the candidates.
    def replace(node: Expr) -> Expr:
        if not _is_fold_over(node, values_access):
            return node
        key = _alpha_canonical(node)  # type: ignore[arg-type]
        for i, cand_key in enumerate(candidate_keys):
            if key == cand_key:
                return Index(Attr(Ref(g), "aggs"), Const(i))
        return node

    new_head = transform(comp.head, replace)
    new_quals: list[Qualifier] = list(comp.qualifiers[: gi + 1])
    for q in comp.qualifiers[gi + 1 :]:
        if isinstance(q, Guard):
            new_quals.append(Guard(transform(q.predicate, replace)))
        else:
            new_quals.append(q)

    if not _uses_only_key_and_aggs(
        new_head,
        [
            q.predicate
            for q in new_quals[gi + 1 :]
            if isinstance(q, Guard)
        ],
        g,
    ):
        return None

    key = group_by.key
    new_quals[gi] = Generator(
        var=g,
        source=AggByCall(
            source=group_by.source, key=key, specs=tuple(specs)
        ),
        mode=gen.mode,
    )
    stats.fused_groups += 1
    stats.fused_folds += len(specs)
    return Comprehension(
        head=new_head, qualifiers=tuple(new_quals), kind=comp.kind
    )


def _alpha_canonical(comp: Comprehension) -> Comprehension:
    """Rename a fold comprehension's generator variable positionally.

    Single-generator fold comprehensions (the only candidate shape) get
    their variable renamed to ``_cv0`` so alpha-equivalent folds compare
    equal structurally.
    """
    (gen,) = comp.generators()
    if gen.var == "_cv0":
        return comp
    rename = {gen.var: Ref("_cv0")}
    new_quals: list[Qualifier] = []
    for q in comp.qualifiers:
        if isinstance(q, Generator):
            new_quals.append(
                Generator(var="_cv0", source=q.source, mode=q.mode)
            )
        else:
            new_quals.append(Guard(q.predicate.substitute(rename)))
    kind = comp.kind
    if isinstance(kind, FoldKind):
        kind = FoldKind(kind.spec.substitute(rename))
    return Comprehension(
        head=comp.head.substitute(rename),
        qualifiers=tuple(new_quals),
        kind=kind,
    )


def _is_fold_over(node: Expr, values_access: Expr) -> bool:
    """A single-generator fold comprehension ranging over the values."""
    if not isinstance(node, Comprehension):
        return False
    if not isinstance(node.kind, FoldKind):
        return False
    generators = node.generators()
    if len(generators) != 1:
        return False
    return generators[0].source == values_access


def _fused_spec(cand: Comprehension) -> AlgebraSpec | None:
    """Fuse the fold comprehension's body into its algebra spec.

    ``[[ h | x <- g.values, p1, ..., pn ]]^fold(e,s,u)`` becomes the
    spec ``(e, x -> s(h) if all p else e, u)`` — legal by the unit law.
    """
    (gen,) = cand.generators()
    guards = tuple(gq.predicate for gq in cand.guards())
    # Guards may only reference the element variable and outer scope —
    # they cannot reference other group values (no generators left).
    assert isinstance(cand.kind, FoldKind)
    spec = cand.kind.spec
    if spec.head is not None or spec.guards:
        return None  # already fused once; should not occur
    head = cand.head
    if isinstance(head, Ref) and head.name == gen.var and not guards:
        return spec
    return spec.fused_with(gen.var, head, guards)


def _uses_only_key_and_aggs(
    head: Expr, guard_preds: list[Expr], g: str
) -> bool:
    """After substitution, ``g`` may appear only as ``g.key``/``g.aggs``."""
    for part in [head, *guard_preds]:
        total = 0
        sanctioned = 0
        for node in walk(part):
            if isinstance(node, Ref) and node.name == g:
                total += 1
            if (
                isinstance(node, Attr)
                and node.name in ("key", "aggs")
                and node.obj == Ref(g)
            ):
                sanctioned += 1
        if total != sanctioned:
            return False
    return True
