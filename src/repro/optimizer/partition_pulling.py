"""Partition pulling (paper Section 4.4, "Partition Pulling").

"Partitionings that can be reused by a certain dataflow (e.g. on a join
or group key) can be spotted by Emma and enforced earlier in the
pipeline. ... (i) compute the sets of interesting partitionings for
each dataflow result based on its occurrence in other dataflow inputs,
and (ii) enforce a partitioning at the producer site based on a
weighted scheme that prefers consumers occurring within a loop
structure."

This pass runs over the *normalized* dataflow-site expressions (so
equi-join predicates and ``agg_by``/``group_by`` keys are explicit) and
collects, for every cached name, the keys on which its consumers join
or group.  The weighted winner becomes the cache site's enforced
partitioning — the one shuffle it costs is paid when the cache is
built, outside the loop, and every consuming iteration reuses it (the
synergy with caching that Figure 4's rightmost bars demonstrate).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.comprehension.exprs import (
    AggByCall,
    Compare,
    Expr,
    GroupByCall,
    Ref,
    walk,
)
from repro.comprehension.ir import Comprehension, Generator, Guard
from repro.lowering.combinators import ScalarFn

_LOOP_WEIGHT = 4


@dataclass(frozen=True)
class PartitionUse:
    """One observed key use for a named bag.

    ``partner`` names the other side of an equi-join/semi-join use
    (``None`` for grouping uses).  An enforced partitioning on one join
    side only eliminates a shuffle when the other side's partitioning
    also survives loop iterations, so the chooser requires join
    partners to be cached too.
    """

    name: str
    key: ScalarFn
    weight: int
    partner: str | None = None
    kind: str = "join"  # "join" | "group"


@dataclass
class PartitionStats:
    """The keys :func:`choose_partition_keys` enforced, as provenance."""

    keys: dict[str, ScalarFn]
    #: whether any name was cached (no cache site, nothing to partition)
    cached: bool

    @property
    def fired(self) -> bool:
        return bool(self.keys)

    def summary(self) -> str | None:
        """The idle line; a fired pass is told by its decisions."""
        if self.fired:
            return None
        if not self.cached:
            return "nothing cached to pre-partition"
        return "no join/group key observed over cached names"

    @property
    def decisions(self) -> list[str]:
        return [
            f"{name} hash-partitioned on {key.describe()} at its "
            "cache site"
            for name, key in self.keys.items()
        ]


def collect_partition_uses(
    site_expr: Expr, in_loop: bool
) -> list[PartitionUse]:
    """Interesting partitionings in one normalized dataflow site."""
    weight = _LOOP_WEIGHT if in_loop else 1
    uses: list[PartitionUse] = []
    for node in walk(site_expr):
        if isinstance(node, (GroupByCall, AggByCall)):
            if isinstance(node.source, Ref):
                key = node.key
                uses.append(
                    PartitionUse(
                        name=node.source.name,
                        key=ScalarFn(key.params, key.body).canonical(),
                        weight=weight,
                        kind="group",
                    )
                )
        if isinstance(node, Comprehension):
            uses.extend(_comprehension_uses(node, weight))
    return uses


def _comprehension_uses(
    comp: Comprehension, weight: int
) -> list[PartitionUse]:
    """Equi-predicate key uses for generators ranging over named bags."""
    named_gens = {
        q.var: q.source.name
        for q in comp.qualifiers
        if isinstance(q, Generator) and isinstance(q.source, Ref)
    }
    if not named_gens:
        return []
    uses: list[PartitionUse] = []
    for q in comp.qualifiers:
        if not isinstance(q, Guard):
            continue
        pred = q.predicate
        if not isinstance(pred, Compare) or pred.op != "==":
            continue
        sides = (pred.left, pred.right)
        side_vars: list[str | None] = []
        for side in sides:
            names = side.free_vars()
            if len(names) == 1 and next(iter(names)) in named_gens:
                side_vars.append(next(iter(names)))
            else:
                side_vars.append(None)
        for side, var, other_var in zip(
            sides, side_vars, reversed(side_vars)
        ):
            if var is None:
                continue
            partner = (
                named_gens[other_var] if other_var is not None else None
            )
            uses.append(
                PartitionUse(
                    name=named_gens[var],
                    key=ScalarFn((var,), side).canonical(),
                    weight=weight,
                    partner=partner,
                )
            )
    return uses


def choose_partition_keys(
    uses: list[PartitionUse], cached_names: set[str]
) -> dict[str, ScalarFn]:
    """Pick the weighted-majority key per cached name."""
    tallies: dict[str, Counter] = {}
    keys_by_repr: dict[tuple[str, str], ScalarFn] = {}
    for use in uses:
        if use.name not in cached_names:
            continue
        # Join-key uses only count when the partner side's partitioning
        # also survives (i.e. the partner is cached); an enforced
        # partitioning against a recomputed partner elides no shuffle.
        if use.kind == "join" and (
            use.partner is None or use.partner not in cached_names
        ):
            continue
        key_id = use.key.describe()
        tallies.setdefault(use.name, Counter())[key_id] += use.weight
        keys_by_repr[(use.name, key_id)] = use.key
    chosen: dict[str, ScalarFn] = {}
    for name, tally in tallies.items():
        best_key_id, _votes = tally.most_common(1)[0]
        chosen[name] = keys_by_repr[(name, best_key_id)]
    return chosen
