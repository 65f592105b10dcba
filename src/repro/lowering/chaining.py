"""Physical operator chaining (paper §4.3.1, Figure 1's physical layer).

The logical layer already fuses comprehensions; this pass performs the
*physical* counterpart the target engines apply below it: maximal runs
of narrow, record-wise operators (``CMap``, ``CFlatMap``, ``CFilter``)
are grouped into a single :class:`~repro.lowering.combinators.CChain`
node that the executor runs as one fused per-partition kernel — one
task-overhead charge and one intermediate materialization per *chain*
instead of per *operator* (Flink's pipelined operator chains, Spark's
fused narrow stages).

Chain discovery is purely structural and never changes program meaning:

* an operator may only be *interior* to a chain when it has exactly one
  consumer (fusing a shared node would duplicate its work and defeat
  per-job DAG memoization), carries no ``cache`` annotation, and no
  ``partition_hint``;
* the chain head inherits the outermost operator's physical
  annotations, and is flagged ``shared`` when that operator feeds
  several consumers — a shared chain still fuses internally but is
  never inlined into a downstream aggregation.

Shared subtrees are rebuilt exactly once (by object identity), so a
diamond-shaped plan stays a diamond.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lowering.combinators import (
    CChain,
    CFilter,
    CFlatMap,
    CMap,
    Combinator,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.tracing import CompileTrace

#: the narrow record-wise operators eligible for chaining
CHAINABLE = (CMap, CFlatMap, CFilter)


@dataclass
class ChainStats:
    """What the pass did — feeds the optimizer's report."""

    chains: int = 0
    chained_operators: int = 0

    @property
    def fired(self) -> bool:
        return self.chains > 0

    def summary(self) -> str:
        """The provenance line of a site where nothing was fused (each
        fusion and boundary is recorded by the pass as it happens)."""
        return (
            "no run of two or more adjacent record-wise operators "
            "in this plan"
        )


def consumer_counts(root: Combinator) -> Counter:
    """Consumer-edge counts per node (by identity, sharing-aware)."""
    counts: Counter = Counter()
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.inputs():
            counts[id(child)] += 1
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return counts


def _boundary_reason(cur: Combinator, consumers: Counter) -> str:
    """Why a chain run stopped growing at ``cur``."""
    if not isinstance(cur, CHAINABLE):
        return f"{cur.label()} is not record-wise"
    if consumers[id(cur)] != 1:
        return (
            f"{cur.label()} feeds {consumers[id(cur)]} consumers "
            "(fusing would duplicate its work)"
        )
    if cur.cache:
        return f"{cur.label()} carries a cache annotation"
    return f"{cur.label()} carries an enforced partitioning"


def chain_operators(
    root: Combinator,
    stats: ChainStats | None = None,
    trace: "CompileTrace | None" = None,
    site: int | None = None,
) -> Combinator:
    """Rewrite ``root`` with maximal operator runs fused into chains."""
    stats = stats if stats is not None else ChainStats()
    consumers = consumer_counts(root)
    memo: dict[int, Combinator] = {}

    def rebuild(node: Combinator) -> Combinator:
        key = id(node)
        if key in memo:
            return memo[key]
        result = _rebuild_one(node)
        memo[key] = result
        return result

    def _rebuild_one(node: Combinator) -> Combinator:
        if isinstance(node, CHAINABLE):
            run = [node]
            cur = node.input
            while (
                isinstance(cur, CHAINABLE)
                and consumers[id(cur)] == 1
                and not cur.cache
                and cur.partition_hint is None
            ):
                run.append(cur)
                cur = cur.input
            if len(run) > 1:
                stats.chains += 1
                stats.chained_operators += len(run)
                if trace is not None:
                    trace.record(
                        "operator chaining",
                        "chain-fuse",
                        True,
                        detail=(
                            " -> ".join(
                                op.label() for op in reversed(run)
                            )
                            + " fused into one kernel; boundary: "
                            + _boundary_reason(cur, consumers)
                        ),
                        site=site,
                    )
                return CChain(
                    cache=node.cache,
                    partition_hint=node.partition_hint,
                    ops=tuple(reversed(run)),
                    input=rebuild(cur),
                    shared=consumers[id(node)] > 1,
                )
            if trace is not None and isinstance(node.input, CHAINABLE):
                trace.record(
                    "operator chaining",
                    "chain-fuse",
                    False,
                    detail=(
                        f"{node.label()} not fused with its input; "
                        + _boundary_reason(node.input, consumers)
                    ),
                    site=site,
                )
        return _rebuild_children(node)

    def _rebuild_children(node: Combinator) -> Combinator:
        changes: dict[str, Combinator] = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Combinator):
                new = rebuild(value)
                if new is not value:
                    changes[f.name] = new
        if not changes:
            return node
        # dataclasses.replace preserves node_id/cache/partition_hint.
        return dataclasses.replace(node, **changes)

    return rebuild(root)
