"""Per-chain columnar/row kernel selection.

After physical operator chaining, each :class:`~repro.lowering.
combinators.CChain` can execute either row-at-a-time (the classic
fused kernel loop) or batch-at-a-time over :class:`~repro.engines.
columnar.ColumnBatch` partitions.  This pass applies the
*kernel-selection rule* per chain:

* every step must be in the vectorizable scalar subset
  (:func:`repro.engines.chainkernel.vectorizable_reason` — maps over
  columns, filters via selection masks; flat-maps always stream rows);
* a chain that the executor will fuse into a downstream aggregation's
  mapper phase stays row-at-a-time (it streams straight into the
  partial-aggregation accumulators and never materializes a batch).

The decision is recorded on the chain node (``columnar`` /
``columnar_reason``), rendered by ``explain()`` as
``Chain[... | columnar]`` or ``Chain[... | row]``, and traced with the
reason.  Selection is static; the executor re-checks the dynamic half
(actual record layout, binding values) per job and falls back to the
row kernel — counting ``columnar_fallbacks`` — when a partition's
types do not cooperate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engines.chainkernel import (
    FILTER,
    FLATMAP,
    MAP,
    vectorizable_reason,
)
from repro.lowering.chaining import consumer_counts
from repro.lowering.combinators import (
    CAggBy,
    CChain,
    CEqJoin,
    CFilter,
    CFlatMap,
    CGroupBy,
    CMap,
    CSemiJoin,
    Combinator,
    ScalarFn,
    rebuild_inputs,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.tracing import CompileTrace


@dataclass
class ColumnarStats:
    """What the pass decided — one count per selected plane."""

    columnar_chains: int = 0
    row_chains: int = 0
    columnar_exchanges: int = 0
    row_exchanges: int = 0
    #: the two knobs the chain half obeys (pass parameters, the way
    #: ``unnest_exists`` is one of ``normalize``)
    operator_chaining: bool = True
    chain_plane: str = "off"

    @property
    def selects_chains(self) -> bool:
        return self.operator_chaining and self.chain_plane != "off"

    @property
    def fired(self) -> bool:
        """Of the chain half, the rule :meth:`summary` speaks for."""
        return self.columnar_chains > 0

    def summary(self) -> str | None:
        """Why the chain plane selected nothing (``None`` when it ran:
        every chain and exchange decision is recorded by the pass)."""
        if self.selects_chains:
            return None
        if self.operator_chaining:
            return "disabled by config"
        return "no fused chains without operator chaining"


def chain_step_descs(
    chain: CChain,
) -> tuple[tuple[str, tuple[str, ...], object], ...]:
    """The ``(kind, params, body)`` description of each chain step."""
    out = []
    for op in chain.ops:
        if isinstance(op, CMap):
            out.append((MAP, op.fn.params, op.fn.body))
        elif isinstance(op, CFlatMap):
            out.append((FLATMAP, op.fn.params, op.fn.body))
        elif isinstance(op, CFilter):
            out.append(
                (FILTER, op.predicate.params, op.predicate.body)
            )
        else:  # pragma: no cover - chains only hold narrow operators
            out.append(("?", (), None))
    return tuple(out)


def exchange_key_reason(key) -> str:
    """Why a shuffle/join/group key UDF cannot run as a column.

    Exchange keys are evaluated through a single-step MAP vector
    kernel, so the eligibility rule is exactly the chain rule applied
    to that one step.
    """
    return vectorizable_reason(((MAP, key.params, key.body),))


def partial_pair_key() -> ScalarFn:
    """The synthetic key the executor shuffles partial aggregates on.

    :meth:`JobExecutor._exec_agg_by` repartitions mapper-side partial
    aggregates — ``(key, aggs)`` pairs — on ``\\_p -> _p[0]``; the
    static exchange decision for :class:`CAggBy` is about *that* key,
    not the user's grouping key (which runs before the exchange).
    """
    from repro.comprehension.exprs import Const, Index, Ref

    return ScalarFn(("_p",), Index(Ref("_p"), Const(0)))


def select_columnar(
    root: Combinator,
    stats: ColumnarStats | None = None,
    trace: "CompileTrace | None" = None,
    site: int | None = None,
    exchange: str = "off",
    chains: bool = True,
) -> Combinator:
    """Annotate every chain in ``root`` with its execution plane.

    With ``exchange != "off"`` the pass additionally decides, per
    exchange operator (:class:`CEqJoin`, :class:`CSemiJoin`,
    :class:`CGroupBy`, :class:`CAggBy`), whether its
    shuffle/build/probe/group phases may run over key *columns*
    (``exchange="columnar"``) or must stay row-at-a-time
    (``exchange="row"`` plus a reason) — the static half of the
    columnar exchange plane; the executor re-checks record layout per
    partition at run time.  Joins and group-bys vectorize their whole
    exchange; semi-joins and fused aggregations vectorize the
    partitioning phase (their probe/merge loops stay row-at-a-time).
    ``chains=False`` leaves chain nodes untouched (the chain plane is
    configured off).
    """
    stats = stats if stats is not None else ColumnarStats()
    consumers = consumer_counts(root)

    # Chains the executor will inline into an aggregation's mapper
    # phase (same condition as ``JobExecutor._exec_agg_by``): they
    # stream row-at-a-time into the accumulators by construction.
    agg_fused: set[int] = set()
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, CAggBy)
            and isinstance(node.input, CChain)
            and not node.input.shared
            and not node.input.cache
            and node.input.partition_hint is None
            and consumers[id(node.input)] == 1
        ):
            agg_fused.add(id(node.input))
        for child in node.inputs():
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)

    memo: dict[int, Combinator] = {}

    def rebuild(node: Combinator) -> Combinator:
        key = id(node)
        if key in memo:
            return memo[key]
        result = _rebuild_one(node, key)
        memo[key] = result
        return result

    def _rebuild_one(node: Combinator, key: int) -> Combinator:
        rebuilt = rebuild_inputs(node, rebuild)
        changes: dict[str, object] = {}
        if exchange != "off" and isinstance(
            node, (CEqJoin, CSemiJoin, CGroupBy, CAggBy)
        ):
            if isinstance(node, (CEqJoin, CSemiJoin)):
                reason = exchange_key_reason(node.kx)
                if not reason:
                    other = exchange_key_reason(node.ky)
                    if other:
                        reason = f"right key: {other}"
                elif exchange_key_reason(node.ky):
                    reason = f"left key: {reason}"
                else:
                    reason = f"left key: {reason}"
            elif isinstance(node, CAggBy):
                reason = exchange_key_reason(partial_pair_key())
            else:
                reason = exchange_key_reason(node.key)
            plane = "row" if reason else "columnar"
            if plane == "columnar":
                stats.columnar_exchanges += 1
            else:
                stats.row_exchanges += 1
            if trace is not None:
                trace.record(
                    "columnar selection",
                    "vectorize-exchange",
                    plane == "columnar",
                    detail=(
                        f"{node.describe()} exchanges batch-at-a-time "
                        f"(key evaluated as a column)"
                        if plane == "columnar"
                        else (
                            f"{node.describe()} exchanges row-at-a-"
                            f"time: {reason}"
                        )
                    ),
                    site=site,
                )
            changes["exchange"] = plane
            changes["exchange_reason"] = reason
        if chains and isinstance(node, CChain):
            if key in agg_fused:
                reason = (
                    "fused into the downstream aggregation's mapper "
                    "phase (streams row-at-a-time into accumulators)"
                )
                columnar = False
            else:
                reason = vectorizable_reason(chain_step_descs(node))
                columnar = reason == ""
            if columnar:
                stats.columnar_chains += 1
            else:
                stats.row_chains += 1
            if trace is not None:
                trace.record(
                    "columnar selection",
                    "vectorize-chain",
                    columnar,
                    detail=(
                        f"{node.describe()} runs batch-at-a-time "
                        f"({len(node.ops)} step(s) vectorized)"
                        if columnar
                        else (
                            f"{node.describe()} stays row-at-a-time: "
                            f"{reason}"
                        )
                    ),
                    site=site,
                )
            changes["columnar"] = columnar
            changes["columnar_reason"] = reason
        if not changes:
            return rebuilt
        return dataclasses.replace(rebuilt, **changes)

    return rebuild(root)
