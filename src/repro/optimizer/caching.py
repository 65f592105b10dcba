"""The caching heuristic (paper Section 4.4, "Caching").

"As an aggressive heuristic strategy, at the moment we force the
evaluation and caching of dataflow results that are referenced more
than once (e.g. inside a loop or within multiple branches) in the
compiled algorithm."

Engines are lazy: an uncached bag consumed by several jobs — or by one
job per loop iteration — is *recomputed from its lineage every time*.
This pass finds loop-invariant bag definitions (and DataBag-typed
parameters) that are either consumed inside a loop or referenced more
than once, and marks them for materialization by inserting an
:class:`~repro.frontend.driver_ir.SCache` statement right after the
definition (or at the top of the program, for parameters).

Definitions *inside* loops are not cached: re-materializing a fresh
result every iteration rarely pays for itself, and the paper's k-means
discussion ("k-means merely caches the set of points") matches this
behaviour.

Whether caching actually helps is engine-specific — the Spark-like
engine pins partitions in memory, while the Flink-like engine spills to
the DFS and may gain nothing (Section 5.2) — but the *decision* here is
engine-agnostic, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comprehension.exprs import use_counts
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SCache,
    Stmt,
    stmt_exprs,
)


@dataclass(frozen=True)
class CacheDecision:
    """One name chosen for materialization, with the why."""

    name: str
    reason: str  # "loop" | "multi-use"


@dataclass
class CachingStats:
    """The names :func:`plan_caching` chose, as provenance."""

    chosen: list[CacheDecision]

    @property
    def fired(self) -> bool:
        return bool(self.chosen)

    def summary(self) -> str | None:
        """The idle line; a fired pass is told by its decisions."""
        return None if self.fired else "no loop-invariant multi-use bags"

    @property
    def decisions(self) -> list[str]:
        return [f"{d.name}: {d.reason}" for d in self.chosen]


def plan_caching(program: DriverProgram) -> list[CacheDecision]:
    """Choose the names to cache (see module docstring)."""
    # Uses per name, split by whether they occur inside a loop, plus
    # assignment counts (a name reassigned anywhere is not a
    # loop-invariant value — caching its first binding buys nothing).
    loop_uses: dict[str, int] = {}
    flat_uses: dict[str, int] = {}
    assign_counts: dict[str, int] = {}

    def scan(stmts: tuple[Stmt, ...], depth: int) -> None:
        for stmt in stmts:
            bucket = loop_uses if depth > 0 else flat_uses
            for expr in stmt_exprs(stmt):
                for name, n in use_counts(expr).items():
                    bucket[name] = bucket.get(name, 0) + n
            if isinstance(stmt, SAssign):
                assign_counts[stmt.name] = (
                    assign_counts.get(stmt.name, 0) + 1
                )
            scan(stmt.children(), depth + stmt.loop)

    scan(program.body, 0)

    decisions: list[CacheDecision] = []

    def decide(name: str) -> CacheDecision | None:
        if assign_counts.get(name, 0) > 1:
            return None
        in_loop = loop_uses.get(name, 0)
        total = in_loop + flat_uses.get(name, 0)
        if in_loop >= 1:
            return CacheDecision(name, "loop")
        if total >= 2:
            return CacheDecision(name, "multi-use")
        return None

    # DataBag-typed parameters.
    for param in program.params:
        if param in program.bag_params:
            decision = decide(param)
            if decision is not None:
                decisions.append(decision)

    # Loop-invariant bag definitions (top-level statements only).
    for stmt in program.body:
        if (
            isinstance(stmt, SAssign)
            and stmt.bag_typed
            and not stmt.stateful
        ):
            decision = decide(stmt.name)
            if decision is not None:
                decisions.append(decision)
    return decisions


def insert_cache_statements(
    program: DriverProgram, decisions: list[CacheDecision]
) -> DriverProgram:
    """Insert ``SCache`` right after each decided definition."""
    names = {d.name for d in decisions}
    new_body: list[Stmt] = []
    # Parameters are cached before the first statement.
    for param in program.params:
        if param in names:
            new_body.append(SCache(name=param))
            names.discard(param)
    for stmt in program.body:
        new_body.append(stmt)
        if (
            isinstance(stmt, SAssign)
            and stmt.name in names
            and stmt.bag_typed
        ):
            new_body.append(SCache(name=stmt.name, line=stmt.line))
            names.discard(stmt.name)
    return program.with_body(tuple(new_body))
