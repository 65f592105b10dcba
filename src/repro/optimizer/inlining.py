"""Inlining of single-use bag definitions (paper Section 4.1).

"As a preprocessing step, we also inline all value definitions whose
right-hand side is comprehended and referenced only once.  This results
in bigger comprehensions and increases the chances of discovering and
applying comprehension level rewrites."

The pass is conservative about effects and evaluation counts:

* only bag-typed, non-stateful assignments are inlined;
* the definition must be used exactly once in the *whole program*;
* the single use must be in a later statement of the same block — a use
  inside a nested loop body or a loop condition would change how many
  times the dataflow is (re)evaluated relative to its definition;
* no name free in the right-hand side (nor the defined name itself) may
  be reassigned between the definition and the use.

One definition is inlined per round, and rounds repeat to a fixpoint,
so chains collapse (``clusters`` inlines into ``new_ctrds``, which
inlines into its consumer, and so on).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.comprehension.exprs import Expr, use_counts
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    Stmt,
    assigned_names,
    repeats_exprs,
    stmt_exprs,
)

_MAX_ROUNDS = 64


class _Uses:
    """Free uses per name, read from :func:`use_counts` memoized by
    expression identity for one :func:`inline_single_use` call.

    The IR is frozen, and a round keeps the expression objects of every
    statement it does not rewrite, so each round walks only the
    expression it spliced.  ``program`` holds the current round's
    whole-program totals.
    """

    def __init__(self) -> None:
        # The expression is kept alive with its counts: its id stays
        # unique for the memo's lifetime.
        self._memo: dict[int, tuple[Expr, dict[str, int]]] = {}
        self.program: Counter[str] = Counter()

    def of(self, expr: Expr) -> dict[str, int]:
        entry = self._memo.get(id(expr))
        if entry is None:
            entry = self._memo[id(expr)] = (expr, use_counts(expr))
        return entry[1]

    def direct(self, stmt: Stmt, name: str) -> int:
        """Uses in the statement's own expressions."""
        return sum(self.of(e).get(name, 0) for e in stmt_exprs(stmt))

    def tree(self, stmt: Stmt, name: str) -> int:
        """Uses in a statement and all its nested blocks."""
        return self.direct(stmt, name) + sum(
            self.tree(child, name) for child in stmt.children()
        )

    def count_program(self, program: DriverProgram) -> None:
        self.program = Counter()
        for stmt in program.walk():
            for expr in stmt_exprs(stmt):
                self.program.update(self.of(expr))


@dataclass
class InlineStats:
    """How many definitions :func:`inline_single_use` spliced."""

    inlined: int = 0

    @property
    def fired(self) -> bool:
        return self.inlined > 0

    def summary(self) -> str:
        """One-line provenance description of the inlining."""
        if not self.fired:
            return "no single-use bag definitions"
        return (
            f"{self.inlined} single-use definition(s) spliced into "
            "their consumers"
        )


def inline_single_use(
    program: DriverProgram,
) -> tuple[DriverProgram, int]:
    """Inline single-use bag definitions; returns (program, count)."""
    uses = _Uses()
    total = 0
    for _ in range(_MAX_ROUNDS):
        rewritten = _inline_one(program, uses)
        if rewritten is None:
            break
        program = rewritten
        total += 1
    return program, total


def _inline_one(
    program: DriverProgram, uses: _Uses
) -> DriverProgram | None:
    """Perform at most one inlining step; None when nothing applies."""
    uses.count_program(program)
    new_body = _inline_in_block(program.body, uses)
    if new_body is None:
        return None
    return program.with_body(new_body)


def _inline_in_block(
    block: tuple[Stmt, ...], uses: _Uses
) -> tuple[Stmt, ...] | None:
    stmts = list(block)
    for i, stmt in enumerate(stmts):
        # Try nested blocks first (innermost definitions collapse first),
        # in order, until one of them takes a step.
        stepped = False

        def step(inner: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
            nonlocal stepped
            rewritten = None if stepped else _inline_in_block(inner, uses)
            if rewritten is None:
                return inner
            stepped = True
            return rewritten

        stmts[i] = stmt.rebuild(blocks=step)
        if stepped:
            return tuple(stmts)
        target = _find_use_site(stmt, stmts, i, uses)
        if target is not None:
            j, rewritten = target
            stmts[j] = rewritten
            del stmts[i]
            return tuple(stmts)
    return None


def _find_use_site(
    stmt: Stmt,
    stmts: list[Stmt],
    i: int,
    uses: _Uses,
) -> tuple[int, Stmt] | None:
    """If ``stmts[i]`` can inline into a later sibling, return the
    sibling index and its rewritten form."""
    if not isinstance(stmt, SAssign) or not stmt.bag_typed:
        return None
    if stmt.stateful:
        return None
    name = stmt.name
    # Exactly one use across the whole (current) program, excluding the
    # definition itself.
    if uses.program[name] - uses.direct(stmt, name) != 1:
        return None
    rhs_deps = uses.of(stmt.value).keys() | {name}
    for j in range(i + 1, len(stmts)):
        later = stmts[j]
        direct_uses = uses.direct(later, name)
        if uses.tree(later, name) - direct_uses:
            return None  # the single use hides inside a nested block
        if direct_uses == 1:
            if repeats_exprs(later):
                return None  # loop conditions re-evaluate per iteration
            mapping = {name: stmt.value}
            return j, later.rebuild(exprs=lambda e: e.substitute(mapping))
        # No use here: a reassignment of a dependency blocks inlining.
        if assigned_names(later) & rhs_deps:
            return None
    return None

