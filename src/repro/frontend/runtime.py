"""The driver interpreter — executes lifted programs on a backend.

One statement interpreter runs both execution paths, selected by the
engine; they differ in two hooks only, how an expression evaluates and
what an ``SCache`` statement does:

* **Direct** (``LocalEngine``) — interprets the *original, unoptimized*
  driver IR with plain host-language evaluation (``Expr.evaluate``);
  ``SCache`` is a no-op.  This is the paper's "develop, test, debug
  locally as a pure Scala program" mode and the semantic oracle for
  differential tests.
* **Compiled** — interprets the optimized program from
  :func:`repro.optimizer.pipeline.compile_program`, in which every
  dataflow site is a :class:`~repro.optimizer.pipeline.PlanExpr`.  Bag
  assignments become lazy thunks and folds submit jobs; the hooks run
  stateful operators as engine-side keyed state and let ``SCache``
  statements materialize bags (with partition pulling applied).

The driver environment is a flat dict of the function's captured names,
parameters, and locals, plus the reserved ``__engine__``/``__denv__``/
``__dfs__`` entries that let IR nodes reach the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.comprehension.exprs import (
    Env,
    Expr,
    Lambda,
    StatefulCreate,
    StatefulUpdate,
    StatefulUpdateWithMessages,
)
from repro.core.databag import DataBag
from repro.engines.base import BagHandle, DeferredBag, Engine
from repro.engines.chainkernel import Udf
from repro.engines.stateful import DistributedStatefulBag
from repro.errors import EmmaError
from repro.frontend.driver_ir import (
    DriverProgram,
    SAssign,
    SCache,
    SExpr,
    SFor,
    SIf,
    SReturn,
    SWhile,
    Stmt,
)
from repro.lowering.combinators import ScalarFn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.optimizer.pipeline import CompiledProgram


class _Return(Exception):
    """Internal control flow for SReturn."""

    def __init__(self, value: Any) -> None:
        self.value = value


_MAX_LOOP_ITERATIONS = 1_000_000


def run_direct(
    program: DriverProgram,
    engine: Engine,
    captured: Mapping[str, Any],
    params: Mapping[str, Any],
) -> Any:
    """Interpret the unoptimized program with host-language semantics."""
    env: dict[str, Any] = {
        **captured,
        **params,
        "__dfs__": engine.dfs,
    }
    try:
        _Interpreter().run_block(program.body, env)
    except _Return as ret:
        return ret.value
    return None


def run_compiled(
    compiled: "CompiledProgram",
    engine: Engine,
    captured: Mapping[str, Any],
    params: Mapping[str, Any],
) -> Any:
    """Interpret the compiled program against a parallel engine."""
    begin_run = getattr(engine, "begin_run", None)
    if begin_run is not None:
        begin_run()
    env: dict[str, Any] = {**captured, **params}
    env["__engine__"] = engine
    env["__denv__"] = env
    env["__dfs__"] = engine.dfs
    interpreter = _Interpreter(
        evaluate=partial(_evaluate_on_engine, engine),
        cache=partial(_cache_on_engine, engine, compiled.partition_keys),
    )
    try:
        interpreter.run_block(compiled.program.body, env)
    except _Return as ret:
        value = ret.value
        if isinstance(value, (DeferredBag, BagHandle)):
            return DataBag(engine.collect(value))
        return value
    return None


# ---------------------------------------------------------------------------
# The statement interpreter
# ---------------------------------------------------------------------------


def _eval(expr: Expr, env: dict[str, Any]) -> Any:
    return expr.evaluate(Env.of(env))


def _no_cache(stmt: SCache, env: dict[str, Any]) -> None:
    """Caching is a physical no-op in direct mode."""


@dataclass(frozen=True)
class _Interpreter:
    """Runs driver statements; the defaults are the direct run's hooks."""

    #: how an expression evaluates
    evaluate: Callable[[Expr, dict[str, Any]], Any] = _eval
    #: what an ``SCache`` statement does
    cache: Callable[[SCache, dict[str, Any]], None] = _no_cache

    def run_block(
        self, stmts: tuple[Stmt, ...], env: dict[str, Any]
    ) -> None:
        for stmt in stmts:
            self.run_stmt(stmt, env)

    def run_stmt(self, stmt: Stmt, env: dict[str, Any]) -> None:
        if isinstance(stmt, SAssign):
            env[stmt.name] = self.evaluate(stmt.value, env)
        elif isinstance(stmt, SExpr):
            self.evaluate(stmt.value, env)
        elif isinstance(stmt, SCache):
            self.cache(stmt, env)
        elif isinstance(stmt, SWhile):
            iterations = 0
            while self.evaluate(stmt.cond, env):
                self.run_block(stmt.body, env)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise EmmaError(
                        "driver while-loop exceeded iteration cap"
                    )
        elif isinstance(stmt, SIf):
            if self.evaluate(stmt.cond, env):
                self.run_block(stmt.then, env)
            else:
                self.run_block(stmt.orelse, env)
        elif isinstance(stmt, SFor):
            for item in self.evaluate(stmt.iterable, env):
                env[stmt.var] = item
                self.run_block(stmt.body, env)
        elif isinstance(stmt, SReturn):
            raise _Return(
                self.evaluate(stmt.value, env)
                if stmt.value is not None
                else None
            )
        else:
            raise EmmaError(f"cannot interpret {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# The compiled run's hooks
# ---------------------------------------------------------------------------


def _cache_on_engine(
    engine: Engine,
    partition_keys: Mapping[str, ScalarFn],
    stmt: SCache,
    env: dict[str, Any],
) -> None:
    if stmt.name not in env:
        raise EmmaError(f"cache statement for unbound name {stmt.name!r}")
    env[stmt.name] = engine.cache(
        env[stmt.name], partition_key=partition_keys.get(stmt.name)
    )


def _evaluate_on_engine(
    engine: Engine, expr: Expr, env: dict[str, Any]
) -> Any:
    """Evaluate; stateful operators run on engine-side keyed state."""
    if isinstance(expr, StatefulCreate):
        return _create_stateful(engine, expr, env)
    if isinstance(expr, StatefulUpdate):
        return _eval(expr.state, env).update(_udf(expr.update_fn, env))
    if isinstance(expr, StatefulUpdateWithMessages):
        return _eval(expr.state, env).update_with_messages(
            _eval(expr.messages, env), _udf(expr.update_fn, env)
        )
    return _eval(expr, env)


def _create_stateful(
    engine: Engine, node: StatefulCreate, env: dict[str, Any]
) -> DistributedStatefulBag:
    source = _eval(node.source, env)
    if isinstance(source, (DeferredBag, BagHandle)):
        records = engine.collect(source)
    elif isinstance(source, DataBag):
        records = source.fetch()
    elif isinstance(source, list):
        records = source
    else:
        raise EmmaError(
            f"stateful() expects a bag, got {type(source).__name__}"
        )
    key = _udf(node.key, env) if node.key is not None else None
    return DistributedStatefulBag(engine, records, key=key)


def _udf(fn: Expr, env: dict[str, Any]) -> Any:
    """A stateful method's function argument, compiled like any UDF: a
    lambda becomes a :class:`Udf` over the env values of its free names
    (what its closure would see; nothing is broadcast).  Any other
    argument evaluates to the callable it names."""
    if not isinstance(fn, Lambda):
        return _eval(fn, env)
    free = sorted(fn.body.free_vars() - frozenset(fn.params))
    return Udf(fn.params, fn.body, {n: env[n] for n in free if n in env})
