"""The driver interpreter — executes lifted programs on a backend.

Two execution paths, selected by the engine:

* **Direct** (``LocalEngine``) — interprets the *original, unoptimized*
  driver IR with plain host-language evaluation.  This is the paper's
  "develop, test, debug locally as a pure Scala program" mode and the
  semantic oracle for differential tests.
* **Compiled** — interprets the optimized program from
  :func:`repro.optimizer.pipeline.compile_program`, in which every
  dataflow site is a :class:`~repro.optimizer.pipeline.PlanExpr`.  Bag
  assignments become lazy thunks, folds submit jobs, ``SCache``
  statements materialize bags (with partition pulling applied), and
  stateful bags run as engine-side keyed state.

The driver environment is a flat dict of the function's captured names,
parameters, and locals, plus the reserved ``__engine__``/``__denv__``/
``__dfs__`` entries that let IR nodes reach the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

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
        _run_block(program.body, env)
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
    interpreter = _CompiledInterpreter(
        engine=engine, partition_keys=compiled.partition_keys
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
# Direct interpretation
# ---------------------------------------------------------------------------


def _eval(expr: Expr, env: dict[str, Any]) -> Any:
    return expr.evaluate(Env.of(env))


def _run_block(stmts: tuple[Stmt, ...], env: dict[str, Any]) -> None:
    for stmt in stmts:
        _run_stmt(stmt, env)


def _run_stmt(stmt: Stmt, env: dict[str, Any]) -> None:
    if isinstance(stmt, SAssign):
        env[stmt.name] = _eval(stmt.value, env)
        return
    if isinstance(stmt, SExpr):
        _eval(stmt.value, env)
        return
    if isinstance(stmt, SWhile):
        iterations = 0
        while _eval(stmt.cond, env):
            _run_block(stmt.body, env)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise EmmaError("driver while-loop exceeded iteration cap")
        return
    if isinstance(stmt, SIf):
        if _eval(stmt.cond, env):
            _run_block(stmt.then, env)
        else:
            _run_block(stmt.orelse, env)
        return
    if isinstance(stmt, SFor):
        for item in _eval(stmt.iterable, env):
            env[stmt.var] = item
            _run_block(stmt.body, env)
        return
    if isinstance(stmt, SReturn):
        raise _Return(
            _eval(stmt.value, env) if stmt.value is not None else None
        )
    if isinstance(stmt, SCache):
        # Caching is a physical no-op in direct mode.
        return
    raise EmmaError(f"cannot interpret {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Compiled interpretation
# ---------------------------------------------------------------------------


class _CompiledInterpreter:
    def __init__(
        self,
        engine: Engine,
        partition_keys: dict[str, ScalarFn],
    ) -> None:
        self.engine = engine
        self.partition_keys = partition_keys

    def run_block(
        self, stmts: tuple[Stmt, ...], env: dict[str, Any]
    ) -> None:
        for stmt in stmts:
            self.run_stmt(stmt, env)

    def run_stmt(self, stmt: Stmt, env: dict[str, Any]) -> None:
        if isinstance(stmt, SAssign):
            env[stmt.name] = self._evaluate(stmt.value, env)
            return
        if isinstance(stmt, SExpr):
            self._evaluate(stmt.value, env)
            return
        if isinstance(stmt, SCache):
            if stmt.name not in env:
                raise EmmaError(
                    f"cache statement for unbound name {stmt.name!r}"
                )
            env[stmt.name] = self.engine.cache(
                env[stmt.name],
                partition_key=self.partition_keys.get(stmt.name),
            )
            return
        if isinstance(stmt, SWhile):
            iterations = 0
            while _eval(stmt.cond, env):
                self.run_block(stmt.body, env)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise EmmaError(
                        "driver while-loop exceeded iteration cap"
                    )
            return
        if isinstance(stmt, SIf):
            if _eval(stmt.cond, env):
                self.run_block(stmt.then, env)
            else:
                self.run_block(stmt.orelse, env)
            return
        if isinstance(stmt, SFor):
            for item in _eval(stmt.iterable, env):
                env[stmt.var] = item
                self.run_block(stmt.body, env)
            return
        if isinstance(stmt, SReturn):
            raise _Return(
                _eval(stmt.value, env)
                if stmt.value is not None
                else None
            )
        raise EmmaError(f"cannot interpret {type(stmt).__name__}")

    def _evaluate(self, expr: Expr, env: dict[str, Any]) -> Any:
        """Evaluate; stateful operators run on engine-side keyed state."""
        if isinstance(expr, StatefulCreate):
            return self._create_stateful(expr, env)
        if isinstance(expr, StatefulUpdate):
            return _eval(expr.state, env).update(_udf(expr.update_fn, env))
        if isinstance(expr, StatefulUpdateWithMessages):
            return _eval(expr.state, env).update_with_messages(
                _eval(expr.messages, env), _udf(expr.update_fn, env)
            )
        return _eval(expr, env)

    def _create_stateful(
        self, node: StatefulCreate, env: dict[str, Any]
    ) -> DistributedStatefulBag:
        source = _eval(node.source, env)
        if isinstance(source, (DeferredBag, BagHandle)):
            records = self.engine.collect(source)
        elif isinstance(source, DataBag):
            records = source.fetch()
        elif isinstance(source, list):
            records = source
        else:
            raise EmmaError(
                "stateful() expects a bag, got "
                f"{type(source).__name__}"
            )
        key = _udf(node.key, env) if node.key is not None else None
        return DistributedStatefulBag(self.engine, records, key=key)


def _udf(fn: Expr, env: dict[str, Any]) -> Any:
    """A stateful method's function argument, compiled like any UDF: a
    lambda becomes a :class:`Udf` over the env values of its free names
    (what its closure would see; nothing is broadcast).  Any other
    argument evaluates to the callable it names."""
    if not isinstance(fn, Lambda):
        return _eval(fn, env)
    free = sorted(fn.body.free_vars() - frozenset(fn.params))
    return Udf(fn.params, fn.body, {n: env[n] for n in free if n in env})
