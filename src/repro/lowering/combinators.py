"""Combinator nodes — the abstract parallel dataflow (paper §4.3.1).

Each combinator corresponds to a higher-order function supported by the
target engines (``map``, ``flatMap``, ``filter``, ``join``, ``cross``,
``groupBy``/``reduceByKey``-style ``aggBy``, ``union``, ...), so
generating a concrete dataflow is node-by-node substitution.  The nodes
here are *logical with physical annotations*: the optimizer may set
``cache`` (materialize and reuse the result across dataflow submissions)
and ``partition_hint`` (enforce a hash partitioning on a key, so later
joins/groupings reuse it) on any node.

UDFs are carried as :class:`ScalarFn` — a parameter list plus a lifted
IR body.  At submission time the engine closes the body over the driver
environment; free variables that resolve to bags become broadcast
variables (the paper's transparent "driver to UDFs" data motion,
Figure 3b), and so do the UDF's ``hoisted`` subplans, which the
compiler's ``hoist-closed-bags`` pass cut out of its body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Mapping

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    Const,
    Env,
    Expr,
    Index,
    Lambda,
    Ref,
    compile_scalar,
    fallback_reason,
    field_names,
    walk,
)
from repro.comprehension.ir import Comprehension
from repro.comprehension.pretty import pretty

_node_ids = itertools.count()
#: per class: its fields declared ``Combinator``, then ``ScalarFn``
_FIELD_KINDS: dict[type, tuple[tuple[str, ...], ...]] = {}


def _field_kinds(cls: type) -> tuple[tuple[str, ...], ...]:
    if cls not in _FIELD_KINDS:
        _FIELD_KINDS[cls] = tuple(
            tuple(f.name for f in fields(cls) if f.type == kind)
            for kind in ("Combinator", "ScalarFn")
        )
    return _FIELD_KINDS[cls]


@dataclass(frozen=True)
class ScalarFn:
    """A UDF: parameters plus a lifted IR body.

    ``compile(env)`` closes the body over ``env`` and returns a plain
    Python callable.  ``free_names()`` lists the body's unbound names —
    the candidates for broadcast injection and closure capture.
    ``hoisted`` pairs each name the body reads with the dataflow plan
    that computes its value; the engine runs each plan once per job and
    broadcasts the result.
    """

    params: tuple[str, ...]
    body: Expr
    hoisted: tuple[tuple[str, "Combinator"], ...] = ()

    def free_names(self) -> frozenset[str]:
        """Unbound names of the body — broadcast/closure candidates."""
        bound = {*self.params, *(name for name, _ in self.hoisted)}
        return self.body.free_vars() - bound

    def compile(self, env: Env | Mapping[str, Any]) -> Callable:
        """Close the body over ``env``; returns a plain callable."""
        return self.compile_native(env)[0]

    def compile_native(
        self, env: Env | Mapping[str, Any]
    ) -> tuple[Callable, bool]:
        """Close over ``env``, preferring a natively compiled closure.

        Returns ``(callable, native)``: ``native`` is True when the
        body compiled to a plain Python function via ``compile()`` (the
        hot path no longer walks the expression AST) and False when it
        fell back to the tree-walking interpreter (exotic nodes, or a
        free name only resolvable at call time).  Both forms have
        identical semantics.
        """
        env = Env.of(env)
        fn = compile_scalar(self.params, self.body, env)
        if fn is not None:
            return fn, True
        return Lambda(self.params, self.body).evaluate(env), False

    def hoist_closed_bags(self) -> tuple["ScalarFn", dict[str, Expr]]:
        """Move each maximal closed bag-typed subexpression out of the body.

        Returns the UDF with every such subexpression replaced by a
        fresh ``__hoisted_N`` name, and what each name stands for.
        *Closed* means: no dependence on a name bound anywhere inside
        the body.  A body without a bag-typed node is returned as is
        after one walk.
        """
        if not any(node.is_bag_typed() for node in walk(self.body)):
            return self, {}
        locally_bound = set(self.params)
        for node in walk(self.body):
            if isinstance(node, Lambda):
                locally_bound.update(node.params)
            if isinstance(node, Comprehension):
                locally_bound.update(g.var for g in node.generators())
        hoisted: dict[str, Expr] = {}

        def visit(node: Expr) -> Expr:
            if (
                node.is_bag_typed()
                and node.free_vars().isdisjoint(locally_bound)
            ):
                name = f"__hoisted_{len(hoisted)}"
                hoisted[name] = node
                return Ref(name)
            return node.rebuild(visit)

        body = visit(self.body)
        return (ScalarFn(self.params, body) if hoisted else self), hoisted

    @staticmethod
    def identity(var: str = "x") -> "ScalarFn":
        return ScalarFn((var,), Ref(var))

    def canonical(self) -> "ScalarFn":
        """Alpha-normalized form: parameters renamed positionally.

        Two UDFs that differ only in parameter names canonicalize to
        equal values — partitioner matching uses this so that e.g. a
        grouping key ``\\g -> g.key`` recognizes a partitioning recorded
        as ``\\_g -> _g.key``.
        """
        mapping = {
            p: Ref(f"_arg{i}") for i, p in enumerate(self.params)
        }
        return replace(
            self,
            params=tuple(f"_arg{i}" for i in range(len(self.params))),
            body=self.body.substitute(mapping),
        )

    def alpha_equal(self, other: "ScalarFn") -> bool:
        """Whether the two UDFs differ at most in parameter names —
        the one key equality of the planner's predicted partitionings
        and of the executor's run-time partitioners."""
        return self == other or self.canonical() == other.canonical()

    def over_pair(self, pos: int) -> "ScalarFn | None":
        """This key lifted over element ``pos`` of a join's output
        pair: the partitioning a join output keeps from the input at
        ``pos``.  None unless the key takes one parameter."""
        if len(self.params) != 1:
            return None
        body = self.body.substitute(
            {self.params[0]: Index(Ref("_j"), Const(pos))}
        )
        return ScalarFn(("_j",), body)

    def is_identity(self) -> bool:
        """Whether the UDF is ``x -> x`` (elidable as a map)."""
        return (
            len(self.params) == 1
            and isinstance(self.body, Ref)
            and self.body.name == self.params[0]
        )

    def describe(self) -> str:
        """A one-line lambda rendering for plan explanations."""
        return f"\\{', '.join(self.params)} -> {pretty(self.body)}"


#: the partitioning key of a grouping's output: its ``Grp`` /
#: ``AggResult`` records are hash-partitioned on ``.key``
GROUP_KEY = ScalarFn(("_g",), Attr(Ref("_g"), "key"))


@dataclass(frozen=True)
class PhysProps:
    """Physical-planning annotations on a combinator node.

    Set by :mod:`repro.optimizer.physical_props` (the interesting-
    properties pass).  On a node feeding a shuffle, ``motion`` records
    how the required repartitioning is expected to be satisfied:

    * ``"elidable"`` — the node already delivers the required hash
      partitioning, so the shuffle is a no-op;
    * ``"hoistable"`` — the node is loop-invariant (all leaves are
      cached bags, no UDF reads a loop-mutated name), so its shuffled
      result can be computed once and reused every iteration;
    * ``"required"`` — the data genuinely has to move.

    On a join node, ``strategy`` records the plan-time preference
    (``"repartition"`` when a side's motion is free, ``"cost"`` to defer
    to the runtime size comparison).  ``delivered`` is the partitioning
    key the node's *output* carries, when one is statically known.
    ``invariant_refs`` names the cached bags a hoistable subtree reads —
    the hoist-cache key includes their identities so a re-cached input
    invalidates the hoisted result.
    """

    delivered: ScalarFn | None = None
    motion: str | None = None
    strategy: str | None = None
    invariant_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Combinator:
    """Base class for dataflow combinator nodes.

    ``cache``, ``partition_hint``, and ``phys`` are physical annotations
    set by the optimizer; ``node_id`` identifies the node across
    rewrites (used by engines for cache keys).
    """

    node_id: int = field(
        default_factory=lambda: next(_node_ids), compare=False
    )
    cache: bool = field(default=False, compare=False)
    partition_hint: ScalarFn | None = field(default=None, compare=False)
    phys: PhysProps | None = field(default=None, compare=False)
    #: set by the UDF-aware reordering pass on operators it moved, e.g.
    #: ``"pushed-below-join: reads {commit_date, receipt_date}"``;
    #: rendered inline by :func:`explain`
    reorder_note: str = field(default="", compare=False)

    def inputs(self) -> tuple["Combinator", ...]:
        """The upstream dataflow nodes this combinator consumes: its
        fields declared ``Combinator``, in order."""
        return tuple(map(self.__getattribute__, _field_kinds(type(self))[0]))

    def udfs(self) -> tuple[ScalarFn, ...]:
        """The UDFs evaluated by this node (for broadcast analysis): its
        fields declared ``ScalarFn`` (``partition_hint`` is optional)."""
        return tuple(map(self.__getattribute__, _field_kinds(type(self))[1]))

    def with_cache(self) -> "Combinator":
        """A copy annotated for materialization (same node id)."""
        return replace(self, cache=True)

    def with_partition_hint(self, key: ScalarFn) -> "Combinator":
        """A copy annotated with an enforced hash partitioning."""
        return replace(self, partition_hint=key)

    def with_phys(self, props: PhysProps) -> "Combinator":
        """A copy annotated with physical-planning properties."""
        return replace(self, phys=props)

    def label(self) -> str:
        """The operator's display name (class name sans ``C``)."""
        return type(self).__name__.removeprefix("C")

    def describe(self) -> str:
        """One-line node rendering for :func:`explain`."""
        return self.label()


# -- leaves -----------------------------------------------------------------


@dataclass(frozen=True)
class CSource(Combinator):
    """Read a bag from the (distributed) filesystem."""

    path: Expr = None  # type: ignore[assignment]
    fmt: Expr = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"Source({pretty(self.path)})"


@dataclass(frozen=True)
class CBagRef(Combinator):
    """Reference a driver-held bag value by name.

    At submission the engine resolves the name in the driver
    environment: a cached/distributed bag plugs in directly; a local
    DataBag is parallelized (the "driver to dataflow" edge).
    """

    name: str = ""

    def describe(self) -> str:
        return f"BagRef({self.name})"


@dataclass(frozen=True)
class CParallelize(Combinator):
    """Lift a driver-side sequence expression into a distributed bag."""

    seq: Expr = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"Parallelize({pretty(self.seq)})"


# -- element-wise -------------------------------------------------------------


@dataclass(frozen=True)
class CMap(Combinator):
    """``map f xs``."""

    fn: ScalarFn = None  # type: ignore[assignment]
    input: Combinator = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"Map({self.fn.describe()})"


@dataclass(frozen=True)
class CFlatMap(Combinator):
    """``flatMap f xs`` — f yields a collection per element."""

    fn: ScalarFn = None  # type: ignore[assignment]
    input: Combinator = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"FlatMap({self.fn.describe()})"


@dataclass(frozen=True)
class CFilter(Combinator):
    """``filter p xs``."""

    predicate: ScalarFn = None  # type: ignore[assignment]
    input: Combinator = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"Filter({self.predicate.describe()})"


@dataclass(frozen=True)
class CChain(Combinator):
    """A fused run of record-wise operators (a physical operator chain).

    ``ops`` holds the original narrow combinators (:class:`CMap`,
    :class:`CFlatMap`, :class:`CFilter`) in dataflow order —
    ``ops[0]`` consumes ``input``.  The executor streams each partition
    through one compiled per-partition kernel, paying a single task-
    overhead charge and a single materialization for the whole chain
    (Flink's pipelined operator chains; Spark's fused narrow stages).

    ``shared`` marks a chain whose *result* has several consumers: it
    still fuses internally, but is never inlined into a downstream
    aggregation, so per-job DAG memoization can reuse its one
    materialized result.
    """

    ops: tuple[Combinator, ...] = ()
    input: Combinator = None  # type: ignore[assignment]
    shared: bool = field(default=False, compare=False)
    #: optimizer-selected execution plane: ``True`` runs the chain
    #: through a vectorized batch kernel over ColumnBatch partitions
    columnar: bool = field(default=False, compare=False)
    #: why the chain stays (or may fall back to) row-at-a-time; set by
    #: the columnar-selection pass, rendered in ``describe()``/trace
    columnar_reason: str = field(default="", compare=False)

    def udfs(self) -> tuple[ScalarFn, ...]:
        out: list[ScalarFn] = []
        for op in self.ops:
            out.extend(op.udfs())
        return tuple(out)

    def preserves_partitioning(self) -> bool:
        """Only an all-filter chain keeps its input's partitioning."""
        return all(isinstance(op, CFilter) for op in self.ops)

    def describe(self) -> str:
        inner = " -> ".join(op.describe() for op in self.ops)
        if self.columnar:
            return f"Chain[{inner} | columnar]"
        if self.columnar_reason:
            return f"Chain[{inner} | row]"
        return f"Chain[{inner}]"


# -- binary ---------------------------------------------------------------


@dataclass(frozen=True)
class CEqJoin(Combinator):
    """Equi-join: pairs ``(x, y)`` with ``kx(x) == ky(y)``."""

    kx: ScalarFn = None  # type: ignore[assignment]
    ky: ScalarFn = None  # type: ignore[assignment]
    left: Combinator = None  # type: ignore[assignment]
    right: Combinator = None  # type: ignore[assignment]
    #: exchange-plane selection ("columnar" / "row" / "" when the pass
    #: did not run), decided at compile time by
    #: :func:`repro.optimizer.columnar_select.select_columnar`
    exchange: str = field(default="", compare=False)
    exchange_reason: str = field(default="", compare=False)

    def describe(self) -> str:
        return f"EqJoin({self.kx.describe()} == {self.ky.describe()})"


@dataclass(frozen=True)
class CSemiJoin(Combinator):
    """Left semi-join (``anti=False``) or anti-join (``anti=True``).

    Emits each left element at most once — the realization of an
    ``EXISTS``/``NOT_EXISTS`` generator, preserving bag multiplicities
    of the left side.
    """

    kx: ScalarFn = None  # type: ignore[assignment]
    ky: ScalarFn = None  # type: ignore[assignment]
    left: Combinator = None  # type: ignore[assignment]
    right: Combinator = None  # type: ignore[assignment]
    anti: bool = False
    #: exchange-plane selection ("columnar" / "row" / "" when the pass
    #: did not run), decided at compile time by
    #: :func:`repro.optimizer.columnar_select.select_columnar`
    exchange: str = field(default="", compare=False)
    exchange_reason: str = field(default="", compare=False)

    def describe(self) -> str:
        kind = "AntiJoin" if self.anti else "SemiJoin"
        return f"{kind}({self.kx.describe()} == {self.ky.describe()})"


@dataclass(frozen=True)
class CCross(Combinator):
    """Cartesian product: all pairs ``(x, y)``."""

    left: Combinator = None  # type: ignore[assignment]
    right: Combinator = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CUnion(Combinator):
    """Bag union (``plus``)."""

    left: Combinator = None  # type: ignore[assignment]
    right: Combinator = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CMinus(Combinator):
    """Bag difference (``minus``)."""

    left: Combinator = None  # type: ignore[assignment]
    right: Combinator = None  # type: ignore[assignment]



# -- grouping / aggregation ---------------------------------------------------


@dataclass(frozen=True)
class CGroupBy(Combinator):
    """``groupBy k xs`` — materializes ``Grp(key, values)`` groups.

    Requires a full shuffle *and* per-key materialization of group
    values; fold-group fusion exists to replace this node with
    :class:`CAggBy` whenever the group values are only folded.
    """

    key: ScalarFn = None  # type: ignore[assignment]
    input: Combinator = None  # type: ignore[assignment]
    #: exchange-plane selection ("columnar" / "row" / "" when the pass
    #: did not run), decided at compile time by
    #: :func:`repro.optimizer.columnar_select.select_columnar`
    exchange: str = field(default="", compare=False)
    exchange_reason: str = field(default="", compare=False)

    def describe(self) -> str:
        return f"GroupBy({self.key.describe()})"


@dataclass(frozen=True)
class CAggBy(Combinator):
    """``aggBy k (e1 x ... x en, s1 x ... x sn, u1 x ... x un) xs``.

    The fused form produced by fold-group fusion: emits one
    ``(key, a1, ..., an)`` record per key, pre-aggregating on the mapper
    side before the shuffle (the ``reduceByKey``/``combine`` pattern).
    """

    key: ScalarFn = None  # type: ignore[assignment]
    specs: tuple[AlgebraSpec, ...] = ()
    input: Combinator = None  # type: ignore[assignment]
    #: exchange-plane selection for the partial-aggregate shuffle
    #: ("columnar" / "row" / "" when the pass did not run).  The
    #: shuffled records are always ``(key, aggs)`` pairs keyed by
    #: ``_p[0]``, so the static key check is on that synthetic key,
    #: not on ``key`` (which runs mapper-side, before the exchange).
    exchange: str = field(default="", compare=False)
    exchange_reason: str = field(default="", compare=False)

    def describe(self) -> str:
        names = ", ".join(s.alias for s in self.specs)
        return f"AggBy({self.key.describe()}; {names})"


@dataclass(frozen=True)
class CDistinct(Combinator):
    """Duplicate elimination."""

    input: Combinator = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CFold(Combinator):
    """A global fold — the dataflow's result is a scalar on the driver."""

    spec: AlgebraSpec = None  # type: ignore[assignment]
    input: Combinator = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"Fold({self.spec.alias})"


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def rebuild_inputs(
    node: Combinator,
    fn: Callable[[Combinator], Combinator] | None,
    udf: Callable[[ScalarFn], ScalarFn] | None = None,
) -> Combinator:
    """``node`` with ``fn`` applied to each input and ``udf`` to each
    UDF (``node`` itself when nothing changed; ``None`` maps nothing).
    ``replace`` keeps the node id and the physical annotations."""
    changes: dict[str, Any] = {}
    for names, f in zip(_field_kinds(type(node)), (fn, udf)):
        for name in names if f else ():
            old = getattr(node, name)
            new = None if old is None else f(old)
            if new is not old:
                changes[name] = new
    return replace(node, **changes) if changes else node


def combinator_nodes(root: Combinator) -> Iterator[Combinator]:
    """Yield all nodes of a combinator tree, pre-order, including the
    subplans hoisted out of its UDFs."""
    yield root
    for fn in root.udfs():
        for _, plan in fn.hoisted:
            yield from combinator_nodes(plan)
    for child in root.inputs():
        yield from combinator_nodes(child)


def ensure_node_ids_above(minimum: int) -> None:
    """Advance the global node-id counter past ``minimum``.

    Plans loaded from the on-disk plan cache carry the node ids they
    were compiled with; bumping the counter keeps ids of nodes created
    later in this driver from colliding with them (engine hoist caches
    key on ``node_id``).
    """
    global _node_ids
    current = next(_node_ids)
    _node_ids = itertools.count(max(current, minimum + 1))


_MOTION_MARKERS = {
    "elidable": "[co-partitioned]",
    "hoistable": "[hoisted]",
    "required": "[shuffle]",
}


def _interpreted_notes(node: Combinator) -> list[str]:
    """Why UDFs or fold components of ``node`` will tree-walk (usually
    nothing: the list is empty when everything compiles)."""
    reasons = [fallback_reason(fn.params, fn.body) for fn in node.udfs()]
    specs = (node.spec,) if isinstance(node, CFold) else getattr(node, "specs", ())
    for spec in specs:
        reasons.extend(
            fallback_reason(params, body) for params, body in spec.components()
        )
    return [f"interpreted: {r}" for r in dict.fromkeys(reasons) if r]


def explain(
    root: Combinator, indent: int = 0, task_width: int | None = None
) -> str:
    """Render a combinator tree as an indented plan, one node per line.

    With ``task_width`` (the scheduler's concurrent-slot count under a
    non-serial execution mode), stage-forming nodes — fused chains and
    shuffle sites — additionally carry a ``[tasks<=N]`` marker showing
    how wide their partition tasks may fan out on the host.  An operator
    with a UDF or fold component outside the natively compilable subset
    carries ``[interpreted: <reason>]``; a subplan hoisted out of one of
    its UDFs is rendered below it as ``broadcast <name>:``.
    """
    flags = []
    if root.cache:
        flags.append("cached")
    if root.partition_hint is not None:
        flags.append(f"partitioned[{root.partition_hint.describe()}]")
    if root.phys is not None and root.phys.strategy is not None:
        flags.append(f"strategy={root.phys.strategy}")
    if getattr(root, "exchange", ""):
        flags.append(f"exchange={root.exchange}")
    suffix = f"  <{', '.join(flags)}>" if flags else ""
    marker = ""
    if root.phys is not None and root.phys.motion is not None:
        marker = " " + _MOTION_MARKERS[root.phys.motion]
    described = root.describe()
    if task_width is not None and (
        described.startswith("Chain[") or marker
    ):
        marker += f" [tasks<={task_width}]"
    notes = [root.reorder_note] if root.reorder_note else []
    if isinstance(root, CChain):
        # Chaining preserves the original narrow operators in ``ops``,
        # so a moved filter's annotation survives fusion.
        notes.extend(op.reorder_note for op in root.ops if op.reorder_note)
    notes.extend(_interpreted_notes(root))
    for note in notes:
        marker += f" [{note}]"
    lines = ["  " * indent + described + marker + suffix]
    for fn in root.udfs():
        for name, plan in fn.hoisted:
            lines.append("  " * (indent + 1) + f"broadcast {name}:")
            lines.append(explain(plan, indent + 2, task_width=task_width))
    for child in root.inputs():
        lines.append(explain(child, indent + 1, task_width=task_width))
    return "\n".join(lines)


@dataclass(frozen=True)
class AggResult:
    """One output record of :class:`CAggBy`: the key plus aggregates.

    Aggregates are accessed positionally (``aggs[i]``) by the rewritten
    head expressions that fold-group fusion produces.
    """

    key: Any
    aggs: tuple

    def __iter__(self) -> Iterator[Any]:
        # Allow tuple-style unpacking: (key, a1, ..., an).
        yield self.key
        yield from self.aggs
