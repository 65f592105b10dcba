"""The compiled fold against the interpreter oracle.

``AggMapSpec`` / ``AggMergeSpec`` / ``FoldSpec`` run generated kernels
whose aggregation tail inlines the key, every fused head and guard and
every union of the fold algebras from ``FOLD_TEMPLATES``.  The oracle
is the tree walker: ``AggByCall.evaluate`` and the ``FoldAlgebra`` that
``AlgebraSpec.make_algebra`` builds.  The contract is bit-identity, so
every comparison is by ``repr`` (``-0.0`` is not ``0.0``, ``nan`` is
``nan``) and a raising oracle must be matched by the same exception.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.fold import FOLD_ALIASES
from repro.comprehension.exprs import (
    AggByCall,
    AlgebraSpec,
    BinOp,
    Call,
    Compare,
    Const,
    Env,
    Index,
    Lambda,
    Ref,
    TupleExpr,
)
from repro.comprehension.ir import (
    Comprehension,
    FoldKind,
    Generator,
    GenMode,
    Guard,
)
from repro.core.databag import DataBag
from repro.engines.chainkernel import FILTER, MAP, KernelStep, Udf
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.scheduler import AggMapSpec, AggMergeSpec, FoldSpec
from repro.engines.stateful import DistributedStatefulBag
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import ComprehensionError
from repro.lowering.combinators import (
    CAggBy,
    CBagRef,
    CFold,
    CMap,
    ScalarFn,
    explain,
)
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads import datagen, graphs
from repro.workloads.connected_components import connected_components
from repro.workloads.kmeans import initial_centroids, kmeans, kmeans_assign
from repro.workloads.pagerank import VertexRank as Rank
from repro.workloads.pagerank import pagerank
from repro.workloads.spam import default_classifiers, select_classifier
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4, tpch_q4_udf
from tests.conftest import CountingKey, outcome

ALIASES = sorted(FOLD_ALIASES)


def bucket(value):
    """The grouping key of the generated cases: works for every type."""
    return len(repr(value)) % 3


def algebra_args(alias):
    """Lifted arguments for ``alias``; ``t`` is a free (bound) name."""
    v = Ref("v")
    if alias == "fold":
        # Tuple concatenation: the result spells out the fold order.
        return (
            Const(()),
            Lambda(("v",), TupleExpr((v,))),
            Lambda(("a", "b"), BinOp("+", Ref("a"), Ref("b"))),
        )
    if alias in ("exists", "forall"):
        return (Lambda(("v",), Compare(">", v, Ref("t"))),)
    if alias in ("min_by", "max_by"):
        return (Lambda(("v",), v),)
    return ()


def make_case(alias, fused, guarded):
    """(key UDF body over ``x``, spec) for one alias.

    Unfused, records are the values themselves.  Fused, records are
    ``(tag, value)`` pairs: the head projects the value and the guard
    keeps a record iff its tag is non-zero.
    """
    x = Ref("x")
    value = Index(x, Const(1)) if fused else x
    key = Call(Ref("bucket"), (value,))
    spec = AlgebraSpec(alias, algebra_args(alias))
    if fused:
        guards = (Compare("!=", Index(x, Const(0)), Const(0)),)
        spec = spec.fused_with("x", value, guards if guarded else ())
    return key, spec


def oracle_agg(key, specs, env, partitions):
    """Partial aggregation and merge on the tree walker."""
    partials = []
    for p in partitions:
        call = AggByCall(Ref("_part"), Lambda(("x",), key), tuple(specs))
        bag = call.evaluate(Env.of({**env, "_part": DataBag(p)}))
        partials.append([(r.key, r.aggs) for r in bag])
    algebras = [s.make_algebra(Env.of(env)) for s in specs]
    merged = {}
    for pairs in partials:
        for k, aggs in pairs:
            entry = merged.get(k)
            if entry is None:
                merged[k] = list(aggs)
            else:
                for j, a in enumerate(algebras):
                    entry[j] = a.union(entry[j], aggs[j])
    return partials, [(k, tuple(v)) for k, v in merged.items()]


def compiled_agg(key, specs, env, partitions):
    key_udf = Udf(("x",), key, dict(env))
    mspec = AggMapSpec(key_udf, specs, dict(env))
    partials = [mspec.run(mspec.prepared(), p)[0] for p in partitions]
    rspec = AggMergeSpec(specs, dict(env))
    shuffled = [pair for pairs in partials for pair in pairs]
    merged = rspec.run(rspec.prepared(), shuffled)
    return partials, [(r.key, r.aggs) for r in merged]


ints = st.integers(min_value=-9, max_value=9)
FAMILIES = {
    "ints": (ints, 0),
    "fractions": (st.fractions(min_value=-3, max_value=3, max_denominator=6), 0),
    "floats": (
        st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
            st.floats(min_value=-8, max_value=8, width=16),
        ),
        0.5,
    ),
    "strings": (st.text(alphabet="abz", max_size=3), "b"),
}


@st.composite
def fold_cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    values, threshold = FAMILIES[family]
    fused = draw(st.booleans())
    element = st.tuples(st.integers(0, 2), values) if fused else values
    partitions = draw(
        st.lists(st.lists(element, max_size=7), min_size=1, max_size=3)
    )
    return fused, draw(st.booleans()), threshold, partitions


class TestAgainstTheOracle:
    @pytest.mark.parametrize("alias", ALIASES)
    @settings(max_examples=30, deadline=None)
    @given(fold_cases())
    # a guard failing on a key's first record; an all-guards-fail
    # group; an empty partition between duplicate keys
    @example((True, True, 0, [[(0, 5), (1, 5)], [], [(1, 5), (0, 7)]]))
    @example((True, True, 0.5, [[(0, -0.0), (0, 1.5)], [(1, -0.0)]]))
    # -0.0 must sum as the interpreter sums it (0 + -0.0 is 0.0)
    @example((False, False, 0.5, [[-0.0], [-0.0, -0.0]]))
    def test_aggregation_merge_and_fold(self, alias, case):
        fused, guarded, threshold, partitions = case
        key, spec = make_case(alias, fused, guarded)
        env = {"bucket": bucket, "t": threshold}

        want = outcome(lambda: oracle_agg(key, [spec, spec], env, partitions))
        got = outcome(lambda: compiled_agg(key, [spec, spec], env, partitions))
        assert got == want

        def oracle_fold():
            algebra = spec.make_algebra(Env.of(env))
            return algebra.merge([algebra(p) for p in partitions])

        def compiled_fold():
            fspec = FoldSpec(spec, dict(env))
            partials = [fspec.run(fspec.prepared(), p) for p in partitions]
            merge = FoldSpec(spec, dict(env), merge=True)
            return merge.run(merge.prepared(), partials)

        assert outcome(compiled_fold) == outcome(oracle_fold)

    def test_a_fused_chain_streams_into_the_same_loop(self):
        key, spec = make_case("sum", fused=True, guarded=True)
        steps = (
            KernelStep(
                FILTER,
                Udf(("r",), Compare(">", Index(Ref("r"), Const(1)), Const(1))),
            ),
            KernelStep(
                MAP,
                Udf(
                    ("r",),
                    TupleExpr(
                        (
                            Index(Ref("r"), Const(0)),
                            BinOp("*", Index(Ref("r"), Const(1)), Const(10)),
                        )
                    ),
                ),
            ),
        )
        env = {"bucket": bucket}
        data = [(1, 1), (1, 2), (0, 3), (2, 4), (1, 12)]
        mspec = AggMapSpec(Udf(("x",), key, env), [spec], env, steps)
        pairs, counts = mspec.run(mspec.prepared(), data)
        survivors = [(t, v * 10) for t, v in data if v > 1]
        want, _ = oracle_agg(key, [spec], env, [survivors])
        assert repr(pairs) == repr(want[0])
        assert counts == (len(survivors),)
        source = mspec.prepared().source
        assert source.count("for ") == 2  # the record loop + the emit loop
        assert "_f" not in source  # nothing is called through a closure


#: elements for the key contract (see ``CountingKey``): ``None``
#: elements, ``nan`` keys, tied keys, a ``None`` key and a raising key
keyed_elements = st.one_of(
    st.integers(0, 9), st.none(), st.sampled_from([math.nan, 0.5])
)


class TestKeyCalls:
    """``min_by`` / ``max_by`` in the chain kernel's sinks call the key
    as the interpreter does — the same calls in the same order, at most
    once per element — results and exceptions included."""

    @pytest.mark.parametrize("alias", ["min_by", "max_by"])
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just(False), st.lists(keyed_elements, max_size=8)),
            st.tuples(
                st.just(True),
                st.lists(
                    st.tuples(st.integers(0, 2), keyed_elements), max_size=8
                ),
            ),
        )
    )
    def test_the_sinks_call_the_key_as_the_interpreter_does(
        self, alias, case
    ):
        fused, records = case
        x = Ref("x")
        value = Index(x, Const(1)) if fused else x
        spec = AlgebraSpec(alias, (Ref("k"),))
        if fused:
            guard = Compare("!=", Index(x, Const(0)), Const(0))
            spec = spec.fused_with("x", value, (guard,))
        group = Call(Ref("bucket"), (value,))
        halves = [records[: len(records) // 2], records[len(records) // 2 :]]

        def lifted_fold(env):
            return spec.make_algebra(Env.of(env))(records)

        def fold_sink(env):
            fspec = FoldSpec(spec, env)
            return fspec.run(fspec.prepared(), records)

        def lifted_merge(env):
            algebra = spec.make_algebra(Env.of(env))
            return algebra.merge([algebra(p) for p in halves])

        def merge_sink(env):
            fspec = FoldSpec(spec, env)
            partials = [fspec.run(fspec.prepared(), p) for p in halves]
            merge = FoldSpec(spec, env, merge=True)
            return merge.run(merge.prepared(), partials)

        def lifted_agg(env):
            call = AggByCall(Ref("xs"), Lambda(("x",), group), (spec,))
            bag = call.evaluate(Env.of({**env, "xs": DataBag(records)}))
            return [(r.key, r.aggs) for r in bag]

        def agg_sink(env):
            mspec = AggMapSpec(Udf(("x",), group, env), [spec], env)
            return mspec.run(mspec.prepared(), records)[0]

        def calls(run):
            key = CountingKey()
            env = {"bucket": bucket, "k": key}
            return outcome(lambda: run(env)), repr(key.calls), len(key.calls)

        # the elements the singleton lets through: a failed guard and a
        # None element are the zero, which is never keyed
        values = [v for t, v in records if t != 0] if fused else records
        present = sum(v is not None for v in values)
        # merging keys each partial once more, at most
        for oracle, kernel, bound in (
            (lifted_fold, fold_sink, present),
            (lifted_merge, merge_sink, present + len(halves)),
            (lifted_agg, agg_sink, present),
        ):
            want = calls(oracle)
            assert calls(kernel) == want
            assert want[2] <= bound


class TestExceptionParity:
    def test_a_head_dividing_by_zero_raises_from_the_kernel(self):
        head = BinOp("/", Const(1), Ref("x"))
        spec = AlgebraSpec("sum").fused_with("x", head, ())
        key = Const(0)
        with pytest.raises(ZeroDivisionError) as compiled:
            compiled_agg(key, [spec], {}, [[2, 0, 4]])
        with pytest.raises(ZeroDivisionError) as oracle:
            oracle_agg(key, [spec], {}, [[2, 0, 4]])
        assert str(compiled.value) == str(oracle.value)

    def test_a_non_bag_generator_source_raises_the_same_error(self):
        # [[ y | y <- x ]]^fold(count) over ints: x is not a bag
        head = Comprehension(
            Ref("y"),
            (Generator("y", Ref("x")),),
            FoldKind(AlgebraSpec("count")),
        )
        spec = AlgebraSpec("sum").fused_with("x", head, ())
        with pytest.raises(ComprehensionError) as compiled:
            compiled_agg(Const(0), [spec], {}, [[7]])
        with pytest.raises(ComprehensionError) as oracle:
            oracle_agg(Const(0), [spec], {}, [[7]])
        assert str(compiled.value) == str(oracle.value)
        assert "ranges over a non-bag (int)" in str(compiled.value)


class TestComponentOutsideTheSubset:
    def test_an_exists_generator_in_a_head_runs_inside_the_loop(self):
        # head: 1 if some y in ys equals x else 0 — an EXISTS-mode
        # generator, which the emitter refuses
        head = Comprehension(
            Const(1),
            (
                Generator("y", Ref("ys"), GenMode.EXISTS),
                Guard(Compare("==", Ref("y"), Ref("x"))),
            ),
            FoldKind(AlgebraSpec("count")),
        )
        spec = AlgebraSpec("sum").fused_with("x", head, ())
        key = BinOp("%", Ref("x"), Const(2))
        env = {"ys": DataBag([1, 2, 3])}
        data = [[1, 2, 5, 3], [4, 2]]
        assert repr(compiled_agg(key, [spec], env, data)) == repr(
            oracle_agg(key, [spec], env, data)
        )
        mspec = AggMapSpec(Udf(("x",), key, env), [spec], env)
        source = mspec.prepared().source
        # the head is a closure call from within the generated loop,
        # the key and the union around it are still inlined
        assert "_e[0] = (_e[0] + _f0(_x0))" in source
        assert "_key = (_x0 % 2)" in source


class TestEngineLevel:
    """The same programs through an engine, serial and on the pool."""

    @pytest.mark.parametrize("mode", ["serial", "processes"])
    @pytest.mark.parametrize("alias", ALIASES)
    def test_agg_by_and_fold_match_the_oracle(self, alias, mode):
        key, spec = make_case(alias, fused=True, guarded=True)
        records = [
            (i % 3, Fraction(i * 7 % 11 - 5, 1 + i % 4)) for i in range(60)
        ]
        env = {"bucket": bucket, "t": 0, "xs": DataBag(records)}
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=3),
            execution_mode=mode,
            max_parallel_tasks=2,
        )
        plan = CAggBy(
            key=ScalarFn(("x",), key), specs=(spec,), input=CBagRef(name="xs")
        )
        got = {
            r.key: r.aggs[0] for r in engine.collect(engine.defer(plan, env))
        }
        oracle = AggByCall(Ref("xs"), Lambda(("x",), key), (spec,))
        want = {r.key: r.aggs[0] for r in oracle.evaluate(Env.of(env))}
        scalar = engine.run_scalar(CFold(spec=spec, input=CBagRef(name="xs")), env)
        whole = spec.make_algebra(Env.of(env))(records)
        if alias == "fold":
            # the tuple's order is the partitioning's; its content is not
            got = {k: sorted(v) for k, v in got.items()}
            want = {k: sorted(v) for k, v in want.items()}
            scalar, whole = sorted(scalar), sorted(whole)
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
        assert repr(scalar) == repr(whole)


# ---------------------------------------------------------------------------
# Whole programs: nothing left on the interpreter
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    dfs = SimulatedDFS()
    emails, blacklist = datagen.stage_spam_inputs(
        dfs, num_emails=120, num_blacklisted=10, num_ips=40
    )
    points = datagen.stage_points(dfs, n=90, centers=3, dim=2)
    graph = graphs.stage_follower_graph(dfs, num_vertices=48)
    dfs.put("data/cc-graph", graphs.generate_component_graph(40, 3))
    orders, lineitem = stage_tpch(dfs, sf=0.05)
    centroids = initial_centroids(dfs.get(points).records, 3)
    q4 = dict(
        orders_path=orders,
        lineitem_path=lineitem,
        date_min="1994-01-01",
        date_max="1994-07-01",
    )
    programs = {
        "tpch_q1": (
            tpch_q1,
            dict(lineitem_path=lineitem, ship_date_max="1996-12-01"),
        ),
        "tpch_q4": (tpch_q4, q4),
        "tpch_q4_udf": (tpch_q4_udf, q4),
        "pagerank": (
            pagerank,
            dict(graph_path=graph, num_pages=48, max_iterations=3),
        ),
        "connected_components": (
            connected_components,
            dict(graph_path="data/cc-graph"),
        ),
        "kmeans": (
            kmeans,
            dict(
                points_path=points,
                initial=centroids,
                epsilon=1e-6,
                max_iterations=3,
            ),
        ),
        "kmeans_assign": (
            kmeans_assign,
            dict(points_path=points, centroids=centroids),
        ),
        "select_classifier": (
            select_classifier,
            dict(
                emails_path=emails,
                blacklist_path=blacklist,
                classifiers=default_classifiers(2),
            ),
        ),
    }
    return dfs, programs


PROGRAMS = (
    "tpch_q1",
    "tpch_q4",
    "tpch_q4_udf",
    "pagerank",
    "connected_components",
    "kmeans",
    "kmeans_assign",
    "select_classifier",
)


def interpreted(traced):
    """The ``udf-interpreted`` events of a traced run."""
    return [
        (event.attrs["udf"], event.attrs["reason"])
        for span in traced.trace.walk()
        for event in span.events
        if event.name == "udf-interpreted"
    ]


class TestNoFallbackLeft:
    @pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_shipped_programs_record_no_interpreted_udf(
        self, world, name, fusion
    ):
        dfs, programs = world
        algorithm, params = programs[name]
        config = EmmaConfig(tracing=True, fold_group_fusion=fusion)
        assert "[interpreted" not in algorithm.explain(config)
        traced = algorithm.run(SparkLikeEngine(dfs=dfs), config=config, **params)
        assert interpreted(traced) == []

    def test_an_interpreted_udf_is_named_with_its_reason(self):
        # x -> [[ 1 | y <-(exists) ys, y == x ]]^fold(count)
        body = Comprehension(
            Const(1),
            (
                Generator("y", Ref("ys"), GenMode.EXISTS),
                Guard(Compare("==", Ref("y"), Ref("x"))),
            ),
            FoldKind(AlgebraSpec("count")),
        )
        plan = CMap(fn=ScalarFn(("x",), body), input=CBagRef(name="xs"))
        assert "[interpreted: EXISTS generator 'y']" in explain(plan)
        engine = SparkLikeEngine()
        tracer = engine.enable_tracing()
        env = {"xs": DataBag([1, 5]), "ys": DataBag([1, 2])}
        assert sorted(engine.collect(engine.defer(plan, env))) == [0, 1]
        events = [e for s in tracer.spans() for e in s.events]
        assert [
            e.attrs["reason"] for e in events if e.name == "udf-interpreted"
        ] == ["EXISTS generator 'y'"]


    def test_an_interpreted_stateful_update_is_named_with_its_reason(self):
        engine = SparkLikeEngine()
        tracer = engine.enable_tracing()
        state = DistributedStatefulBag(engine, [Rank(i, 1.0) for i in range(6)])
        # s -> replace(s, **changes): a ``**`` splice walks the tree
        halve = Udf(
            ("s",),
            Call(Ref("replace"), (Ref("s"),), (("**", Ref("changes")),)),
            {"replace": dataclasses.replace, "changes": {"rank": 0.5}},
        )
        delta = state.update(halve)
        assert sorted(engine.collect(delta), key=repr) == [Rank(i, 0.5) for i in range(6)]
        events = [e for s in tracer.spans() for e in s.events]
        assert [
            e.attrs["reason"] for e in events if e.name == "udf-interpreted"
        ] == ["keyword argument '**'"]


class TestNoTreeWalkOnTheHotPath:
    """``Env.child`` is the tree walker's per-binding allocation: however
    often the driver-side interpreter calls it, the count must not grow
    with the data."""

    @staticmethod
    def env_children(monkeypatch, run):
        calls = []
        child = Env.child

        def counting(self, bindings):
            calls.append(1)
            return child(self, bindings)

        monkeypatch.setattr(Env, "child", counting)
        run()
        monkeypatch.setattr(Env, "child", child)
        return len(calls)

    def test_tpch_q1(self, monkeypatch):
        counts = []
        for sf in (0.02, 0.08):
            dfs = SimulatedDFS()
            _orders, lineitem = stage_tpch(dfs, sf=sf)
            counts.append(
                self.env_children(
                    monkeypatch,
                    lambda: tpch_q1.run(
                        SparkLikeEngine(dfs=dfs),
                        lineitem_path=lineitem,
                        ship_date_max="1998-09-02",
                    ),
                )
            )
        assert counts[1] <= counts[0]

    def test_kmeans(self, monkeypatch):
        counts = []
        for n in (40, 160):
            dfs = SimulatedDFS()
            points = datagen.stage_points(dfs, n=n, centers=3, dim=2)
            initial = initial_centroids(dfs.get(points).records, 3)
            counts.append(
                self.env_children(
                    monkeypatch,
                    # epsilon < 0: both sizes run all three iterations
                    lambda: kmeans.run(
                        SparkLikeEngine(dfs=dfs),
                        points_path=points,
                        initial=initial,
                        epsilon=-1.0,
                        max_iterations=3,
                    ),
                )
            )
        assert counts[1] <= counts[0]

    def test_pagerank(self, monkeypatch):
        counts = []
        for n in (40, 160):
            dfs = SimulatedDFS()
            graph = graphs.stage_follower_graph(dfs, num_vertices=n)
            counts.append(
                self.env_children(
                    monkeypatch,
                    lambda: pagerank.run(
                        SparkLikeEngine(dfs=dfs),
                        graph_path=graph,
                        num_pages=n,
                        max_iterations=3,
                    ),
                )
            )
        assert counts[1] <= counts[0]

    def test_connected_components(self, monkeypatch):
        counts = []
        for n in (40, 160):
            dfs = SimulatedDFS()
            graph = graphs.stage_follower_graph(dfs, num_vertices=n)
            counts.append(
                self.env_children(
                    monkeypatch,
                    lambda: connected_components.run(
                        SparkLikeEngine(dfs=dfs), graph_path=graph
                    ),
                )
            )
        assert counts[1] <= counts[0]
