"""Tests for the native scalar-expression compiler.

``compile_scalar`` must agree with the tree-walking ``evaluate`` on the
whole compilable subset — scalars, comprehensions over ``NORMAL``
generators, every fold alias — and must *refuse* (return ``None``, with
``fallback_reason`` saying why) on anything outside it so callers keep
the interpreting closure.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.fold import FOLD_ALIASES
from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BagLiteral,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Env,
    IfElse,
    Index,
    Lambda,
    ListExpr,
    MapCall,
    NativeCodegen,
    NotCompilable,
    Ref,
    ScalarTemplate,
    TupleExpr,
    UnaryOp,
    compile_scalar,
    fallback_reason,
    fold_reducer,
)
from repro.comprehension.ir import (
    Comprehension,
    FoldKind,
    Generator,
    GenMode,
    Guard,
)
from repro.core.databag import DataBag
from repro.errors import ComprehensionError
from repro.lowering.combinators import ScalarFn
from tests.conftest import outcome


def both(params, body, env, *args):
    """Run the native compile and the interpreter; assert agreement."""
    native = compile_scalar(params, body, env)
    assert native is not None, "expected the expression to compile"
    interp = Lambda(params, body).evaluate(Env.of(env))
    assert native(*args) == interp(*args)
    return native(*args)


class TestCompiledSemantics:
    def test_arithmetic(self):
        body = BinOp("*", BinOp("+", Ref("x"), Const(3)), Ref("x"))
        assert both(("x",), body, {}, 4) == 28

    def test_comparison_and_boolop(self):
        body = BoolOp(
            "and",
            (
                Compare(">", Ref("x"), Const(0)),
                Compare("<", Ref("x"), Const(10)),
            ),
        )
        assert both(("x",), body, {}, 5) is True
        assert both(("x",), body, {}, 50) is False

    def test_unary_ifelse(self):
        body = IfElse(
            then=UnaryOp("-", Ref("x")),
            cond=Compare(">", Ref("x"), Const(0)),
            orelse=Ref("x"),
        )
        assert both(("x",), body, {}, 7) == -7
        assert both(("x",), body, {}, -7) == -7

    def test_attr_index_tuple_list(self):
        body = TupleExpr(
            (
                Attr(Ref("x"), "real"),
                Index(ListExpr((Ref("x"), Const(9))), Const(1)),
            )
        )
        assert both(("x",), body, {}, 3) == (3, 9)

    def test_one_element_tuple(self):
        assert both(("x",), TupleExpr((Ref("x"),)), {}, 1) == (1,)

    def test_call_with_kwargs(self):
        body = Call(
            Ref("f"), (Ref("x"),), (("base", Const(2)),)
        )
        env = {"f": lambda v, base: v**base}
        assert both(("x",), body, env, 5) == 25

    def test_nested_lambda(self):
        body = Call(Lambda(("y",), BinOp("+", Ref("x"), Ref("y"))), (Const(1),))
        assert both(("x",), body, {}, 10) == 11

    def test_free_name_closed_over_eagerly(self):
        body = BinOp("+", Ref("x"), Ref("k"))
        fn = compile_scalar(("x",), body, {"k": 100})
        assert fn(1) == 101

    def test_shadowed_param_beats_env(self):
        body = Ref("x")
        fn = compile_scalar(("x",), body, {"x": 999})
        assert fn(5) == 5

    def test_nonliteral_constant_interned(self):
        marker = object()
        fn = compile_scalar(("x",), Const(marker), {})
        assert fn(0) is marker

    def test_nonfinite_float_constant(self):
        inf = float("inf")
        fn = compile_scalar(("x",), Const(inf), {})
        assert fn(0) == inf


class TestRefusals:
    def test_bag_expression_refused(self):
        body = MapCall(BagLiteral(ListExpr((Const(1),))), Lambda(("y",), Ref("y")))
        assert compile_scalar(("x",), body, {}) is None

    def test_unbound_free_name_refused(self):
        assert (
            compile_scalar(("x",), BinOp("+", Ref("x"), Ref("k")), {})
            is None
        )

    def test_keyword_param_refused(self):
        assert compile_scalar(("class",), Ref("class"), {}) is None

    def test_reserved_const_prefix_param_refused(self):
        assert compile_scalar(("_cv0",), Ref("_cv0"), {}) is None


class TestNativeCodegen:
    def test_intern_const_is_stable_per_identity(self):
        cg = NativeCodegen()
        marker = object()
        assert cg.intern_const(marker) == cg.intern_const(marker)
        assert cg.intern_const(object()) != cg.intern_const(marker)

    def test_bind_free_rejects_conflicting_values(self):
        cg = NativeCodegen()
        cg.bind_free("k", 1)
        cg.bind_free("k", 1)  # same object: fine
        with pytest.raises(NotCompilable):
            cg.bind_free("k", 2.5)

    def test_bind_free_rejects_reserved_prefix(self):
        cg = NativeCodegen()
        with pytest.raises(NotCompilable):
            cg.bind_free("_cv1", 1)

    def test_shared_namespace_across_expressions(self):
        cg = NativeCodegen()
        env = Env({"a": 5, "b": 7})
        src1 = cg.emit(Ref("a"), {}, env.lookup)
        src2 = cg.emit(BinOp("+", Ref("a"), Ref("b")), {}, env.lookup)
        template = ScalarTemplate(("x",), f"{src1} + {src2}", cg.globals_)
        fn = template.bind(Env())
        assert fn(0) == 17


class TestScalarFnIntegration:
    def test_compile_native_reports_nativeness(self):
        fn = ScalarFn(("x",), BinOp("+", Ref("x"), Const(1)))
        compiled, reason = fn.compile_native({})
        assert reason is None
        assert compiled(41) == 42

    def test_compile_native_fallback(self):
        body = MapCall(
            BagLiteral(ListExpr((Const(1), Const(2)))), Lambda(("y",), Ref("y"))
        )
        fn = ScalarFn(("x",), body)
        compiled, reason = fn.compile_native({})
        assert "MapCall" in reason
        assert list(compiled(0)) == [1, 2]


# ---------------------------------------------------------------------------
# Comprehensions and folds: the emitter against the interpreter oracle
# ---------------------------------------------------------------------------


def _fold_args(alias):
    """Lifted arguments per alias; ``p`` is the enclosing UDF's parameter."""
    y = Ref("y")
    if alias == "fold":
        return (
            Const(()),
            Lambda(("y",), TupleExpr((y,))),
            Lambda(("a", "b"), BinOp("+", Ref("a"), Ref("b"))),
        )
    if alias in ("exists", "forall"):
        return (Lambda(("y",), Compare(">", y, Ref("p"))),)
    if alias in ("min_by", "max_by"):
        # keyed on the outer element: the k-means shape
        diff = BinOp("-", y, Ref("p"))
        return (Lambda(("y",), BinOp("*", diff, diff)),)
    return ()


_values = st.one_of(
    st.lists(st.integers(-9, 9), max_size=8),
    st.lists(st.fractions(-3, 3, max_denominator=5), max_size=8),
    st.lists(
        st.sampled_from([0.0, -0.0, 1.5, -2.25, math.inf, math.nan]),
        max_size=8,
    ),
)


class TestComprehensionEmit:
    @pytest.mark.parametrize("alias", sorted(FOLD_ALIASES))
    @settings(max_examples=30, deadline=None)
    @given(_values, st.integers(-3, 3))
    def test_fold_comprehension_matches_the_interpreter(self, alias, ys, p):
        # \p -> [[ y + p | y <- ys, y != p ]]^fold(alias)
        body = Comprehension(
            BinOp("+", Ref("y"), Ref("p")),
            (Generator("y", Ref("ys")), Guard(Compare("!=", Ref("y"), Ref("p")))),
            FoldKind(AlgebraSpec(alias, _fold_args(alias))),
        )
        env = {"ys": DataBag(ys)}
        native = compile_scalar(("p",), body, env)
        assert native is not None
        interp = Lambda(("p",), body).evaluate(Env.of(env))
        assert outcome(lambda: native(p)) == outcome(lambda: interp(p))

    @pytest.mark.parametrize("alias", sorted(FOLD_ALIASES))
    @settings(max_examples=30, deadline=None)
    @given(_values, st.integers(-3, 3))
    def test_reducer_is_the_algebra_applied(self, alias, ys, p):
        arity, build = FOLD_ALIASES[alias]
        args = [
            a.evaluate(Env.of({"p": p})) for a in _fold_args(alias)
        ]
        assert len(args) == arity
        assert outcome(lambda: fold_reducer(alias)(ys, *args)) == outcome(
            lambda: build(*args)(ys)
        )

    def test_bag_comprehension_with_dependent_generator(self):
        # the PageRank flat-map body: \v -> [[ (v, n) | n <- v[1] ]]^Bag
        body = Comprehension(
            TupleExpr((Index(Ref("v"), Const(0)), Ref("n"))),
            (
                Generator("m", Index(Ref("v"), Const(1))),
                Generator("n", Ref("m")),
                Guard(Compare(">", Ref("n"), Const(0))),
            ),
        )
        got = both(("v",), body, {}, ("a", [[1, -1], (), [2]]))
        assert got == DataBag([("a", 1), ("a", 2)])

    def test_generator_variables_cannot_capture_interned_constants(self):
        # fold-group fusion renames generator variables to ``_cv0`` —
        # also the name of the first interned constant
        marker = object()
        body = Comprehension(
            TupleExpr((Ref("_cv0"), Const(marker))),
            (Generator("_cv0", Ref("xs")),),
        )
        fn = compile_scalar(("xs",), body, {})
        assert fn([1]) == DataBag([(1, marker)])

    def test_fold_arguments_see_the_enclosing_scope_only(self):
        # the generator variable is not in scope of the algebra's
        # arguments: ``y`` there is the enclosing parameter
        body = Comprehension(
            Ref("y"),
            (Generator("y", Ref("xs")),),
            FoldKind(
                AlgebraSpec(
                    "exists", (Lambda(("e",), Compare("==", Ref("e"), Ref("y"))),)
                )
            ),
        )
        assert both(("xs", "y"), body, {}, [1, 2, 3], 2) is True
        assert both(("xs", "y"), body, {}, [1, 2, 3], 7) is False

    def test_non_bag_source_raises_the_interpreters_error(self):
        body = Comprehension(Ref("y"), (Generator("y", Ref("x")),))
        native = compile_scalar(("x",), body, {})
        interp = Lambda(("x",), body).evaluate(Env())
        with pytest.raises(ComprehensionError) as compiled:
            native(5)
        with pytest.raises(ComprehensionError) as oracle:
            interp(5)
        assert str(compiled.value) == str(oracle.value)

    @pytest.mark.parametrize("mode", [GenMode.EXISTS, GenMode.NOT_EXISTS])
    def test_exists_generators_are_refused_with_a_reason(self, mode):
        body = Comprehension(
            Ref("x"),
            (
                Generator("x", Ref("xs")),
                Generator("y", Ref("xs"), mode),
                Guard(Compare("<", Ref("y"), Ref("x"))),
            ),
        )
        assert compile_scalar(("xs",), body, {}) is None
        assert fallback_reason(("xs",), body) == f"{mode.name} generator 'y'"


class TestFallbackReason:
    def test_compilable_has_none(self):
        assert fallback_reason(("x",), BinOp("+", Ref("x"), Ref("k"))) is None

    def test_unbound_name_only_with_an_environment(self):
        body = BinOp("+", Ref("x"), Ref("k"))
        assert fallback_reason(("x",), body, {}) == "unbound name 'k'"
        assert fallback_reason(("x",), body, {"k": 1}) is None

    def test_node_outside_the_subset_is_named(self):
        body = MapCall(Ref("x"), Lambda(("y",), Ref("y")))
        assert "MapCall" in fallback_reason(("x",), body)

    def test_udf_carries_the_reason_but_does_not_ship_it(self):
        import pickle

        from repro.engines.chainkernel import Udf

        body = MapCall(Ref("x"), Lambda(("y",), Ref("y")))
        udf = Udf(("x",), body)
        assert not udf.native and "MapCall" in udf.fallback
        assert Udf(("x",), Ref("x")).fallback is None
        assert "_compiled" not in vars(pickle.loads(pickle.dumps(udf)))

    def test_an_interpreted_udf_is_emitted_once(self, monkeypatch):
        from repro.comprehension import exprs
        from repro.engines.chainkernel import Udf

        calls = []
        emit = exprs._emit_scalar

        def counting(params, body, lookup):
            calls.append(params)
            return emit(params, body, lookup)

        monkeypatch.setattr(exprs, "_emit_scalar", counting)
        udf = Udf(("x",), MapCall(Ref("x"), Lambda(("y",), Ref("y"))))
        assert list(udf.closure([1, 2])) == [1, 2]
        assert "MapCall" in udf.fallback
        assert len(calls) == 1
