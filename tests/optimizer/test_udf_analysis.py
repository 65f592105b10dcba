"""Unit tests for field-level read/write-set inference over UDF bodies.

Covers the tricky cases the reordering pass depends on: nested
attribute access, tuple re-packing (projection simplification),
closures over driver variables, and the conservative TOP fallback on
``getattr``/``**`` expansion.
"""

from repro.comprehension.exprs import (
    Attr,
    BinOp,
    Call,
    Compare,
    Const,
    Index,
    Lambda,
    Ref,
    TupleExpr,
)
from repro.lowering.combinators import ScalarFn
from repro.optimizer.udf_analysis import (
    FieldPath,
    analyze_emit_set,
    analyze_read_set,
    render_paths,
    simplify_projections,
)


def path(*steps):
    return FieldPath(tuple(steps))


def attr(name):
    return ("attr", name)


def idx(i):
    return ("index", i)


class TestReadSets:
    def test_nested_attr_access(self):
        # \p -> p.a.b < p.c
        fn = ScalarFn(
            ("p",),
            Compare(
                "<",
                Attr(Attr(Ref("p"), "a"), "b"),
                Attr(Ref("p"), "c"),
            ),
        )
        rs = analyze_read_set(fn)
        assert not rs.top
        assert rs.reads("p") == {
            path(attr("a"), attr("b")),
            path(attr("c")),
        }

    def test_index_chain_and_pair_side(self):
        # \p -> p[1].commit_date < p[1].receipt_date
        fn = ScalarFn(
            ("p",),
            Compare(
                "<",
                Attr(Index(Ref("p"), Const(1)), "commit_date"),
                Attr(Index(Ref("p"), Const(1)), "receipt_date"),
            ),
        )
        rs = analyze_read_set(fn)
        assert rs.pair_side("p") == 1
        assert rs.reads("p") == {
            path(idx(1), attr("commit_date")),
            path(idx(1), attr("receipt_date")),
        }

    def test_both_sides_is_not_confined(self):
        # \p -> p[0].x == p[1].y
        fn = ScalarFn(
            ("p",),
            Compare(
                "==",
                Attr(Index(Ref("p"), Const(0)), "x"),
                Attr(Index(Ref("p"), Const(1)), "y"),
            ),
        )
        assert analyze_read_set(fn).pair_side("p") is None

    def test_tuple_repacking_simplifies_before_analysis(self):
        # The unnesting residue: \j -> (j[0], j[1])[1].x — syntactically
        # mentions both pair components, semantically reads side 1 only.
        repacked = TupleExpr(
            (Index(Ref("j"), Const(0)), Index(Ref("j"), Const(1)))
        )
        fn = ScalarFn(
            ("j",),
            Compare(
                "<", Attr(Index(repacked, Const(1)), "x"), Const(3)
            ),
        )
        rs = analyze_read_set(fn)
        assert rs.pair_side("j") == 1
        assert rs.reads("j") == {path(idx(1), attr("x"))}

    def test_whole_record_read(self):
        fn = ScalarFn(("p",), Compare("==", Ref("p"), Const(0)))
        rs = analyze_read_set(fn)
        assert rs.reads("p") == {path()}
        assert rs.pair_side("p") is None

    def test_closure_free_names_are_collected(self):
        # \o -> o.order_date >= date_min — date_min is a driver
        # variable captured by the closure, not a field read.
        fn = ScalarFn(
            ("o",),
            Compare(
                ">=", Attr(Ref("o"), "order_date"), Ref("date_min")
            ),
        )
        rs = analyze_read_set(fn)
        assert rs.free == {"date_min"}
        assert rs.reads("o") == {path(attr("order_date"))}

    def test_getattr_on_param_is_top(self):
        fn = ScalarFn(
            ("p",),
            Call(Ref("getattr"), (Ref("p"), Ref("field_name"))),
        )
        rs = analyze_read_set(fn)
        assert rs.top
        assert "getattr" in rs.top_reason

    def test_getattr_on_broadcast_state_stays_precise(self):
        # getattr over non-parameter data does not defeat the analysis.
        fn = ScalarFn(
            ("p",),
            Compare(
                "==",
                Attr(Ref("p"), "k"),
                Call(Ref("getattr"), (Ref("cfg"), Const("key"))),
            ),
        )
        rs = analyze_read_set(fn)
        assert not rs.top
        assert rs.reads("p") == {path(attr("k"))}

    def test_double_star_over_param_is_top(self):
        fn = ScalarFn(
            ("p",),
            Call(Ref("f"), kwargs=(("**", Ref("p")),)),
        )
        rs = analyze_read_set(fn)
        assert rs.top
        assert "**" in rs.top_reason

    def test_double_star_over_broadcast_stays_precise(self):
        fn = ScalarFn(
            ("p",),
            Call(
                Ref("f"),
                (Attr(Ref("p"), "x"),),
                (("**", Ref("defaults")),),
            ),
        )
        rs = analyze_read_set(fn)
        assert not rs.top
        assert rs.reads("p") == {path(attr("x"))}

    def test_dynamic_index_reads_whole_prefix_subtree(self):
        # \p -> p[0].row[i] — the dynamic subscript widens to the
        # whole ``p[0].row`` subtree, which is still side-confined.
        fn = ScalarFn(
            ("p",),
            Index(
                Attr(Index(Ref("p"), Const(0)), "row"), Ref("i")
            ),
        )
        rs = analyze_read_set(fn)
        assert not rs.top
        assert rs.reads("p") == {path(idx(0), attr("row"))}
        assert rs.pair_side("p") == 0
        assert rs.free == {"i"}

    def test_inner_lambda_shadows_parameter(self):
        # \p -> f(\p -> p.inner, p.outer) — the inner lambda's p is a
        # different variable.
        fn = ScalarFn(
            ("p",),
            Call(
                Ref("f"),
                (
                    Lambda(("p",), Attr(Ref("p"), "inner")),
                    Attr(Ref("p"), "outer"),
                ),
            ),
        )
        rs = analyze_read_set(fn)
        assert rs.reads("p") == {path(attr("outer"))}

    def test_only_attr_key(self):
        fn = ScalarFn(
            ("g",),
            Compare("==", Attr(Ref("g"), "key"), Const("HIGH")),
        )
        rs = analyze_read_set(fn)
        assert rs.only_attr("g", "key")
        assert not rs.only_attr("g", "values")

    def test_bool_index_is_not_a_field_step(self):
        # p[True] must not be conflated with p[1].
        fn = ScalarFn(("p",), Index(Ref("p"), Const(True)))
        rs = analyze_read_set(fn)
        assert rs.reads("p") == {path()}

    def test_describe_renders_field_names(self):
        fn = ScalarFn(
            ("p",),
            Compare(
                "<",
                Attr(Index(Ref("p"), Const(1)), "commit_date"),
                Attr(Index(Ref("p"), Const(1)), "receipt_date"),
            ),
        )
        rs = analyze_read_set(fn)
        text = rs.describe("p")
        assert "commit_date" in text and "receipt_date" in text


class TestEmitSets:
    def test_identity_emit_resolves_everything(self):
        es = analyze_emit_set(ScalarFn.identity("x"))
        assert es.components is not None
        assert es.resolves(path())
        assert es.resolves(path(attr("anything")))

    def test_access_chain_emit(self):
        # \p -> p[0]: a downstream read of .x resolves to p[0].x
        es = analyze_emit_set(
            ScalarFn(("p",), Index(Ref("p"), Const(0)))
        )
        assert es.components is not None
        assert es.resolves(path(attr("x")))

    def test_tuple_repack_mixes_copies_and_computed(self):
        # \x -> (x.a, x.b + 1)
        es = analyze_emit_set(
            ScalarFn(
                ("x",),
                TupleExpr(
                    (
                        Attr(Ref("x"), "a"),
                        BinOp("+", Attr(Ref("x"), "b"), Const(1)),
                    )
                ),
            )
        )
        assert es.resolves(path(idx(0)))
        assert es.resolves(path(idx(0), attr("deep")))
        assert not es.resolves(path(idx(1)))
        assert not es.resolves(path())  # whole-record read overlaps [1]

    def test_constructor_call_is_opaque(self):
        es = analyze_emit_set(
            ScalarFn(
                ("x",),
                Call(Ref("Point"), kwargs=(("x", Attr(Ref("x"), "a")),)),
            )
        )
        assert es.components is None
        assert not es.resolves(path(attr("x")))

    def test_multi_parameter_udf_is_opaque(self):
        es = analyze_emit_set(ScalarFn(("a", "b"), Ref("a")))
        assert es.components is None


class TestSimplifyProjections:
    def test_collapses_constant_index_into_tuple(self):
        expr = Index(TupleExpr((Ref("a"), Ref("b"))), Const(1))
        assert simplify_projections(expr) == Ref("b")

    def test_negative_index(self):
        expr = Index(TupleExpr((Ref("a"), Ref("b"))), Const(-1))
        assert simplify_projections(expr) == Ref("b")

    def test_out_of_range_left_alone(self):
        expr = Index(TupleExpr((Ref("a"),)), Const(5))
        assert simplify_projections(expr) == expr

    def test_bool_index_left_alone(self):
        expr = Index(TupleExpr((Ref("a"), Ref("b"))), Const(True))
        assert simplify_projections(expr) == expr

    def test_nested_collapse(self):
        inner = TupleExpr((Ref("a"), Ref("b")))
        expr = Attr(
            Index(
                TupleExpr((Index(inner, Const(0)), Ref("c"))), Const(0)
            ),
            "f",
        )
        assert simplify_projections(expr) == Attr(Ref("a"), "f")


class TestHelpers:
    def test_render_paths_is_sorted_and_stripped(self):
        rendered = render_paths(
            {path(attr("b")), path(attr("a"), attr("c"))}
        )
        assert rendered == "{a.c, b}"

    def test_field_path_prefix(self):
        assert path(idx(0), attr("x")).starts_with(path(idx(0)))
        assert not path(idx(1)).starts_with(path(idx(0)))
