"""Tests for the fold well-definedness law checks (Section 2.2.2)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.fold import FOLD_ALIASES, FoldAlgebra
from repro.algebra.laws import (
    check_associative,
    check_commutative,
    check_fold_well_defined,
    check_unit,
)
from repro.errors import FoldConditionError

ADD = lambda a, b: a + b  # noqa: E731
SUB = lambda a, b: a - b  # noqa: E731

#: exact samples, duplicates included: no rounding, so a law either
#: holds on them or it does not
SAMPLES = {
    "ints": [1, 5, -2, 5, 0],
    "fractions": [
        Fraction(1, 3), Fraction(-2, 5), Fraction(7), Fraction(1, 3)
    ],
    "strings": ["b", "", "ab", "b"],
}


def alias_algebra(alias):
    """The ``FOLD_ALIASES`` algebra of ``alias`` over sample arguments:
    ``fold`` gets a well-defined triple (a bag as its sorted tuple),
    ``exists`` / ``forall`` truthiness, and ``min_by`` / ``max_by``
    ``repr`` — a key injective on every sample family, as it must be:
    two distinct elements with equal keys make them non-commutative."""
    args = {
        "fold": (tuple, lambda x: (x,), lambda a, b: tuple(sorted(a + b))),
        "exists": (bool,),
        "forall": (bool,),
        "min_by": (repr,),
        "max_by": (repr,),
    }.get(alias, ())
    return FOLD_ALIASES[alias][1](*args)


def sample_families(alias):
    # ``+`` / ``*`` on strings raise or concatenate: not their carrier
    if alias in ("sum", "product"):
        return ("ints", "fractions")
    return tuple(SAMPLES)


class TestIndividualLaws:
    def test_addition_satisfies_all(self):
        samples = [0, 1, -3, 7]
        assert check_unit(ADD, 0, samples)
        assert check_associative(ADD, samples)
        assert check_commutative(ADD, samples)

    def test_subtraction_fails_associativity(self):
        samples = [1, 2, 3]
        assert not check_associative(SUB, samples)

    def test_subtraction_fails_commutativity(self):
        assert not check_commutative(SUB, [1, 2])

    def test_wrong_unit_detected(self):
        assert not check_unit(ADD, 1, [2, 3])

    def test_custom_equality(self):
        mul = lambda a, b: a * b  # noqa: E731
        samples = [0.1, 0.2, 0.7]
        assert check_associative(
            mul,
            samples,
            equal=lambda a, b: abs(a - b) < 1e-12,
        )


class TestWellDefinedness:
    @pytest.mark.parametrize("alias", sorted(FOLD_ALIASES))
    def test_catalogue_algebras_are_well_defined(self, alias):
        # every alias a program can run, not a catalogue beside them
        algebra = alias_algebra(alias)
        for family in sample_families(alias):
            assert check_fold_well_defined(
                algebra, SAMPLES[family], raise_on_failure=True
            ), family

    def test_a_key_with_ties_makes_min_by_non_commutative(self):
        by_length = FOLD_ALIASES["min_by"][1](len)
        assert not check_fold_well_defined(by_length, ["a", "b"])

    def test_list_append_fails_commutativity(self):
        append = FoldAlgebra(
            zero=tuple,
            singleton=lambda x: (x,),
            union=lambda a, b: a + b,
            name="append",
        )
        assert not check_fold_well_defined(append, [1, 2])

    def test_raise_on_failure_names_the_laws(self):
        bad = FoldAlgebra(
            zero=lambda: 0,
            singleton=lambda x: x,
            union=lambda a, b: a - b,
            name="sub",
        )
        with pytest.raises(FoldConditionError, match="sub"):
            check_fold_well_defined(bad, [1, 2], raise_on_failure=True)

    def test_empty_samples_trivially_pass(self):
        assert check_fold_well_defined(alias_algebra("sum"), [])


@given(st.lists(st.integers(min_value=-100, max_value=100), max_size=5))
def test_sum_always_well_defined(samples):
    assert check_fold_well_defined(alias_algebra("sum"), samples)


@given(
    st.lists(
        st.tuples(st.integers(), st.integers()), min_size=2, max_size=4
    )
)
def test_first_wins_union_violates_commutativity(samples):
    # "Keep the left value" is associative but not commutative; the
    # checker must flag it whenever two distinct partials exist.
    first = FoldAlgebra(
        zero=lambda: None,
        singleton=lambda x: x,
        union=lambda a, b: a if a is not None else b,
        name="first",
    )
    distinct = len({first.singleton(s) for s in samples}) > 1
    if distinct:
        assert not check_fold_well_defined(first, samples)
