"""Ablation — union- vs insert-representation folds (paper §2.2/§6).

The paper argues for bags in *union* representation because their folds
are always partial-aggregation-legal: the combining function is
associative-commutative by the well-definedness conditions, so partial
results can be computed per partition and merged ("ship the partial
sums instead of the partial bags").  Insert-representation folds
(``foldr``) impose a sequential evaluation order — a system built on
them must ship and concatenate the *data* before folding (cf. the
Steno discussion in Related Work).

This micro-benchmark measures both the real wall-clock of the two
evaluation strategies (pytest-benchmark's own timing) and the bytes a
distributed engine would have to move: partials vs full partitions.
"""

import pytest

from repro.algebra.adt import ins_tree_of
from repro.algebra.fold import FOLD_ALIASES, fold_ins_tree
from repro.engines.sizes import estimate_record_bytes

N = 40_000
PARTITIONS = 16


@pytest.fixture(scope="module")
def partitions():
    return [
        list(range(i, N, PARTITIONS)) for i in range(PARTITIONS)
    ]


def test_union_fold_ships_partials(benchmark, partitions):
    algebra = FOLD_ALIASES["sum"][1]()

    def run():
        partials = [algebra(p) for p in partitions]
        return algebra.merge(partials), partials

    total, partials = benchmark(run)
    assert total == sum(range(N))
    shipped = sum(estimate_record_bytes(p) for p in partials)
    # One number per partition crosses the network.
    assert shipped <= PARTITIONS * 8


def test_insert_fold_ships_data(benchmark, partitions):
    def run():
        # foldr needs a single sequential evaluation: materialize all
        # partitions in one place first (the shipped bytes), then fold.
        everything = [x for p in partitions for x in p]
        tree = ins_tree_of(everything)
        return fold_ins_tree(0, lambda x, acc: x + acc, tree), everything

    total, everything = benchmark(run)
    assert total == sum(range(N))
    shipped = len(everything) * 8
    # The full dataset crosses the network — orders of magnitude more.
    assert shipped > 1000 * PARTITIONS * 8
