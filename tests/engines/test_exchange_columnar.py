"""The columnar exchange plane's static markers and cached batches.

``explain`` renders which exchanges the selection marked columnar, and
a batch cached for a bag at rest shares (never ships) its rows.  Whole
workloads across both exchange planes and every other physical knob —
including the skewed-key join — are checked by
``test_physical_lattice.py``; the exchange plane under a memory budget
alone is checked here on the same harness.
"""

import pickle

from repro.engines.cluster import ClusterConfig
from repro.engines.columnar import infer_schema
from repro.engines.dfs import SimulatedDFS
from repro.engines.executor import JobExecutor
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.combinators import CBagRef
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import tpch_q4
from tests.engines.test_physical_lattice import (
    assert_agrees,
    lattice_world,
    run_point,
)


def _config(exchange):
    return EmmaConfig(columnar_exchange=exchange, execution_mode="serial")


class TestExplainMarkers:
    """The static half of the selection is rendered by ``explain()``."""

    def test_q4_marks_columnar_exchanges(self):
        text = tpch_q4.explain(_config("on"))
        assert "exchange=columnar" in text

    def test_pagerank_marks_the_row_join(self):
        text = pagerank.explain(_config("on"))
        # The rank-contribution join stays on the row plane (nested
        # attribute key) while the aggregations exchange columnar.
        assert "exchange=row" in text
        assert "exchange=columnar" in text

    def test_off_config_leaves_plans_unmarked(self):
        text = tpch_q4.explain(_config("off"))
        assert "exchange=" not in text


class TestCachedBatchRows:
    """A full-width batch cached for a bag at rest hands back that
    bag's own partition lists from ``to_records`` (read-only, shared);
    projected batches and shipped copies rebuild fresh records."""

    def _cached(self, needed):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2), dfs=SimulatedDFS()
        )
        executor = JobExecutor(engine, {}, engine._new_job())
        bag = executor.parallelize_local(
            [(i % 3, float(i)) for i in range(10)]
        )
        schema, _reason = infer_schema(bag.partitions[0])
        batches = executor._source_batches(
            CBagRef(name="xs"), schema, needed, bag
        )
        assert sorted(batches) == list(range(bag.num_partitions))
        return bag, batches

    def test_full_width_batch_shares_the_partition_list(self):
        bag, batches = self._cached(None)
        for i, batch in batches.items():
            assert batch.rows is bag.partitions[i]
            assert batch.to_records() is bag.partitions[i]

    def test_projected_batch_has_no_rows(self):
        _bag, batches = self._cached(frozenset({0}))
        assert all(batch.rows is None for batch in batches.values())

    def test_rows_never_ship(self):
        bag, batches = self._cached(None)
        for i, batch in batches.items():
            shipped = pickle.loads(pickle.dumps(batch))
            assert shipped.rows is None
            rebuilt = shipped.to_records()
            assert rebuilt == bag.partitions[i]
            assert rebuilt is not bag.partitions[i]


class TestBudgetedRunsBitIdentical:
    """The 16 KiB driver budget forces shuffle state — columnar batches
    included — through the spill store; reloads take the same lineage
    path as resident partitions, so the squeeze plus the exchange plane
    must still change nothing observable."""

    def test_pagerank_under_budget(self, run_point):
        # Against the budgeted row-plane run: only the plane differs.
        # The oracle also demands spills, reloads and columnar exchanges.
        assert_agrees(run_point, "pagerank", "00110", base="00010")

    def test_budgeted_matches_unbudgeted(self, run_point):
        # Against a run with no budget at all: the contract is transitive.
        assert_agrees(run_point, "pagerank", "00110")
