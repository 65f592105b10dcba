"""The columnar batch plane must actually engage, and say so.

A synthetic scan chain squarely in the vectorizable subset must compile
to a vector kernel when the plane is on (and only then), with the row
plane's results and simulated costs; ``explain`` must name each chain's
plane.  Whole workloads across both planes and every other physical
knob are checked by ``test_physical_lattice.py``.
"""

import pytest

from repro.api import DataBag, parallelize
from repro.engines.cluster import ClusterConfig
from repro.engines.columnar import HAS_NUMPY
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig

MODES = ("serial", "processes")


@parallelize
def scan_chain(xs: DataBag):
    """A scan-heavy fused chain squarely in the vectorizable subset."""
    ys = [(x * 2.0 + 1.0, x * x) for x in xs if x > 4.0]
    zs = [y[0] + y[1] / 2.0 for y in ys if y[0] < 150.0]
    return zs


@parallelize
def row_only_chain(xs: DataBag):
    """A chain the selection rule must keep on the row plane."""
    ys = [y for x in xs for y in [x, x + 1.0]]
    return [y * 2.0 for y in ys if y > 3.0]


def _config(plane, mode):
    return EmmaConfig(
        columnar=plane, execution_mode=mode, max_parallel_tasks=2
    )


class TestColumnarPlaneEngages:
    """The synthetic scan chain actually vectorizes."""

    DATA = [float(i) for i in range(200)]

    def _run(self, plane, mode):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            execution_mode=mode,
            max_parallel_tasks=2,
        )
        out = scan_chain.run(
            engine, config=_config(plane, mode), xs=DataBag(self.DATA)
        )
        return [repr(r) for r in out.fetch()], engine.metrics

    @pytest.mark.parametrize("mode", MODES)
    def test_vector_kernel_runs(self, mode):
        rows_off, m_off = self._run("off", mode)
        rows_on, m_on = self._run("on", mode)
        assert rows_on == rows_off
        assert m_off.columnar_kernels == 0
        assert m_off.columnar_batches_built == 0
        assert m_on.columnar_kernels > 0
        assert m_on.columnar_batches_built > 0
        assert m_on.simulated_seconds == m_off.simulated_seconds
        assert m_on.element_ops == m_off.element_ops
        assert m_on.udf_invocations == m_off.udf_invocations

    def test_auto_plane_follows_numpy(self):
        rows, metrics = self._run("auto", "serial")
        if HAS_NUMPY:
            assert metrics.columnar_kernels > 0
        else:
            assert metrics.columnar_kernels == 0

    def test_explain_annotates_planes(self):
        on = _config("on", "serial")
        assert "| columnar" in scan_chain.explain(on)
        assert "| row" in row_only_chain.explain(on)
        trace = row_only_chain.explain(on, trace=True)
        assert "flat-map requires row-at-a-time emission" in trace

    def test_row_chain_still_bit_identical(self):
        engine_off = SparkLikeEngine()
        engine_on = SparkLikeEngine()
        bag = DataBag(self.DATA)
        out_off = row_only_chain.run(
            engine_off, config=_config("off", "serial"), xs=bag
        )
        out_on = row_only_chain.run(
            engine_on, config=_config("on", "serial"), xs=bag
        )
        assert [repr(r) for r in out_on.fetch()] == [
            repr(r) for r in out_off.fetch()
        ]
        assert (
            engine_on.metrics.simulated_seconds
            == engine_off.metrics.simulated_seconds
        )
