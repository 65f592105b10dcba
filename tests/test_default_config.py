"""The default configuration: row engine, and plan knobs checked early.

Both columnar planes are opt-in.  At ``EmmaConfig()`` no shipped
program selects a columnar chain or exchange, and a default run builds
no batch.  The planes stay reachable through ``"on"`` / ``"auto"`` and
through ``REPRO_COLUMNAR`` / ``REPRO_COLUMNAR_EXCHANGE``.  None of this
needs numpy: ``"on"`` runs the pure-Python column fallback.

String plan knobs are validated when the config is built, not when a
job first runs: a typo must not pay for a compile, and must not turn a
pass on by accident.
"""

from __future__ import annotations

import pytest

from repro.engines.dfs import SimulatedDFS
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError
from repro.optimizer.fingerprint import PLAN_KNOBS
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.connected_components import connected_components
from repro.workloads.kmeans import kmeans, kmeans_assign
from repro.workloads.pagerank import pagerank
from repro.workloads.spam import select_classifier
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4, tpch_q4_udf

SHIPPED = (
    tpch_q1,
    tpch_q4,
    tpch_q4_udf,
    pagerank,
    connected_components,
    kmeans,
    kmeans_assign,
    select_classifier,
)

PLANE_VARS = ("REPRO_COLUMNAR", "REPRO_COLUMNAR_EXCHANGE")


@pytest.fixture
def no_plane_env(monkeypatch):
    """The library defaults, whatever the surrounding job exports."""
    for var in PLANE_VARS:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def _q4(config: EmmaConfig | None = None):
    """One tiny-scale serial ``tpch_q4`` job: (result, engine)."""
    dfs = SimulatedDFS()
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.1, seed=7)
    engine = SparkLikeEngine(dfs=dfs)
    kwargs = dict(
        orders_path=orders_path,
        lineitem_path=lineitem_path,
        date_min="1994-01-01",
        date_max="1994-07-01",
    )
    if config is not None:
        kwargs["config"] = config
    return tpch_q4.run(engine, **kwargs), engine


class TestRowEngineIsTheDefault:
    def test_config_planes_default_off(self, no_plane_env):
        config = EmmaConfig()
        assert config.columnar == "off"
        assert config.columnar_exchange == "off"

    def test_engine_planes_default_off(self, no_plane_env):
        engine = SparkLikeEngine()
        assert engine.columnar_mode == "off"
        assert engine.columnar_exchange_mode == "off"

    @pytest.mark.parametrize("algo", SHIPPED, ids=lambda a: a.name)
    def test_no_program_selects_a_plane(self, no_plane_env, algo):
        report = algo.report(EmmaConfig())
        assert report.columnar_chains == 0
        assert report.columnar_exchanges == 0

    def test_default_run_builds_no_batch(self, no_plane_env):
        result, engine = _q4()
        metrics = engine.metrics
        assert result.fetch()
        assert metrics.columnar_batches_built == 0
        assert metrics.columnar_kernels == 0
        assert (
            metrics.columnar_shuffles
            + metrics.columnar_joins
            + metrics.columnar_groups
        ) == 0

    def test_planes_on_agree_with_default(self, no_plane_env):
        rows, row_engine = _q4()
        cols, col_engine = _q4(
            EmmaConfig(columnar="on", columnar_exchange="on")
        )
        # the opt-in planes really ran ...
        assert col_engine.metrics.columnar_batches_built > 0
        # ... and changed nothing but the wall clock
        assert repr(cols.fetch()) == repr(rows.fetch())
        assert (
            col_engine.metrics.simulated_seconds
            == row_engine.metrics.simulated_seconds
        )

    def test_env_override_still_works(self, no_plane_env):
        no_plane_env.setenv("REPRO_COLUMNAR", "auto")
        no_plane_env.setenv("REPRO_COLUMNAR_EXCHANGE", "on")
        config = EmmaConfig()
        assert config.columnar == "auto"
        assert config.columnar_exchange == "on"


class TestPlanKnobValidation:
    """Each string plan knob is rejected at ``EmmaConfig(...)``."""

    def test_columnar_rejected_before_compile(self):
        with pytest.raises(EngineError, match="columnar mode 'ON'"):
            EmmaConfig(columnar="ON")

    def test_columnar_exchange_rejected_before_compile(self):
        with pytest.raises(EngineError, match="exchange mode 'yes'"):
            EmmaConfig(columnar_exchange="yes")

    def test_udf_reordering_rejected(self):
        with pytest.raises(EngineError, match="udf_reordering"):
            EmmaConfig(udf_reordering="no")

    @pytest.mark.parametrize("value", ["no", "off", 0, 1, None])
    def test_bool_knob_rejects_non_bool(self, value):
        # Read as on by the compiler, "no" would compile the pass in.
        with pytest.raises(EngineError, match="fold_group_fusion"):
            EmmaConfig(fold_group_fusion=value)

    def test_golden_points_still_build(self):
        assert EmmaConfig.none().label() == "baseline"
        for knob in PLAN_KNOBS:
            value = getattr(EmmaConfig(), knob)
            off = False if isinstance(value, bool) else "off"
            assert getattr(EmmaConfig(**{knob: off}), knob) == off

    @pytest.mark.parametrize("value", ["auto", "off"])
    def test_udf_reordering_accepted(self, value):
        assert EmmaConfig(udf_reordering=value).udf_reordering == value

    @pytest.mark.parametrize("value", [True, False])
    def test_udf_reordering_rejects_bool(self, value):
        # A bool selects the same plan as its string but would key a
        # plan-cache entry of its own.
        with pytest.raises(EngineError, match="udf_reordering"):
            EmmaConfig(udf_reordering=value)

    def test_env_typo_rejected(self, no_plane_env):
        no_plane_env.setenv("REPRO_COLUMNAR_EXCHANGE", "yes")
        with pytest.raises(EngineError, match="REPRO_COLUMNAR_EXCHANGE"):
            EmmaConfig()

    @pytest.mark.parametrize("mode", ["auto", "on", "off"])
    def test_plane_modes_accepted(self, mode):
        config = EmmaConfig(columnar=mode, columnar_exchange=mode)
        assert (config.columnar, config.columnar_exchange) == (mode, mode)
