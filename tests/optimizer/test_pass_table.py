"""The pass table and the knob declarations, checked against each other.

``PASSES`` is the compiler; ``EmmaConfig`` declares per field whether it
is a plan knob or a runtime knob.  These tests walk both: every field is
classified exactly once and behaves like its class, every gate names a
plan knob, the driver calls the passes by their module-level names, and
``docs/optimizer.md`` lists the table as it is.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.engines.dfs import SimulatedDFS
from repro.engines.faults import FaultPlan, RetryPolicy
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer import pipeline
from repro.optimizer.fingerprint import PLAN_KNOBS, plan_fingerprint
from repro.optimizer.pipeline import PASSES, EmmaConfig, compile_program
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch import stage_tpch, tpch_q1

FIELDS = {f.name: f for f in dataclasses.fields(EmmaConfig)}

#: plan knobs that gate no row: each is a parameter of the named pass
PASS_PARAMETERS = {
    "unnesting": "normalize",
    "filter_pushdown": "lower",
    "columnar": "vectorize-chain",
    "columnar_exchange": "vectorize-chain",
}

#: a value other than the default for every runtime knob, and where the
#: engine shows it
RUNTIME_SAMPLES = {
    "fault_plan": (
        FaultPlan.aggressive(),
        lambda e: e.faults and e.faults.plan,
    ),
    "retry_policy": (RetryPolicy(max_attempts=7), lambda e: e.retry_policy),
    "checkpoint_interval": (3, lambda e: e.checkpoint_interval),
    "tracing": (True, lambda e: e.tracer is not None),
    "execution_mode": ("processes", lambda e: e.execution_mode),
    "max_parallel_tasks": (2, lambda e: e.max_parallel_tasks),
    "memory_budget": (65536, lambda e: e.spill.limit),
}


def _toggled(name: str) -> EmmaConfig:
    value = getattr(EmmaConfig(), name)
    if name in RUNTIME_SAMPLES:
        return EmmaConfig(**{name: RUNTIME_SAMPLES[name][0]})
    if isinstance(value, bool):
        return EmmaConfig(**{name: not value})
    return EmmaConfig(**{name: "off" if value != "off" else "on"})


class TestEveryFieldIsClassifiedOnce:
    @pytest.mark.parametrize("name", FIELDS)
    def test_field_behaves_like_its_class(self, name):
        kind = FIELDS[name].metadata.get("knob")
        assert kind in ("plan", "runtime"), f"{name} declares no class"
        program = tpch_q1.lifted.program
        moved = plan_fingerprint(program, _toggled(name)) != plan_fingerprint(
            program, EmmaConfig()
        )
        rows = [p.rule for p in PASSES if p.knob == name]
        if kind == "plan":
            assert moved, f"plan knob {name} must change the fingerprint"
            assert name in PLAN_KNOBS
            assert len(rows) + (name in PASS_PARAMETERS) == 1, (
                f"{name} must gate one row or be a documented parameter"
            )
        else:
            assert not moved, f"runtime knob {name} changed the fingerprint"
            assert name not in PLAN_KNOBS and not rows
            assert name in RUNTIME_SAMPLES

    def test_plan_knobs_are_the_plan_fields_in_order(self):
        assert PLAN_KNOBS == tuple(
            n for n, f in FIELDS.items() if f.metadata["knob"] == "plan"
        )
        assert len(FIELDS) == 18 and len(PLAN_KNOBS) == 11

    def test_pass_parameters_name_real_rows(self):
        rules = {p.rule for p in PASSES}
        assert set(PASS_PARAMETERS.values()) <= rules


class TestRuntimeKnobs:
    @pytest.mark.parametrize("name", RUNTIME_SAMPLES)
    def test_apply_runtime_config_applies_it_and_nothing_else(self, name):
        engine = SparkLikeEngine(execution_mode="serial", memory_budget=0)
        before = {n: show(engine) for n, (_, show) in RUNTIME_SAMPLES.items()}
        value = RUNTIME_SAMPLES[name][0]
        engine.apply_runtime_config(EmmaConfig(**{name: value}))
        after = {n: show(engine) for n, (_, show) in RUNTIME_SAMPLES.items()}
        assert after == {**before, name: value}

    def test_unset_runtime_knobs_default_to_none(self):
        config = EmmaConfig()
        for name in RUNTIME_SAMPLES:
            if name != "tracing":
                assert getattr(config, name) is None, name

    def test_checkpoint_interval_can_go_back_to_zero(self):
        engine = SparkLikeEngine(checkpoint_interval=5)
        engine.apply_runtime_config(EmmaConfig(checkpoint_interval=0))
        assert engine.checkpoint_interval == 0

    def test_a_config_does_not_reset_what_it_does_not_mention(self):
        # The reproduction of ISSUE 22: a config that only toggles a
        # Table 1 row used to put the engine back on the environment's
        # budget and mode.
        dfs = SimulatedDFS()
        _orders, lineitem_path = stage_tpch(dfs, sf=0.02, seed=3)
        engine = SparkLikeEngine(
            dfs=dfs,
            memory_budget=65536,
            execution_mode="processes",
            max_parallel_tasks=2,
            columnar="off",
        )
        tpch_q1.run(
            engine,
            config=EmmaConfig(fold_group_fusion=False),
            lineitem_path=lineitem_path,
            ship_date_max="1998-09-02",
        )
        assert engine.spill.limit == 65536
        assert engine.execution_mode == "processes"
        assert engine.max_parallel_tasks == 2
        assert engine.metrics.parallel_tasks > 0

    def test_explain_header_only_when_the_config_sets_the_knob(self):
        assert "-- execution:" not in tpch_q1.explain(EmmaConfig())
        assert "-- memory:" not in tpch_q1.explain(EmmaConfig())
        text = tpch_q1.explain(
            EmmaConfig(
                execution_mode="processes",
                max_parallel_tasks=2,
                memory_budget=4096,
            )
        )
        assert "-- execution: mode=processes max-task-width=2 --" in text
        assert "-- memory: budget=4096B" in text


class TestTheTable:
    def test_every_gate_is_a_plan_knob(self):
        for p in PASSES:
            assert p.knob is None or p.knob in PLAN_KNOBS, p.rule

    def test_rules_are_unique(self):
        rules = [p.rule for p in PASSES]
        assert len(set(rules)) == len(rules) == 12

    def test_folds_name_report_fields(self):
        report = pipeline.OptimizationReport()
        for p in PASSES:
            for fold in p.folds.split():
                assert hasattr(report, fold.partition("=")[0]), fold

    @pytest.mark.parametrize(
        "name", ["fold_group_fusion", "chain_operators", "annotate_physical"]
    )
    def test_passes_are_called_by_module_level_name(self, monkeypatch, name):
        # benchmarks/e2e/spans.py attributes compile time by patching
        # these names on the pipeline module: the table must look them
        # up when the pass runs, not when the table is built.
        original = getattr(pipeline, name)
        calls = []

        def patched(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, patched)
        compiled = compile_program(pagerank.lifted.program, EmmaConfig())
        assert len(calls) == compiled.report.dataflow_sites > 0


def test_the_handbook_lists_the_table():
    """``docs/optimizer.md`` opens with the passes in table order, each
    with the knob that gates it."""
    text = (
        Path(__file__).parents[2] / "docs" / "optimizer.md"
    ).read_text()
    rows = []
    for line in text.split("\n## ")[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and "`" in cells[1]:
            gate = re.findall(r"`(\w+)`", cells[2])
            rows.append(
                (cells[0], re.findall(r"`([\w-]+)`", cells[1])[0],
                 gate[0] if gate else None)
            )
    assert rows == [(p.phase, p.rule, p.knob) for p in PASSES]
