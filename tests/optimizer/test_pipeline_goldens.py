"""The compiler's output, pinned: 8 shipped programs x 13 config points.

``pipeline_goldens.json.gz`` holds, for every shipped program under
``EmmaConfig.all()``, ``EmmaConfig.none()`` and each plan knob switched
off on its own, the ``explain(trace=True)`` text, the plan fingerprint,
the ``OptimizationReport`` counters and ``trace.fired_rules()``.  It was
captured before the pipeline became a pass table and must not move when
the pipeline's *structure* changes.  It is gzipped because 104
provenance reports are 0.8 MB of text no one should have to grep past.
Regenerate (only when a pass's behaviour changes on purpose) with::

    PYTHONPATH=src python tests/optimizer/test_pipeline_goldens.py
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import re
from pathlib import Path

import pytest

from repro.optimizer.fingerprint import PLAN_KNOBS
from repro.optimizer.pipeline import EmmaConfig, compile_program
from repro.workloads.connected_components import connected_components
from repro.workloads.kmeans import kmeans, kmeans_assign
from repro.workloads.pagerank import pagerank
from repro.workloads.spam import select_classifier
from repro.workloads.tpch import tpch_q1, tpch_q4, tpch_q4_udf

GOLDENS = Path(__file__).with_name("pipeline_goldens.json.gz")


@functools.lru_cache(maxsize=None)
def load_goldens() -> dict:
    with gzip.open(GOLDENS, "rt", encoding="utf-8") as fh:
        return json.load(fh)


PROGRAMS = {
    a.name: a
    for a in (
        tpch_q1,
        tpch_q4,
        tpch_q4_udf,
        pagerank,
        connected_components,
        kmeans,
        kmeans_assign,
        select_classifier,
    )
}

#: the plane knobs are pinned to "auto" so the goldens do not depend on
#: REPRO_COLUMNAR / REPRO_COLUMNAR_EXCHANGE
_BASE = dict(columnar="auto", columnar_exchange="auto")


def _off(knob: str) -> dict:
    value = getattr(EmmaConfig(**_BASE), knob)
    return {knob: False if isinstance(value, bool) else "off"}


CONFIGS = {
    "all": EmmaConfig(**_BASE),
    "none": dataclasses.replace(
        EmmaConfig.none(), columnar="auto", columnar_exchange="auto"
    ),
    **{
        f"{knob}=off": EmmaConfig(**{**_BASE, **_off(knob)})
        for knob in PLAN_KNOBS
    },
}

_FRESH_NAME = re.compile(r"_v\d+")


def canonical(text: str) -> str:
    """Compiler-generated names (``_v7``) numbered by first use: they
    come from a process-wide counter and are the only thing in which
    two compiles of one program differ."""
    names: dict[str, str] = {}
    return _FRESH_NAME.sub(
        lambda m: names.setdefault(m.group(0), f"_v{len(names)}"), text
    )


def snapshot(program: str, config: str) -> dict:
    """What one compile produced, JSON-ready."""
    compiled = compile_program(
        PROGRAMS[program].lifted.program, CONFIGS[config]
    )
    report = {}
    for f in dataclasses.fields(compiled.report):
        value = getattr(compiled.report, f.name)
        if f.name == "config":
            continue
        if f.name == "cache_decisions":
            value = [f"{d.name}: {d.reason}" for d in value]
        elif f.name == "partition_keys":
            value = {k: canonical(v.describe()) for k, v in value.items()}
        report[f.name] = value
    return {
        "explain": canonical(compiled.explain(trace=True)),
        "fingerprint": compiled.fingerprint,
        "report": report,
        "fired_rules": compiled.trace.fired_rules(),
    }


def test_grid_is_eight_programs_by_thirteen_configs():
    golden = load_goldens()
    assert len(PROGRAMS) == 8 and len(CONFIGS) == 13
    assert sorted(golden) == sorted(
        f"{p} @ {c}" for p in PROGRAMS for c in CONFIGS
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_compile_output_matches_golden(program, config):
    golden = load_goldens()[f"{program} @ {config}"]
    got = snapshot(program, config)
    assert got.keys() == golden.keys()
    for part in golden:
        assert got[part] == golden[part], part


if __name__ == "__main__":
    grid = {f"{p} @ {c}": snapshot(p, c) for p in PROGRAMS for c in CONFIGS}
    text = json.dumps(grid, indent=1, ensure_ascii=False, sort_keys=True)
    # mtime=0: the same goldens always produce the same bytes.
    with gzip.GzipFile(GOLDENS, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
