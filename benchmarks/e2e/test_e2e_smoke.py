"""Smoke test of the end-to-end benchmark itself.

Run with ``pytest benchmarks/e2e`` (outside tier-1's ``testpaths``).
Everything runs at the ``tiny`` scale (sf 0.1, 120 vertices, 120
points) for a second per pass, so it checks the harness, not the
numbers.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import SCALES, WORKLOADS, Q4Join  # noqa: E402

SEED = 31


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_named_metric(workload):
    timed = _run(workload, 0)
    traced = _run(workload, 1)
    assert {n: m["unit"] for n, m in timed["metrics"].items()} == (
        layers.END_TO_END_UNITS
    )
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == (
        layers.PER_LAYER_UNITS
    )
    for result in (timed, traced):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 3
        assert all(
            math.isfinite(m["value"]) for m in result["metrics"].values()
        )
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    assert traced["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    trace_file = os.path.join(HERE, "out", f"trace_{workload}.jsonl")
    with open(trace_file, encoding="utf-8") as lines:
        header = json.loads(next(lines))["header"]
        first = json.loads(next(lines))
    assert header["workload"] == workload and header["seed"] == SEED
    assert set(first) == {
        "id", "name", "start", "end", "parent", "job_id", "thread"
    }  # fmt: skip


def test_wrong_reference_fails_every_job(tmp_path):
    wl = Q4Join()
    wl.prepare(SEED, SCALES["tiny"], str(tmp_path))
    wl.expected.append(("0-NO SUCH PRIORITY", 1))
    wl.warm_up()
    result = harness.timed_pass(wl, 0.2)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]


def _wrapped_objects() -> list:
    """Every patched attribute, on its owner and on by-name importers."""
    found = []
    for _metric, module_name, attr in spans.WRAPS:
        owner = importlib.import_module(module_name)
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        found.append(vars(owner)[attr.split(".")[-1]])
    # ``repro.frontend.parallelize`` the attribute is the decorator; the
    # module of that name is what imported ``lift_function``.
    pipeline = importlib.import_module("repro.optimizer.pipeline")
    parallelize = sys.modules["repro.frontend.parallelize"]
    found += [pipeline.lower, pipeline.normalize, parallelize.lift_function]
    return found


def test_tracer_restores_originals_when_a_job_raises(tmp_path):
    wl = Q4Join()
    wl.setup(SEED, SCALES["tiny"], str(tmp_path))
    before = _wrapped_objects()
    tracer = spans.Tracer()
    with pytest.raises(Exception, match="no such DFS file"):
        with tracer:
            assert all(
                a is not b for a, b in zip(before, _wrapped_objects())
            )
            wl.params["orders_path"] = "data/missing"
            wl.job(0, 0)
    assert tracer.spans, "the failing job was traced up to the raise"
    after = _wrapped_objects()
    assert all(a is b for a, b in zip(before, after))


def test_self_times_add_up_to_the_root_span(tmp_path):
    wl = Q4Join()
    wl.setup(SEED, SCALES["tiny"], str(tmp_path))
    tracer = spans.Tracer()
    tally = harness.Tally()
    rounds = harness.Rounds(wl)
    for i in range(3):
        rounds.run(i, tally, tracer=tracer)
    assert tally.attempted == 3 and tally.failed == 0
    for i in range(3):
        job = [s for s in tracer.spans if s[spans.JOB] == f"0:{i}"]
        roots = [s for s in job if s[spans.PARENT] is None]
        assert [r[spans.NAME] for r in roots] == [
            "frontend.parallelize.Algorithm.run"
        ]
        root_seconds = roots[0][spans.END] - roots[0][spans.START]
        total = sum(spans.self_seconds(job).values())
        assert total == pytest.approx(root_seconds, rel=0.01)
        # Outside-in: the executor's own loops are one honest bucket.
        assert "engines.executor.JobExecutor.run_bag" in {
            s[spans.NAME] for s in job
        }
