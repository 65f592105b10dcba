"""Plan and snapshot fingerprints: identity, invalidation, stability.

The regression that matters most: every *plan-affecting* config knob
must invalidate the plan fingerprint (a stale cached plan compiled
with different optimizations would silently serve the wrong plan),
while runtime-only knobs must *not* (one cached plan serves every
backend because results are bit-identical across them).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.databag import DataBag
from repro.engines.cluster import stable_hash
from repro.engines.dfs import SimulatedDFS
from repro.optimizer.fingerprint import (
    PLAN_KNOBS,
    plan_fingerprint,
    snapshot_fingerprint,
    value_digest,
)
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch.q1 import tpch_q1


class TestPlanFingerprint:
    def test_deterministic(self):
        cfg = EmmaConfig()
        a = plan_fingerprint(tpch_q1.lifted.program, cfg)
        b = plan_fingerprint(tpch_q1.lifted.program, cfg)
        assert a == b
        assert len(a) == 64  # hex sha256

    def test_distinguishes_programs(self):
        cfg = EmmaConfig()
        assert plan_fingerprint(
            tpch_q1.lifted.program, cfg
        ) != plan_fingerprint(pagerank.lifted.program, cfg)

    @pytest.mark.parametrize("knob", PLAN_KNOBS)
    def test_every_plan_knob_invalidates(self, knob):
        base = EmmaConfig()
        current = getattr(base, knob)
        if isinstance(current, bool):
            flipped = dataclasses.replace(base, **{knob: not current})
        else:
            # String-valued knobs (udf_reordering, columnar,
            # columnar_exchange) toggle between "off" and an on-mode.
            flipped = dataclasses.replace(
                base, **{knob: "off" if current != "off" else "on"}
            )
        assert plan_fingerprint(
            tpch_q1.lifted.program, base
        ) != plan_fingerprint(tpch_q1.lifted.program, flipped)

    def test_udf_reordering_columnar_physical_regression(self):
        # The knobs that have historically gated whole compile passes
        # each get an explicit regression pin.  Each is toggled away
        # from its default; the planes' default ("off") is pinned so
        # that REPRO_COLUMNAR* set to "on" cannot make a toggle a no-op.
        base = EmmaConfig(columnar="off", columnar_exchange="off")
        fp = plan_fingerprint(tpch_q1.lifted.program, base)
        for knob, value in (
            ("udf_reordering", "off"),
            ("columnar", "on"),
            ("columnar_exchange", "on"),
            ("physical_planning", False),
        ):
            toggled = dataclasses.replace(base, **{knob: value})
            assert (
                plan_fingerprint(tpch_q1.lifted.program, toggled) != fp
            ), f"toggling {knob} must invalidate the plan cache"

    def test_runtime_knobs_preserve(self):
        # Execution mode, memory budget, and tracing change *how* a
        # plan runs, never *what* was compiled: same fingerprint, so a
        # plan cached under one backend warms every other.
        base = EmmaConfig()
        fp = plan_fingerprint(tpch_q1.lifted.program, base)
        for change in (
            {"execution_mode": "processes"},
            {"memory_budget": 262144},
            {"tracing": True},
            {"max_parallel_tasks": 2},
        ):
            varied = dataclasses.replace(base, **change)
            assert (
                plan_fingerprint(tpch_q1.lifted.program, varied) == fp
            ), f"runtime knob {change} must not invalidate the plan cache"


class TestSnapshotFingerprint:
    def test_path_content_sensitivity(self):
        dfs = SimulatedDFS()
        dfs.put("data/in", [1, 2, 3])
        a = snapshot_fingerprint({"path": "data/in"}, dfs=dfs)
        dfs.put("data/in", [1, 2, 4])
        b = snapshot_fingerprint({"path": "data/in"}, dfs=dfs)
        assert a is not None and b is not None
        # Re-staging different records at the same path invalidates.
        assert a != b

    def test_values_the_partition_hash_confuses_are_different_inputs(self):
        # one 32-bit placement hash for all three; three snapshots here,
        # as parameters, inside bags and inside staged files alike
        sets = [set(), {0}, {0, 1, 2, 3}]
        assert len({stable_hash(s) for s in sets}) == 1
        dfs = SimulatedDFS()
        seen = set()
        for s in sets:
            dfs.put("data/in", [s])
            seen.add(snapshot_fingerprint({"k": s}))
            seen.add(snapshot_fingerprint({"k": DataBag([s])}))
            seen.add(snapshot_fingerprint({"path": "data/in"}, dfs=dfs))
        assert None not in seen and len(seen) == 9

    def test_the_format_tag_retires_earlier_keys(self):
        # no inputs: under the earlier scheme the payload was ``()``,
        # and only the format tag can tell this key from that one
        earlier = hashlib.sha256(repr(()).encode("utf-8")).hexdigest()
        assert snapshot_fingerprint({}) != earlier

    def test_plain_value_params(self):
        a = snapshot_fingerprint({"k": 3, "eps": 0.5})
        b = snapshot_fingerprint({"k": 3, "eps": 0.5})
        c = snapshot_fingerprint({"k": 4, "eps": 0.5})
        assert a == b != c

    def test_captured_environment_included(self):
        base = snapshot_fingerprint({}, captured={"damping": 0.85})
        other = snapshot_fingerprint({}, captured={"damping": 0.5})
        assert base != other

    def test_unstable_inputs_are_uncacheable(self):
        # A lambda has no cross-process identity: the whole snapshot
        # must refuse to fingerprint rather than guess.
        assert (
            snapshot_fingerprint({"fn": lambda x: x}) is None
        )
        assert snapshot_fingerprint({"obj": object()}) is None

    def test_workload_captured_env_fingerprints(self):
        # Both benchmark workloads capture module-level helpers
        # (formats, dataclasses, constants) — all must digest.
        for algo in (tpch_q1, pagerank):
            assert (
                snapshot_fingerprint({}, captured=algo.lifted.captured)
                is not None
            ), f"{algo.name} captured environment must be cacheable"


class TestValueDigest:
    def test_named_function_digests(self):
        digest = value_digest(len)
        assert digest is not None and digest[0] == "fn"

    def test_class_digests(self):
        digest = value_digest(SimulatedDFS)
        assert digest == (
            "type",
            "repro.engines.dfs",
            "SimulatedDFS",
        )

    def test_nested_containers(self):
        value = {"a": [1, (2, 3)], "b": SimulatedDFS}
        assert value_digest(value) is not None

    def test_foreign_objects_refused(self):
        class Foreign:
            pass

        assert value_digest(Foreign()) is None
