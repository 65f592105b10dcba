"""The two-level fingerprint cache: persistence, eviction, integrity.

Covers the cache in isolation (store/lookup/evict/corrupt) and wired
into ``Algorithm.run`` through ``Engine.attach_plan_cache`` — the
in-process equivalent of the cross-driver warm start CI exercises via
``REPRO_PLAN_CACHE_DIR``.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.metrics import Metrics
from repro.engines.plancache import (
    PlanCache,
    default_plan_cache,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.fingerprint import plan_fingerprint, snapshot_fingerprint
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.tpch.datagen import stage_tpch
from repro.workloads.tpch.q1 import tpch_q1

Q1_PARAMS = {"ship_date_max": "1996-12-01"}


@pytest.fixture
def world():
    dfs = SimulatedDFS()
    _, lineitem = stage_tpch(dfs, sf=0.01, seed=7)
    return {"dfs": dfs, "lineitem": lineitem}


def fresh_engine(world, cache):
    engine = SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4), dfs=world["dfs"]
    )
    engine.attach_plan_cache(cache)
    return engine


def run_q1(world, cache, config=None):
    engine = fresh_engine(world, cache)
    result = tpch_q1.run(
        engine,
        config=config,
        lineitem_path=world["lineitem"],
        **Q1_PARAMS,
    )
    return engine, result


class TestPlanCaching:
    def test_cold_then_warm(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        eng1, r1 = run_q1(world, cache)
        assert cache.stats.plan_misses == 1
        assert eng1.metrics.plan_cache_misses == 1
        eng2, r2 = run_q1(world, cache)
        assert cache.stats.plan_hits == 1
        assert eng2.metrics.plan_cache_hits == 1
        assert eng2.metrics.compile_seconds_saved > 0
        assert repr(r1) == repr(r2)
        assert "plan_cache=1/1" in eng2.metrics.summary()

    def test_survives_fresh_cache_instance(self, world, tmp_path):
        # A new PlanCache over the same directory simulates a fresh
        # driver process: the plan must load from disk, not recompile.
        cache1 = PlanCache(cache_dir=str(tmp_path))
        _, r1 = run_q1(world, cache1)
        cache2 = PlanCache(cache_dir=str(tmp_path))
        _, r2 = run_q1(world, cache2)
        assert cache2.stats.plan_hits == 1
        assert cache2.stats.plan_misses == 0
        assert cache2.stats.disk_loads == 1
        assert repr(r1) == repr(r2)

    def test_loaded_plan_explains_its_origin(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        run_q1(world, cache)
        compiled = cache.compiled(tpch_q1, EmmaConfig())
        assert compiled.cache_origin == "plan-cache"
        assert "source=plan-cache" in compiled.explain()
        assert f"fingerprint={compiled.fingerprint[:12]}" in (
            compiled.explain()
        )

    def test_config_change_misses(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        run_q1(world, cache, config=EmmaConfig())
        run_q1(
            world, cache, config=EmmaConfig(operator_chaining=False)
        )
        assert cache.stats.plan_misses == 2
        assert cache.stats.plan_hits == 0

    def test_corrupt_file_is_a_miss(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        run_q1(world, cache)
        (pkl,) = [
            p for p in os.listdir(tmp_path) if p.startswith("plan-")
        ]
        with open(tmp_path / pkl, "wb") as f:
            f.write(b"not a pickle")
        cache2 = PlanCache(cache_dir=str(tmp_path))
        _, result = run_q1(world, cache2)
        # Fell back to a fresh compile, then re-cached.
        assert cache2.stats.plan_misses == 1
        assert result is not None
        _, again = run_q1(world, cache2)
        assert cache2.stats.plan_hits >= 1

    def test_flipped_bit_is_a_miss_not_a_wrong_answer(self, tmp_path):
        PlanCache(cache_dir=str(tmp_path)).store_result("fp", "snap", 12345)
        path = tmp_path / "result-fp-snap.pkl"
        blob = bytearray(path.read_bytes())
        blob[blob.rfind((12345).to_bytes(2, "little"))] ^= 1
        path.write_bytes(bytes(blob))
        cache = PlanCache(cache_dir=str(tmp_path))
        assert cache.lookup_result("fp", "snap") == (False, None)
        assert not path.exists()  # the corrupt file is removed

    def test_old_format_file_is_a_miss(self, tmp_path):
        path = tmp_path / "result-fp-snap.pkl"
        path.write_bytes(pickle.dumps(("value", 1)))
        cache = PlanCache(cache_dir=str(tmp_path))
        assert cache.lookup_result("fp", "snap") == (False, None)
        assert not path.exists()

    def test_vanished_file_is_forgotten(self, tmp_path):
        PlanCache(cache_dir=str(tmp_path)).store_result("fp", "snap", 1)
        cache = PlanCache(cache_dir=str(tmp_path))
        assert ("result", "fp", "snap") in cache._store
        os.remove(tmp_path / "result-fp-snap.pkl")
        assert cache.lookup_result("fp", "snap") == (False, None)
        assert ("result", "fp", "snap") not in cache._store


class TestResultCaching:
    def test_round_trip_returns_fresh_value(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        _, r1 = run_q1(world, cache)
        fp = plan_fingerprint(tpch_q1.lifted.program, EmmaConfig())
        assert cache.store_result(fp, "snap", r1)
        hit, value = cache.lookup_result(fp, "snap")
        assert hit
        assert repr(value) == repr(r1)
        assert value is not r1  # decoded copy, never the stored object

    def test_miss_on_unknown_snapshot(self, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        hit, value = cache.lookup_result("fp", "snap")
        assert not hit and value is None
        assert cache.stats.result_misses == 1

    def test_unpicklable_store_skipped(self, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        assert not cache.store_result("fp", "snap", lambda x: x)
        assert cache.stats.store_skips == 1
        hit, _ = cache.lookup_result("fp", "snap")
        assert not hit

    def test_inputs_the_partition_hash_confuses_never_share_a_result(
        self, tmp_path
    ):
        # set(), {0} and {0, 1, 2, 3} hash alike for placement; as
        # result keys they are three inputs with three results
        cache = PlanCache(cache_dir=str(tmp_path))
        fp = plan_fingerprint(tpch_q1.lifted.program, EmmaConfig())
        cache.store_result(fp, snapshot_fingerprint({"k": set()}), "empty")
        for other in ({0}, {0, 1, 2, 3}):
            snap = snapshot_fingerprint({"k": other})
            assert cache.lookup_result(fp, snap) == (False, None)
        snap = snapshot_fingerprint({"k": set()})
        assert cache.lookup_result(fp, snap) == (True, "empty")


class TestEviction:
    def test_memory_limit_drops_to_disk_tier(self, world, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        _, r1 = run_q1(world, cache)
        fp = plan_fingerprint(tpch_q1.lifted.program, EmmaConfig())
        cache.store_result(fp, "snap", r1)
        assert cache.resident_bytes() > 1024
        cache.set_memory_limit(1024)
        assert cache.resident_bytes() <= 1024
        assert cache.stats.evictions >= 1
        # Evicted entries are still servable — hits reload the files
        # (the plan blob is the big one, so it was evicted first).
        hit, value = cache.lookup_result(fp, "snap")
        assert hit and repr(value) == repr(r1)
        assert cache.lookup_plan(fp) is not None
        assert cache.stats.disk_loads >= 1

    def test_engine_budget_bounds_cache(self, world, tmp_path):
        # attach_plan_cache adopts the engine's spill budget when the
        # cache has no limit of its own (PR 7 discipline).
        cache = PlanCache(cache_dir=str(tmp_path))
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            dfs=world["dfs"],
            memory_budget=262144,
        )
        engine.attach_plan_cache(cache)
        assert cache.memory_limit == 262144

    def test_config_budget_bounds_attached_cache(self, world, tmp_path):
        # The job service attaches its cache first and only then runs
        # with the submission's EmmaConfig(memory_budget=...).
        cache = PlanCache(cache_dir=str(tmp_path))
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            dfs=world["dfs"],
            memory_budget=0,
        )
        engine.attach_plan_cache(cache)
        tpch_q1.run(
            engine,
            config=EmmaConfig(memory_budget=4096),
            lineitem_path=world["lineitem"],
            **Q1_PARAMS,
        )
        assert cache.memory_limit == 4096
        assert cache.resident_bytes() <= 4096
        assert cache.stats.evictions >= 1

    def test_every_eviction_reaches_the_run_metrics(self, world, tmp_path):
        # Evictions made while storing the plan count too, not only
        # those made by set_memory_limit.
        cache = PlanCache(cache_dir=str(tmp_path))
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4),
            dfs=world["dfs"],
            memory_budget=4096,
        )
        engine.attach_plan_cache(cache)
        tpch_q1.run(engine, lineitem_path=world["lineitem"], **Q1_PARAMS)
        assert cache.stats.evictions >= 1
        assert engine.metrics.cache_entries_evicted == cache.stats.evictions

    def test_result_store_evictions_reach_the_metrics(self, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path), memory_limit=1)
        metrics = Metrics()
        assert cache.store_result("fp", "snap", [1, 2, 3], metrics=metrics)
        assert metrics.cache_entries_evicted == cache.stats.evictions == 1


class TestConcurrentStats:
    def test_no_lookup_is_lost(self, tmp_path):
        cache = PlanCache(cache_dir=str(tmp_path))
        cache.store_result("plan", "hit", [1, 2, 3])
        threads, rounds = 16, 300

        def lookups():
            for i in range(rounds):
                cache.lookup_result("plan", "hit" if i % 2 else "miss")
                cache.lookup_plan("absent")
                cache.store_result("plan", "skip", lambda: None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lookups) for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        stats, total = cache.stats, threads * rounds
        assert stats.result_hits + stats.result_misses == total
        assert stats.plan_misses == total
        assert stats.store_skips == total

    def test_each_eviction_counts_for_the_call_that_made_it(self, tmp_path):
        # Under a 1-byte limit every store evicts exactly its own blob;
        # each thread's metrics must see exactly its own evictions.
        cache = PlanCache(cache_dir=str(tmp_path), memory_limit=1)
        threads, rounds = 8, 50
        metrics = [Metrics() for _ in range(threads)]

        def stores(i):
            for r in range(rounds):
                cache.store_result("plan", f"{i}x{r}", r, metrics=metrics[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=stores, args=(i,))
                for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [m.cache_entries_evicted for m in metrics] == [rounds] * threads
        assert cache.stats.evictions == threads * rounds


class TestEnvironmentDefault:
    def test_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_CACHE_DIR", raising=False)
        assert default_plan_cache() is None

    def test_env_enables_shared_cache(
        self, world, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path))
        cache = default_plan_cache()
        assert cache is not None
        assert default_plan_cache() is cache  # singleton per dir
        # Engines with no explicitly attached cache pick it up in run.
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4), dfs=world["dfs"]
        )
        tpch_q1.run(
            engine, lineitem_path=world["lineitem"], **Q1_PARAMS
        )
        assert engine.metrics.plan_cache_misses == 1
        engine2 = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=4), dfs=world["dfs"]
        )
        tpch_q1.run(
            engine2, lineitem_path=world["lineitem"], **Q1_PARAMS
        )
        assert engine2.metrics.plan_cache_hits == 1
