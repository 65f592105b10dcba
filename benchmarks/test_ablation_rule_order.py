"""Ablation — the Figure 3a rule order (filter pushdown first).

The lowering state machine tries Filter before EqJoin before Cross,
"ensuring that filters are pushed down as much as possible in the
constructed dataflow tree".  Disabling the pushdown state (an
``EmmaConfig`` ablation knob) leaves single-generator predicates as
residual filters *above* the join, so the join shuffles unfiltered
inputs — measurably more bytes and time on a selective query.
"""

from dataclasses import dataclass

from conftest import run_once

from repro.api import DataBag, parallelize
from repro.engines.dfs import SimulatedDFS
from repro.experiments.runner import bench_cost_model, make_engine
from repro.optimizer.pipeline import EmmaConfig


@dataclass(frozen=True)
class Fact:
    key: int
    flag: int
    payload: str


@dataclass(frozen=True)
class Dim:
    key: int
    name: str


@parallelize
def selective_join(facts: DataBag, dims: DataBag):
    matches = (
        (f.payload, d.name)
        for f in facts
        for d in dims
        if f.flag == 1
        if f.key == d.key
    )
    return matches.count()


PUSHDOWN = EmmaConfig(caching=False, partition_pulling=False)
# The UDF-aware reordering pass pushes the very same filter back below
# the join, so the ablation arm has to switch it off too.
NO_PUSHDOWN = EmmaConfig(
    caching=False,
    partition_pulling=False,
    filter_pushdown=False,
    udf_reordering="off",
)


def _run_both():
    facts = DataBag(
        Fact(key=i % 500, flag=1 if i % 20 == 0 else 0, payload="p" * 40)
        for i in range(8000)
    )
    dims = DataBag(Dim(key=i, name=f"d{i}") for i in range(500))
    outcomes = {}
    for label, config in (
        ("pushdown", PUSHDOWN),
        ("no-pushdown", NO_PUSHDOWN),
    ):
        engine = make_engine(
            "spark",
            SimulatedDFS(),
            num_workers=8,
            cost=bench_cost_model(),
            broadcast_join_threshold=0,
        )
        count = selective_join.run(
            engine, config=config, facts=facts, dims=dims
        )
        outcomes[label] = {
            "count": count,
            "shuffle_bytes": engine.metrics.shuffle_bytes,
            "seconds": engine.metrics.simulated_seconds,
        }
    return outcomes


def test_filter_pushdown_reduces_shuffle(benchmark):
    outcomes = run_once(benchmark, _run_both)
    print()
    for label, stats in outcomes.items():
        print(
            f"{label:12} count={stats['count']} "
            f"shuffle={stats['shuffle_bytes']}B "
            f"t={stats['seconds']:.4f}s"
        )
    # Same answer either way ...
    assert outcomes["pushdown"]["count"] == outcomes["no-pushdown"]["count"]
    # ... but pushdown joins 5% of the facts instead of all of them.
    assert (
        outcomes["no-pushdown"]["shuffle_bytes"]
        > 5 * outcomes["pushdown"]["shuffle_bytes"]
    )
    assert (
        outcomes["no-pushdown"]["seconds"]
        > outcomes["pushdown"]["seconds"]
    )
