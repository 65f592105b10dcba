"""The cost model's byte estimates: the per-type sizer table and the
per-bag size memo.

Every number the estimator produces feeds ``simulated_seconds``, so the
table must agree with the rule it replaced — an ``isinstance`` ladder,
kept here as the oracle — on every shape of record, and the memo must
size each partition list exactly once.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from collections import namedtuple
from typing import ClassVar

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engines.cluster as cluster
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig, PartitionedBag
from repro.engines.dfs import SimulatedDFS
from repro.engines.sizes import (
    estimate_bag_bytes,
    estimate_column_bytes,
    estimate_record_bytes,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.engines.spill import SpilledPartition
from repro.workloads import graphs
from repro.workloads.pagerank import pagerank


# -- the oracle ---------------------------------------------------------------


def ladder(value, depth=0):
    """The per-record rule as one ``isinstance`` ladder, in rule order.

    Slots are read over the whole MRO, and a string ``__slots__`` is one
    name.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if depth > 6:
        return 8
    if isinstance(value, (tuple, list)):
        return 8 + sum(ladder(v, depth + 1) for v in value)
    if isinstance(value, (set, frozenset)):
        return 8 + sum(ladder(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return 8 + sum(
            ladder(k, depth + 1) + ladder(v, depth + 1)
            for k, v in value.items()
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return 8 + sum(
            ladder(getattr(value, f.name), depth + 1)
            for f in dataclasses.fields(value)
        )
    slots = []
    for klass in type(value).__mro__:
        declared = klass.__dict__.get("__slots__", ())
        slots += [declared] if isinstance(declared, str) else list(declared)
    if slots:
        return 8 + sum(
            ladder(getattr(value, s), depth + 1)
            for s in set(slots)
            if hasattr(value, s)
        )
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return 8 + sum(ladder(v, depth + 1) for v in attrs.values())
    return 8


def ladder_bag(records, depth=0):
    """The ladder over a collection: a sampled 32-record prefix."""
    if len(records) <= 32:
        return sum(ladder(r, depth) for r in records)
    sample = sum(ladder(r, depth) for r in records[:32])
    return int(sample / 32 * len(records))


# -- record shapes ------------------------------------------------------------


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Name(str):
    pass


Pair = namedtuple("Pair", "left right")


@dataclasses.dataclass
class Row:
    UNIT: ClassVar[str] = "bytes"
    a: object
    b: object
    derived: object = dataclasses.field(init=False)

    def __post_init__(self):
        self.derived = (self.a, "d")


class Payload:
    __slots__ = "payload"

    def __init__(self, payload):
        self.payload = payload


class Base:
    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = a
        if b is not None:
            self.b = b


class Child(Base):
    __slots__ = ()


class Plain:
    def __init__(self, x, y):
        self.x = x
        self.y = y


def nest(value, levels):
    for _ in range(levels):
        value = [value]
    return value


hashables = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from(list(Color)),
    st.text(max_size=12).map(Name),
    st.text(max_size=12),
    st.binary(max_size=12),
)


def _compound(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.builds(Row, children, children),
        st.builds(Payload, children),
        st.builds(Base, children, st.none() | children),
        st.builds(Child, children, st.none() | children),
        st.builds(Plain, children, children),
        st.frozensets(hashables, max_size=4),
        st.sets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=3),
        st.tuples(children, st.integers(5, 9)).map(lambda t: nest(*t)),
    )


records = st.recursive(hashables, _compound, max_leaves=24)


class TestSizerTable:
    @settings(max_examples=400, deadline=None)
    @given(records)
    def test_table_equals_the_ladder(self, value):
        assert estimate_record_bytes(value) == ladder(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records, max_size=60))
    def test_bag_and_column_estimates_equal_the_ladder(self, values):
        assert estimate_bag_bytes(values) == ladder_bag(values)
        assert estimate_column_bytes(values) == ladder_bag(values, depth=1)

    def test_string_slots_name_one_slot(self):
        assert estimate_record_bytes(Payload("x" * 1000)) == 8 + 1004

    def test_inherited_slots_are_sized(self):
        assert estimate_record_bytes(Base("x" * 1000, 7)) == 1020
        assert estimate_record_bytes(Child("x" * 1000, 7)) == 1020

    def test_unset_slots_are_skipped(self):
        assert estimate_record_bytes(Base("abc")) == 8 + 7

    def test_bool_before_int_and_subclasses_by_base(self):
        assert estimate_record_bytes(True) == 1
        assert estimate_record_bytes(Color.RED) == 8
        assert estimate_record_bytes(Name("abcd")) == 8
        assert estimate_record_bytes(Pair(1, 2)) == 24


# -- the size memo ------------------------------------------------------------


class CountingEstimator:
    """Wraps ``estimate_bag_bytes``, keeping every sized list alive so
    that no ``id`` can be reused while the record is read."""

    def __init__(self, original):
        self.original = original
        self.sized = []

    def __call__(self, records):
        self.sized.append(records)
        return self.original(records)

    def ids(self):
        return [id(r) for r in self.sized]


def count_bag_sizing(monkeypatch):
    counter = CountingEstimator(cluster.estimate_bag_bytes)
    monkeypatch.setattr(cluster, "estimate_bag_bytes", counter)
    return counter


def engine(**kwargs):
    return SparkLikeEngine(cluster=ClusterConfig(num_workers=4), **kwargs)


class TestSizeMemo:
    def test_second_nbytes_sizes_nothing(self, monkeypatch):
        counter = count_bag_sizing(monkeypatch)
        bag = PartitionedBag.from_records(range(400), 4)
        first = bag.nbytes()
        assert len(counter.sized) == 4
        assert bag.nbytes() == first
        assert bag.partition_bytes() == [800] * 4
        assert len(counter.sized) == 4

    def test_replaced_slot_is_resized_alone(self, monkeypatch):
        counter = count_bag_sizing(monkeypatch)
        bag = PartitionedBag.from_records(range(400), 4)
        bag.nbytes()
        bag.partitions[2] = list(range(10))
        assert bag.partition_bytes()[2] == 80
        assert counter.ids()[4:] == [id(bag.partitions[2])]

    def test_spilled_slots_keep_their_bytes_and_reload_resizes(
        self, monkeypatch
    ):
        eng = engine(memory_budget=0)
        handle = eng.cache(DataBag(list(range(400))))
        before = handle.bag.partition_bytes()[:]
        counter = count_bag_sizing(monkeypatch)
        eng.configure_memory(512)
        spilled = [
            i
            for i, p in enumerate(handle.bag.partitions)
            if isinstance(p, SpilledPartition)
        ]
        assert spilled
        # A sentinel reports the bytes of the records it stands for.
        assert handle.bag.partition_bytes() == before
        assert counter.sized == []
        eng.spill.unspill_handle(handle)
        assert handle.bag.partition_bytes() == before
        assert counter.ids() == [id(handle.bag.partitions[i]) for i in spilled]

    def test_recovered_slots_are_resized_alone(self, monkeypatch):
        eng = engine()
        handle = eng.cache(DataBag(list(range(400))))
        before = handle.bag.partition_bytes()[:]
        lost = handle.mark_lost(1, 4)
        assert lost
        counter = count_bag_sizing(monkeypatch)
        assert sorted(eng.collect(handle)) == list(range(400))
        assert handle.bag.partition_bytes() == before
        assert counter.ids() == [id(handle.bag.partitions[i]) for i in lost]


def test_pagerank_sizes_no_list_twice():
    """One whole PageRank run: every list is sized at most once."""
    from repro.engines import sizes

    original = sizes.estimate_bag_bytes
    counter = CountingEstimator(original)
    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") and module is not None
        for name, value in list(vars(module).items())
        if value is original
    ]
    for module, name in bindings:
        setattr(module, name, counter)
    try:
        dfs = SimulatedDFS()
        graph = graphs.stage_follower_graph(dfs, num_vertices=200)
        eng = engine(dfs=dfs)
        ranks = pagerank.run(
            eng,
            graph_path=graph,
            num_pages=len(dfs.get(graph).records),
            max_iterations=4,
        )
        assert ranks.fetch()
    finally:
        for module, name in bindings:
            setattr(module, name, original)
    ids = counter.ids()
    assert ids
    assert len(ids) == len(set(ids))
