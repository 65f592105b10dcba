"""The one budgeted LRU store behind the spill tier and the plan cache.

A Hypothesis property drives :class:`~repro.engines.spill.BudgetedStore`
with random put / get / pin / end-job / set-limit sequences and checks
it against a reference model: a list of keys in last-touch order.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.spill import BudgetedStore

KEYS = 6


def group_of(key: tuple) -> tuple:
    return ("g", key[0] % 3)


class Model:
    """The reference: keys oldest-touch first, and who is resident."""

    def __init__(self) -> None:
        self.order: list[tuple] = []
        self.nbytes: dict[tuple, int] = {}
        self.resident: set[tuple] = set()
        self.pinned: set[tuple] = set()
        self.limit = 0
        self.evicted: list[tuple] = []

    def touch(self, key: tuple) -> None:
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)
        self.resident.add(key)

    def evict(self) -> None:
        while self.limit and self.usage() > self.limit:
            victims = [
                k
                for k in self.order
                if k in self.resident and group_of(k) not in self.pinned
            ]
            if not victims:
                return
            self.resident.discard(victims[0])
            self.evicted.append(victims[0])

    def usage(self) -> int:
        return sum(self.nbytes[k] for k in self.resident)


class Pickled:
    """A spill entry: eviction pickles the value, a reload unpickles it."""

    def __init__(self, log: list, pinned: set) -> None:
        self.log = log
        self.pinned = pinned

    def evict(self, entry):
        assert entry.group not in self.pinned, "evicted a pinned group"
        self.log.append(entry.key)
        return pickle.dumps(entry.value)

    def load(self, entry, buf):
        return pickle.loads(buf)


keys = st.tuples(st.integers(0, KEYS - 1))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, st.integers(1, 40)),
        st.tuples(st.just("get"), keys, st.booleans()),
        st.tuples(st.just("pin"), keys),
        st.tuples(st.just("end_job")),
        st.tuples(st.just("limit"), st.integers(0, 100)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_store_matches_the_lru_model(program):
    with tempfile.TemporaryDirectory() as tmp:
        files = iter(range(10**6))

        def write(buf: bytes, key: tuple) -> str:
            path = os.path.join(tmp, f"{next(files)}.bin")
            with open(path, "wb") as f:
                f.write(buf)
            return path

        store, model = BudgetedStore(write), Model()
        how = Pickled([], model.pinned)
        version = {}
        for op in program:
            if op[0] == "put":
                _, key, nbytes = op
                version[key] = version.get(key, 0) + 1
                model.nbytes[key] = nbytes
                model.touch(key)
                store.put(key, (key, version[key]), nbytes, how, group_of(key))
            elif op[0] == "get":
                _, key, pin = op
                known = key in model.nbytes
                if known:
                    model.touch(key)  # a reload re-charges the entry
                    if pin:
                        model.pinned.add(group_of(key))
                got = store.get(key, pin=pin)
                assert got == ((key, version[key]) if known else None)
            elif op[0] == "pin":
                model.pinned.add(group_of(op[1]))
                store.pin(group_of(op[1]))
            elif op[0] == "end_job":
                model.pinned.clear()
                store.end_job()
            else:
                model.limit = op[1]
                store.set_limit(op[1])
            model.evict()
            assert how.log == model.evicted
            assert store.usage == model.usage()
            resident = {e.key for e in store.entries() if e.value is not None}
            assert resident == model.resident
            # Every spilled entry has exactly one file, and only those.
            spilled = [e.path for e in store.entries() if e.value is None]
            assert sorted(os.listdir(tmp)) == sorted(
                os.path.basename(p) for p in spilled
            )


def test_write_through_entries_keep_their_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"blob")

    class WriteThrough:
        def evict(self, entry):
            return None

        def load(self, entry, buf):
            return buf

    store = BudgetedStore()
    store.put(("k",), b"blob", 4, WriteThrough(), path=str(path))
    store.set_limit(1)
    assert store.usage == 0 and ("k",) in store
    assert store.get(("k",)) == b"blob"
    assert path.exists()  # a reload keeps a write-through file
    store.discard(("k",))
    assert not path.exists() and ("k",) not in store


def test_value_with_no_file_is_forgotten_on_eviction():
    class Drop:
        def evict(self, entry):
            return None

    store = BudgetedStore()
    store.put(("batch",), object(), 10, Drop())
    store.set_limit(5)
    assert ("batch",) not in store and store.usage == 0
