"""Tests for repro.resil.store: one suite for both Store backends, and
the StageCheckpointer that keeps checkpoint loads private on both."""

import os
import pickle

import pytest

from repro.resil import DirectoryStore, MemoryStore, StageCheckpointer

BACKENDS = {
    "MemoryStore": lambda root, **budget: MemoryStore(**budget),
    "DirectoryStore": lambda root, **budget: DirectoryStore(root, **budget),
}


@pytest.fixture(params=list(BACKENDS))
def make_store(request, tmp_path):
    """A factory for stores of one backend; directory stores share a root."""
    backend = BACKENDS[request.param]
    return lambda **budget: backend(tmp_path / "store", **budget)


class TestBothBackends:
    def test_hit_miss_accounting(self, make_store):
        store = make_store()
        assert store.get("k") is None
        store.put("k", {"n": 1})
        assert store.get("k") == {"n": 1}
        assert (store.hits, store.misses, store.evictions) == (1, 1, 0)

    def test_unbounded_by_default(self, make_store):
        store = make_store()
        for index in range(10):
            store.put(f"k{index}", index)
        assert store.evictions == 0
        assert store.keys() == [f"k{index}" for index in range(10)]

    def test_lru_eviction_order(self, make_store):
        store = make_store(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")  # refresh a: b is now the coldest
        store.put("c", 3)
        assert store.keys() == ["a", "c"]
        assert store.evictions == 1
        assert store.get("b") is None

    def test_eviction_strictly_follows_recency_order(self, make_store):
        store = make_store(max_entries=3)
        for key in ("a", "b", "c"):
            store.put(key, key)
        for key in ("c", "b", "a"):  # reversed recency
            store.get(key)
        store.put("d", "d")  # evicts c (coldest)
        store.put("e", "e")  # evicts b
        assert store.keys() == ["a", "d", "e"]
        assert store.evictions == 2

    def test_entry_just_written_survives_going_over_budget(self, make_store):
        store = make_store(max_entries=1)
        store.put("old", 1)
        store.put("new", 2)
        assert store.keys() == ["new"]
        assert store.get("new") == 2

    def test_zero_max_entries_rejected(self, make_store):
        with pytest.raises(ValueError):
            make_store(max_entries=0)


class TestMemoryStore:
    def test_get_returns_the_stored_instance(self):
        store = MemoryStore()
        produced = {"gds": b"\x00\x01"}
        store.put("k", produced)
        assert store.get("k") is produced
        assert store.get("k") is store.get("k")

    def test_pickles_as_an_empty_store(self):
        store = MemoryStore(max_entries=5)
        for index in range(3):
            store.put(f"k{index}", list(range(1000)))
        store.get("k0")
        copy = pickle.loads(pickle.dumps(store))
        assert isinstance(copy, MemoryStore)
        assert copy.keys() == []
        assert (copy.hits, copy.misses, copy.evictions) == (0, 0, 0)
        assert copy.max_entries == 5
        assert len(pickle.dumps(store)) < 200
        # The original keeps its entries.
        assert store.keys() == ["k1", "k2", "k0"]


class TestDirectoryStore:
    def test_entries_persist_across_instances(self, tmp_path):
        DirectoryStore(tmp_path).put("k", {"xs": [1, 2]})
        again = DirectoryStore(tmp_path)
        first = again.get("k")
        assert first == {"xs": [1, 2]}
        first["xs"].append(3)
        assert again.get("k") == {"xs": [1, 2]}  # every read is a copy
        assert again.get("missing") is None
        assert sorted(os.listdir(tmp_path)) == ["k.pkl"]

    def test_max_bytes_counts_file_sizes(self, tmp_path):
        value = list(range(100))
        probe = DirectoryStore(tmp_path / "probe")
        probe.put("a", value)
        size = os.path.getsize(tmp_path / "probe" / "a.pkl")
        store = DirectoryStore(tmp_path / "store", max_bytes=2 * size)
        for key in ("a", "b", "c"):
            store.put(key, value)
        assert store.keys() == ["b", "c"]
        assert store.evictions == 1

    def test_inherited_entries_are_evicted_first_in_mtime_order(
        self, tmp_path
    ):
        earlier = DirectoryStore(tmp_path)
        for key, mtime in (("x", 3000), ("y", 1000), ("z", 2000)):
            earlier.put(key, key)
            os.utime(tmp_path / f"{key}.pkl", (mtime, mtime))
        store = DirectoryStore(tmp_path, max_entries=4)
        assert store.keys() == ["y", "z", "x"]  # inherited: mtime order
        store.get("z")  # touched here: hotter than any inherited entry
        store.put("n1", 1)
        store.put("n2", 2)  # evicts y, the oldest inherited entry
        store.put("n3", 3)  # evicts x, though newer on disk than z
        assert store.keys() == ["z", "n1", "n2", "n3"]
        assert store.evictions == 2


class TestStageCheckpointer:
    def test_loads_are_private_copies(self, make_store):
        store = make_store()
        artifact = {"xs": [1, 2]}
        ckpt = StageCheckpointer(store, "key")
        ckpt.save("placement", artifact)
        artifact["xs"].append(99)  # the producer mutates after saving
        loaded = ckpt.load("placement")
        assert loaded == {"xs": [1, 2]}
        loaded["xs"].append(3)
        assert ckpt.load("placement") == {"xs": [1, 2]}
        assert ckpt.load("routing") is None
        assert store.keys() == ["key.placement"]

    def test_resume_false_loads_nothing(self, make_store):
        store = make_store()
        StageCheckpointer(store, "key").save("synthesis", [1.5])
        ckpt = StageCheckpointer(store, "key", resume=False)
        assert ckpt.load("synthesis") is None
        assert (store.hits, store.misses) == (0, 0)
        ckpt.save("routing", [2.5])  # saving still happens
        assert store.keys() == ["key.synthesis", "key.routing"]
