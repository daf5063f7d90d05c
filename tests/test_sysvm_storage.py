"""Unit tests for the data store, activation records, and code store."""

import numpy as np
import pytest

from repro.errors import SysVMError
from repro.hardware import Machine, MachineConfig
from repro.sysvm import (
    ACTIVATION_BASE_WORDS,
    ARRAY_DESCRIPTOR_WORDS,
    ClusterCodeStore,
    CodeBlock,
    CodeRegistry,
    DataStore,
    Heap,
    allocate_record,
    record_size,
    release_record,
)


@pytest.fixture
def machine():
    return Machine(MachineConfig(n_clusters=2, pes_per_cluster=3,
                                 memory_words_per_cluster=10_000))


class TestDataStore:
    def test_register_reserves_memory(self, machine):
        store = DataStore(machine)
        data = np.ones((10, 10))
        h = store.register(data, cluster=1, owner_task=5)
        assert h.cluster == 1 and h.owner_task == 5
        assert h.shape == (10, 10) and h.size == 100
        assert machine.cluster(1).memory.used_words == 100 + ARRAY_DESCRIPTOR_WORDS

    def test_raw_returns_backing_array(self, machine):
        store = DataStore(machine)
        data = np.arange(6.0)
        h = store.register(data, 0)
        assert np.array_equal(store.raw(h), data)

    def test_drop_releases_memory(self, machine):
        store = DataStore(machine)
        h = store.register(np.ones(50), 0)
        store.drop(h)
        assert machine.cluster(0).memory.used_words == 0
        assert h not in store
        with pytest.raises(SysVMError):
            store.raw(h)

    def test_drop_owned_by(self, machine):
        store = DataStore(machine)
        store.register(np.ones(5), 0, owner_task=1)
        store.register(np.ones(5), 0, owner_task=1)
        keep = store.register(np.ones(5), 0, owner_task=2)
        assert store.drop_owned_by(1) == 2
        assert store.live_handles() == (keep,)

    def test_handle_ids_unique(self, machine):
        store = DataStore(machine)
        h1 = store.register(np.ones(1), 0)
        h2 = store.register(np.ones(1), 0)
        assert h1.array_id != h2.array_id


class TestActivationRecords:
    def test_record_size_includes_base_params_locals(self):
        size = record_size((1, 2.0), locals_words=10)
        assert size == ACTIVATION_BASE_WORDS + 1 + 2 + 10  # tuple adds a length word

    def test_allocate_and_release(self):
        heap = Heap(1000)
        rec = allocate_record(heap, 1, "t", 0, (1, 2), locals_words=8)
        assert heap.used_words() == rec.size_words
        assert rec.params == (1, 2)
        release_record(heap, rec)
        assert heap.used_words() == 0
        assert rec.released

    def test_double_release_rejected(self):
        heap = Heap(1000)
        rec = allocate_record(heap, 1, "t", 0, ())
        release_record(heap, rec)
        with pytest.raises(SysVMError):
            release_record(heap, rec)


class TestCode:
    def _gen(self, ctx):
        yield  # pragma: no cover

    def test_registry_define_get(self):
        reg = CodeRegistry()
        block = reg.define(CodeBlock("solver", self._gen, code_words=100))
        assert reg.get("solver") is block
        assert "solver" in reg
        assert reg.types() == ("solver",)

    def test_duplicate_type_rejected(self):
        reg = CodeRegistry()
        reg.define(CodeBlock("t", self._gen))
        with pytest.raises(SysVMError):
            reg.define(CodeBlock("t", self._gen))

    def test_unknown_type_rejected(self):
        with pytest.raises(SysVMError):
            CodeRegistry().get("nope")

    def test_non_callable_body_rejected(self):
        with pytest.raises(SysVMError):
            CodeBlock("t", body=42)

    def test_load_words(self):
        block = CodeBlock("t", self._gen, code_words=100, constants_words=20)
        assert block.load_words == 120

    def test_cluster_store_loads_once(self, machine):
        store = ClusterCodeStore(0, machine.cluster(0).memory)
        block = CodeBlock("t", self._gen, code_words=100, constants_words=0)
        assert not store.is_resident("t")
        store.load(block)
        store.load(block)  # idempotent
        assert store.is_resident("t")
        assert machine.cluster(0).memory.used_words == 100
