"""Unit tests for the data-block abstraction."""

import tracemalloc

import pytest

from repro import File, Simulation, SimulationConfig
from repro.des import Environment
from repro.pagecache import MemoryManager
from repro.pagecache.block import Block
from repro.pagecache.config import PageCacheConfig
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.simulator.workflow import chain_workflow
from repro.units import GB, MB, GiB, MBps


class TestBlockConstruction:
    def test_fields(self):
        block = Block("file1", 100 * MB, entry_time=5.0, dirty=True)
        assert block.filename == "file1"
        assert block.size == 100 * MB
        assert block.entry_time == 5.0
        assert block.last_access == 5.0
        assert block.dirty is True

    def test_last_access_defaults_to_entry_time(self):
        block = Block("f", 1.0, entry_time=3.0)
        assert block.last_access == 3.0

    def test_explicit_last_access(self):
        block = Block("f", 1.0, entry_time=3.0, last_access=7.0)
        assert block.last_access == 7.0

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            Block("f", 0, entry_time=0.0)
        with pytest.raises(ValueError):
            Block("f", -5, entry_time=0.0)


class TestBlockBehaviour:
    def test_touch_updates_last_access_only(self):
        block = Block("f", 10.0, entry_time=1.0)
        block.touch(9.0)
        assert block.last_access == 9.0
        assert block.entry_time == 1.0

    def test_split_sizes_and_metadata(self):
        block = Block("f", 100.0, entry_time=2.0, last_access=5.0, dirty=True,
                      storage="disk0")
        first, second = block.split(30.0)
        assert first.size == 30.0
        assert second.size == 70.0
        for part in (first, second):
            assert part.filename == "f"
            assert part.entry_time == 2.0
            assert part.last_access == 5.0
            assert part.dirty is True
            assert part.storage == "disk0"

    def test_split_conserves_size(self):
        block = Block("f", 123.456, entry_time=0.0)
        first, second = block.split(23.456)
        assert first.size + second.size == pytest.approx(block.size)

    def test_invalid_split_points(self):
        block = Block("f", 100.0, entry_time=0.0)
        for point in (0.0, -1.0, 100.0, 150.0):
            with pytest.raises(ValueError):
                block.split(point)

    def test_repr_mentions_dirty_state(self):
        assert "dirty" in repr(Block("f", 1.0, entry_time=0.0, dirty=True))
        assert "clean" in repr(Block("f", 1.0, entry_time=0.0, dirty=False))


def _three_file_chain():
    """A chain over three 1 GB files in 1 MB chunks, all cached in 64 GiB."""
    sim = Simulation(config=SimulationConfig(
        page_cache=PageCacheConfig(periodic_flushing=False,
                                   chunk_size=1 * MB),
        trace_interval=None,
    ))
    sim.create_cluster_platform(1, with_nfs_server=False, memory_size=64 * GiB)
    svc = sim.create_storage_service("node1", "/local")
    files = [File(f"f{i}", 1 * GB) for i in range(3)]
    sim.stage_file(files[0], svc)
    sim.submit_workflow(chain_workflow("app", files, [0.0, 0.0]),
                        host="node1", storage=svc)
    return sim, svc.memory_manager.lists


class TestFragmentFootprint:
    def test_bytes_per_cached_fragment(self):
        # The run leaves 3,000 fragments in 3 runs; what it leaves
        # allocated is their cost.  A first, untraced run warms the
        # interpreter's lazily allocated per-code caches (Python 3.9 and
        # 3.10 allocate them on a function's first hot calls).
        _three_file_chain()[0].run()
        sim, lists = _three_file_chain()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.run()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (lists.fragment_count, lists.run_count) == (3000, 3)
        # About 36.5-37.3 bytes on Python 3.9-3.13: the fragment's four
        # doubles in its run's packed row and the row's over-allocation
        # (139-141 bytes when each fragment was a Block in a row of
        # objects).
        assert growth / lists.fragment_count <= 42

    def test_bytes_per_one_fragment_run(self):
        # Many files of one chunk each, the shape of sched-dispatch's
        # small inputs: every cached file is a run holding one fragment,
        # so the run and its index entries cost more than the fragment.
        # A first, untraced pass warms the interpreter as above.
        def fill():
            env = Environment()
            memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps,
                                            size=64 * GiB)
            disk = Disk.symmetric(env, "ssd", 100 * MBps)
            mm = MemoryManager(env, memory,
                               PageCacheConfig(periodic_flushing=False))
            names = [f"file{index}" for index in range(2000)]
            return mm, disk, names

        mm, disk, names = fill()
        for name in names:
            mm.add_to_cache(name, 16 * MB, disk)
        mm, disk, names = fill()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for name in names:
                mm.add_to_cache(name, 16 * MB, disk)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        lists = mm.lists
        assert (lists.fragment_count, lists.run_count) == (2000, 2000)
        # About 360-382 bytes on Python 3.9-3.13: the run, its one-fragment
        # row and the per-file index entries (553-575 bytes when the run
        # also held a row of objects, a stamp array and the Block).
        assert growth / lists.fragment_count <= 400
