"""Unit tests for the data block: a fragment of its extent run's row.

A data block (Section III.A) is four doubles of its run's packed row —
size, entry time, last access and stamp — with the file name, the dirty
flag and the storage held once by the run.
"""

import tracemalloc

import pytest

from lru_rows import Fragment, fragment, fragments
from repro import File, Simulation, SimulationConfig
from repro.des import Environment
from repro.errors import CacheConsistencyError
from repro.pagecache import MemoryManager
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.lru import LRUList, PageCacheLists
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.simulator.workflow import chain_workflow
from repro.units import GB, MB, GiB, MBps


class TestBlockConstruction:
    def test_fields(self):
        lru = LRUList()
        lru.push("file1", True, "disk0", 100 * MB, 5.0, 5.0)
        (run,) = lru.runs()
        assert (run.filename, run.dirty, run.storage) == ("file1", True,
                                                          "disk0")
        assert fragment(run, run.head) == Fragment("file1", 100 * MB, 5.0,
                                                   5.0, True)

    def test_last_access_defaults_to_entry_time(self, env, memory_manager,
                                                disk):
        # Newly cached data was last accessed when it entered the cache.
        env._now = 3.0
        memory_manager.add_to_cache("f", 1.0, disk)
        assert fragments(memory_manager.lists.inactive) == [
            Fragment("f", 1.0, 3.0, 3.0, False)]

    def test_explicit_last_access(self):
        lru = LRUList()
        lru.push("f", False, None, 1.0, 3.0, 7.0)
        assert fragments(lru) == [Fragment("f", 1.0, 3.0, 7.0, False)]

    def test_non_positive_size_rejected(self, memory_manager, disk):
        # The cache makes no fragment of a non-positive size, and the
        # consistency check rejects one written into a row.
        for amount in (0, -5):
            memory_manager.add_to_cache("f", amount, disk)
        assert memory_manager.lists.fragment_count == 0
        lru = LRUList()
        lru.push("f", False, None, 1.0, 0.0, 0.0)
        (run,) = lru.runs()
        run.row[run.head] = -5.0
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()


class TestBlockBehaviour:
    def test_touch_updates_last_access_only(self, env, memory_manager, disk):
        # A re-read moves a dirty fragment to the active list with a new
        # last access and its entry time.
        mm = memory_manager
        mm.add_to_cache("big", 100.0, disk)  # keeps balance from demoting
        env._now = 1.0
        mm.put_to_cache("f", 10.0, disk)
        env._now = 9.0
        mm.take_from_cache("f", 10.0)
        assert fragments(mm.lists.active) == [
            Fragment("f", 10.0, 1.0, 9.0, True)]

    def test_split_sizes_and_metadata(self):
        # Balancing demotes exactly 30 bytes of the 100-byte fragment:
        # both parts keep its entry time, last access, state and storage.
        lists = PageCacheLists()
        lists.inactive.push("i", False, "disk0", 5.0, 0.0, 0.0)
        lists.active.push("f", True, "disk0", 100.0, 2.0, 5.0)
        assert lists.balance() == 30.0
        assert fragments(lists.inactive, "f") == [
            Fragment("f", 30.0, 2.0, 5.0, True)]
        assert fragments(lists.active) == [
            Fragment("f", 70.0, 2.0, 5.0, True)]
        for lru in (lists.inactive, lists.active):
            (run,) = [run for run in lru.runs() if run.filename == "f"]
            assert run.storage == "disk0"

    def test_split_conserves_size(self, memory_manager, disk):
        memory_manager.put_to_cache("f", 123.456, disk)
        memory_manager.select_flush(23.456)
        first, second = fragments(memory_manager.lists.inactive)
        assert first.size == 23.456
        assert first.size + second.size == pytest.approx(123.456)

    def test_invalid_split_points(self, memory_manager, disk):
        # A flush of the fragment's size or more takes it whole, and one
        # of no bytes takes nothing: only a point inside it splits it.
        mm = memory_manager
        for point in (0.0, -1.0, 100.0, 150.0):
            mm.put_to_cache("f", 100.0, disk)
            mm.select_flush(point)
            assert [f.size for f in fragments(mm.lists.inactive)] == [100.0]
            mm.invalidate_file("f")

    def test_repr_mentions_dirty_state(self):
        lru = LRUList()
        lru.push("f", True, None, 1.0, 0.0, 0.0)
        lru.push("f", False, None, 1.0, 0.0, 0.0)
        states = {run.dirty: repr(run) for run in lru.runs()}
        assert "dirty" in states[True]
        assert "clean" in states[False]


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

    def test_bytes_per_fragment_a_flusher_pass_holds(self):
        # One pass of the periodic flusher marks every expired dirty
        # fragment and holds the marks across its writes: 20,000
        # fragments in 10 runs, the shape of a paper-scale pass.  A
        # first, untraced scan warms the interpreter as above.
        def fill():
            lru = LRUList()
            for index in range(20000):
                lru.push(f"file{index % 10}", True, None, 4 * MB, 0.0,
                         float(index))
            return lru

        fill().expired_blocks(now=30.0, expiration=30.0)
        lru = fill()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            marks = lru.expired_blocks(now=30.0, expiration=30.0)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(marks) == 20000
        # About 155 bytes on Python 3.9-3.13: a three-slot mark, its two
        # floats, its entry in its run's dict and its slot in the pass's
        # list (344-360 bytes when the pass held a weakly registered
        # Block per fragment).
        assert growth / len(marks) <= 175
