"""Unit tests for the data-block abstraction."""

import pytest

from repro.pagecache.block import Block
from repro.units import MB


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

    def test_ids_are_unique(self):
        a = Block("f", 1.0, entry_time=0.0)
        b = Block("f", 1.0, entry_time=0.0)
        assert a.id != b.id


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
