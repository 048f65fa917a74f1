"""Unit tests for files and the file registry."""

import pytest

from repro.errors import FileNotFoundInSimulation
from repro.filesystem import File, FileRegistry
from repro.units import GB


class TestFile:
    def test_fields(self):
        file = File("data.bin", 20 * GB)
        assert file.name == "data.bin"
        assert file.size == 20 * GB

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            File("", 10)
        with pytest.raises(ValueError):
            File("x", -1)

    def test_zero_size_allowed(self):
        assert File("empty", 0).size == 0.0

    def test_equality_and_hash(self):
        a = File("f", 10)
        b = File("f", 10)
        c = File("f", 20)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_repr_contains_size(self):
        assert "20.00 GB" in repr(File("f", 20 * GB))


class TestFileRegistry:
    def test_add_and_lookup(self):
        registry = FileRegistry()
        file = File("f", 10)
        registry.add_entry(file, "service-a")
        assert registry.exists(file)
        assert registry.lookup(file) == ["service-a"]
        assert registry.primary_location(file) == "service-a"
        assert registry.file_by_name("f") == file
        assert len(registry) == 1

    def test_duplicate_entries_not_added_twice(self):
        registry = FileRegistry()
        file = File("f", 10)
        registry.add_entry(file, "svc")
        registry.add_entry(file, "svc")
        assert registry.lookup(file) == ["svc"]

    def test_multiple_locations(self):
        registry = FileRegistry()
        file = File("f", 10)
        registry.add_entry(file, "svc-a")
        registry.add_entry(file, "svc-b")
        assert registry.lookup(file) == ["svc-a", "svc-b"]
        assert registry.primary_location(file) == "svc-a"

    def test_remove_entry(self):
        registry = FileRegistry()
        file = File("f", 10)
        registry.add_entry(file, "svc")
        registry.remove_entry(file, "svc")
        assert not registry.exists(file)
        with pytest.raises(FileNotFoundInSimulation):
            registry.primary_location(file)

    def test_remove_unknown_entry_is_noop(self):
        registry = FileRegistry()
        registry.remove_entry(File("f", 10), "svc")

    def test_missing_file(self):
        registry = FileRegistry()
        missing = File("nope", 1)
        assert not registry.exists(missing)
        assert registry.lookup(missing) == []
        assert registry.file_by_name("nope") is None

    def test_known_files(self):
        registry = FileRegistry()
        a, b = File("a", 1), File("b", 2)
        registry.add_entry(a, "svc")
        registry.add_entry(b, "svc")
        assert set(f.name for f in registry.known_files()) == {"a", "b"}

