"""The ``>>>`` examples in the library's docstrings run as written."""

import doctest
import importlib
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def modules_with_examples():
    """Dotted names of the ``repro`` modules whose source holds ``>>> ``."""
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>> " not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_docstring_examples_pass():
    names = modules_with_examples()
    assert names, "no module of the package has a docstring example"
    failed = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        if result.failed:
            failed[name] = f"{result.failed} of {result.attempted}"
    assert not failed, f"failing docstring examples: {failed}"
