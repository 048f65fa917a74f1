"""No unused imports, checked with the standard library alone.

CI's lint job runs ruff, whose rule F401 flags unused imports; this test
stands in for that rule where ruff is not installed.  It reads every
module under the checked directories and changes none.  A name an import
binds counts as used when it appears as a name anywhere in the module, in
``__all__``, or inside a quoted annotation (``"NodeState"``,
``Sequence["NodeState"]``).  An import statement with ``# noqa`` on any
of its lines is skipped, as are ``__future__`` imports.  It runs on every
Python the project supports (3.9 and later).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src", "tests", "benchmarks", "examples", "perfbench")


def quoted_names(annotation):
    """Names inside the string constants of an annotation, at any depth."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id
            yield from quoted_names(parsed)


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used.update(quoted_names(annotation))
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets):
                used.update(
                    item.value for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant)
                    and isinstance(item.value, str)
                )
    return used


def unused_imports(path):
    """``(line, name)`` of each import in ``path`` that nothing uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        # The statement's lines, not the alias's: ``ast.alias`` has no
        # line numbers before Python 3.10.
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append(
                    (node.lineno, alias.asname or alias.name.split(".")[0])
                )
    used = used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in CHECKED
        for path in sorted((ROOT / directory).rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert unused == []


def test_the_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Optional, Sequence, TYPE_CHECKING\n"
        "import os, sys  # noqa: F401\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path, PurePath\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Optional[Path]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == [(3, "json"), (5, "PurePath")]
