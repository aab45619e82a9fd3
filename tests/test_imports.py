"""Every name a library module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
import pathlib

import roachkit

PACKAGE = pathlib.Path(roachkit.__file__).parent


def unused_imports(source):
    """(line, name) of each imported name the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_unused_imports_are_found():
    source = "import os\nimport json as j\nfrom a import b, c\nfrom __future__ import annotations\nc(j)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_library_modules_have_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(path.read_text())
            if unused:
                found[path.name] = unused
    assert found == {}
