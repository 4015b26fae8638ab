"""Every name a formlab module imports must be used in that module or be
re-exported through its ``__all__``, so a deleted caller cannot leave a
stray import behind.  Read with the standard library's ``ast`` only."""

import ast
from pathlib import Path

import pytest

import formlab

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))


def imported_names(tree):
    """Names bound by the module's import statements, with their line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom math import pi, tau as t\n"
           "__all__ = ['pi']\nos.getcwd()\n")
    assert unused_imports(src) == [("t", 3)]
