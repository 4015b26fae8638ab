"""Every name a formlab module exports through ``__all__`` must be reached
from the package itself: referenced somewhere in ``src/formlab`` outside its
own definition.  An export that no check, report or other export reaches
is code with no verdict behind it; it is deleted, or kept in
``LIBRARY_API`` with the reason it stays.  Read with ``ast`` only."""

import ast
from pathlib import Path

import formlab

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))

# exported on purpose although no code in the package calls them
LIBRARY_API = {
    "generalized_capacity": "the single-kappa generalized capacity of one "
                            "(f, A, B); check_gcap shares its helpers",
    "energy_and_champ": "E(f, f) with its per-point energy measures; the "
                        "Gamma-identity tests exercise local_champ and "
                        "truncated_jump through it",
}


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def defined_by(stmt):
    """Names a top-level statement binds by definition or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def unreached(sources):
    """(module, name) of each ``__all__`` name that no statement of
    ``sources`` (module name -> source text) references, a statement's
    references to the names it defines itself not counted."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = defined_by(stmt)
            used |= {n.id for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and n.id not in own}
    return [(mod, name) for mod, tree in trees.items()
            for name in exported(tree) if name not in used]


def test_every_export_is_reached_or_library_api():
    found = unreached({p.stem: p.read_text() for p in SOURCES})
    names = {name for _, name in found}
    dead = [f"{mod}.{name}" for mod, name in found if name not in LIBRARY_API]
    assert not dead, f"exports nothing in src/formlab reaches: {dead}"
    # a library name that the package starts to reach, or that is gone,
    # leaves the list
    assert sorted(set(LIBRARY_API) - names) == []


def test_detector_on_synthetic_package():
    sources = {
        "a": ("__all__ = ['used', 'dead', 'recursive', 'Klass', 'LIMIT']\n"
              "LIMIT = 3\n"
              "def used(x):\n    return x\n"
              "def dead():\n    return used(1)\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class Klass:\n    def make(self):\n        return Klass()\n"),
        "b": ("from .a import used, Klass\n"
              "__all__ = ['caller', 'Klass']\n"
              "def caller():\n    return used(LIMIT), Klass\n"),
    }
    # ``dead`` calls ``used`` but nothing calls it; ``recursive`` and
    # ``Klass.make`` only reach themselves; ``caller`` reaches nothing
    # that references it back, and an import is not a reference
    assert unreached(sources) == [("a", "dead"), ("a", "recursive"),
                                  ("b", "caller")]


def test_no_module_reads_the_float_metric():
    # distances are held as ranks into the distinct distances; the float
    # ``metric`` is computed on each read, for tests and export only
    reads = [f"{p.stem}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "metric"]
    assert reads == []
