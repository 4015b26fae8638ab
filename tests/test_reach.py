"""Every name a formlab module exports through ``__all__``, and every
public method, property and field of its classes, must be reached from the
package itself: referenced somewhere in ``src/formlab`` outside its own
definition.  An export or member that no check, report or other code
reaches is code with no verdict behind it; it is deleted, or kept in
``LIBRARY_API`` with the reason it stays.  A config gets one form: the
package builds a ``DirichletForm`` only in ``assemble`` and a
``JumpKernel`` only in its builders.  Read with ``ast`` only."""

import ast
import inspect
import math
from pathlib import Path

import formlab

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))

# kept on purpose although no code in the package reads them: exports by
# name, class members as "Class.name"
LIBRARY_API = {
    "generalized_capacity": "the single-kappa generalized capacity of one "
                            "(f, A, B); check_gcap shares its helpers",
    "MetricMeasureSpace.metric": "the float metric u[R], computed on each "
                                 "read for tests and export; no module "
                                 "reads it",
    "ScaleFunction.single_power": "the scale c r^e; configs give pieces, "
                                  "tests and callers one power",
    "ScaleFunction.from_exponents": "a scale from its exponents and breaks, "
                                    "with continuous coefficients",
    "PowerBounds.c1": "the certified constants of the exponent window; "
                      "dominance_map reads only beta1 and beta2",
    "PowerBounds.c2": "as c1",
    "CrossoverResult.reason": "why a crossover is degenerate; dominance_map "
                              "reads the root, the flag and log_ratio",
    "CrossoverResult.residual": "the relative residual of the root",
    "CrossoverResult.bracket": "the log-bracket at the root",
    "CaloricFamily.samples_minus": "FULL mode's per-time samples on "
                                   "B(x0, R), kept on request "
                                   "(keep_samples); check_phi does not "
                                   "read them",
    "CaloricFamily.samples_plus": "as samples_minus",
    # defaulted parameters, as "function(parameter)"
    "main(argv)": "the command line's arguments; the script entry point "
                  "reads sys.argv, tests pass a list",
    "caloric_poisson(keep_samples)": "keeps FULL mode's per-time samples; "
                                     "see CaloricFamily.samples_minus",
    "MetricMeasureSpace.__init__(edges)": "a custom space from a metric "
                                          "matrix; the builders pass ranks "
                                          "through _from_ranks, tests build "
                                          "their own spaces",
    "MetricMeasureSpace.__init__(coords)": "as edges",
    "MetricMeasureSpace.__init__(boundary)": "as edges",
    "MetricMeasureSpace.__init__(interior_margin)": "as edges",
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


def members(tree):
    """{"Class.name": definition} of each public method, property and
    field of the module's classes, and of each public attribute their
    methods assign on ``self`` (definition None: a write is no read)."""
    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                found[f"{cls.name}.{name}"] = node
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and not node.attr.startswith("_")):
                found.setdefault(f"{cls.name}.{node.attr}", None)
    return found


def member_reads(tree):
    """(name, node) of each attribute read, and of each string listed in a
    tuple, list or set display: ``JUMPS`` and ``ConditionReport.to_dict``
    look members up by such names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                              ast.Store):
            yield node.attr, node
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value,
                                                                str):
                    yield elt.value, elt


def unread_members(sources):
    """(module, "Class.name") of each class member that no read in
    ``sources`` names, reads inside the member's own definition not
    counted.  Matched by name: a read of any object's ``.name`` counts."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = {}
    for tree in trees.values():
        for name, node in member_reads(tree):
            reads.setdefault(name, []).append(node)
    found = []
    for mod, tree in trees.items():
        for key, defn in members(tree).items():
            own = set() if defn is None else set(map(id, ast.walk(defn)))
            if all(id(node) in own
                   for node in reads.get(key.split(".")[1], [])):
                found.append((mod, key))
    return found


def test_every_export_is_reached_or_library_api():
    found = unreached({p.stem: p.read_text() for p in SOURCES})
    names = {name for _, name in found}
    dead = [f"{mod}.{name}" for mod, name in found if name not in LIBRARY_API]
    assert not dead, f"exports nothing in src/formlab reaches: {dead}"
    # a library name that the package starts to reach, or that is gone,
    # leaves the list
    assert sorted({k for k in LIBRARY_API
                   if "." not in k and "(" not in k} - names) == []


def test_every_member_is_read_or_library_api():
    found = unread_members({p.stem: p.read_text() for p in SOURCES})
    keys = {key for _, key in found}
    dead = [f"{mod}:{key}" for mod, key in found if key not in LIBRARY_API]
    assert not dead, f"class members nothing in src/formlab reads: {dead}"
    assert sorted({k for k in LIBRARY_API
                   if "." in k and "(" not in k} - keys) == []


def defaulted(tree):
    """(function, parameter, position) of each parameter with a default of
    each function and method of the module, nested ones too.  The function
    is its dotted name (``Class.method``, ``outer.inner``); the position is
    the index of a positional parameter among those a call passes, the
    instance or class of a method not counted, and None for a keyword-only
    one."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                positional = a.posonlyargs + a.args
                skip = 1 if in_class and not static else 0
                name = ".".join(scope + (child.name,))
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((name, arg.arg, i - skip))
                found.extend((name, arg.arg, None) for arg, default
                             in zip(a.kwonlyargs, a.kw_defaults)
                             if default is not None)
                visit(child, scope + (child.name,), False)
            else:
                visit(child, scope, in_class)

    visit(tree, (), False)
    return found


def calls(trees):
    """{name: [(positional count, keywords)]} of every call in ``trees``, by
    the name it calls: a bare name or an attribute's, ``cls`` read as its
    class.  A call of a class is listed under ``Class.__init__``; a
    starred positional counts as every position, and a ``**`` mapping
    passes no name."""
    found = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                fn = child.func
                name = (fn.id if isinstance(fn, ast.Name) else
                        fn.attr if isinstance(fn, ast.Attribute) else None)
                if name == "cls" and cls is not None:
                    name = cls
                if name is not None:
                    starred = any(isinstance(a, ast.Starred)
                                  for a in child.args)
                    found.setdefault(name, []).append((
                        math.inf if starred else len(child.args),
                        {k.arg for k in child.keywords}))
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else cls)

    classes = set()
    for tree in trees:
        visit(tree, None)
        classes |= {n.name for n in ast.walk(tree)
                    if isinstance(n, ast.ClassDef)}
    for name in classes & set(found):
        found[f"{name}.__init__"] = found.pop(name)
    return found


def unset_defaults(sources, exempt=()):
    """(module, "function(parameter)") of each defaulted parameter that no
    call in ``sources`` passes, by keyword or by position, in a function
    whose dotted name is not in ``exempt``.  An approximation: calls are
    matched to a function by its last name only (``__init__`` by its
    class), so a call of another function or method of that name counts
    too and a dead default can pass; a parameter set only through a
    ``**`` mapping, ``getattr`` or a callback reads as unset."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    made = calls(trees.values())
    found = []
    for mod, tree in trees.items():
        for fn, param, pos in defaulted(tree):
            last = fn.split(".")[-1]
            key = fn if last == "__init__" else last
            if fn in exempt or any(
                    param in keywords or pos is not None and pos < n
                    for n, keywords in made.get(key, ())):
                continue
            found.append((mod, f"{fn}({param})"))
    return found


def config_bound():
    """Dotted names of the functions a config binds: the ``space.SPACES``
    builders, the ``JumpKernel`` builders of ``form.JUMPS``,
    ``cli._build_scales``, ``ExperimentConfig`` and ``SuiteContext._grids``,
    and each check and the callee whose parameters
    ``cli.check_parameters`` offers through its ``**kw``."""
    from formlab import cli, form, space
    fns = [*space.SPACES.values(), cli._build_scales, cli.SuiteContext._grids,
           *(getattr(form.JumpKernel, kind) for kind in form.JUMPS
             if kind != "none")]
    for check in cli.CHECKS.values():
        # the (callee, fixed) that check_parameters reads for a **kw check
        fns += [check, *cli._FORWARDS.get(inspect.unwrap(check), ())[:1]]
    names = {inspect.unwrap(fn).__qualname__ for fn in fns}
    return names | {f"{cli.ExperimentConfig.__qualname__}.__init__"}


def test_every_default_is_set_bound_or_library_api():
    # a default that no call sets and no config binds is a constant with
    # a knob: it becomes the constant, or stays in LIBRARY_API with a reason
    found = unset_defaults({p.stem: p.read_text() for p in SOURCES},
                           config_bound() | set(LIBRARY_API))
    keys = {key for _, key in found}
    dead = [f"{mod}:{key}" for mod, key in found if key not in LIBRARY_API]
    assert not dead, f"defaults no call or config sets: {dead}"
    assert sorted({k for k in LIBRARY_API if "(" in k} - keys) == []


def test_default_detector_on_synthetic_package():
    sources = {
        "a": ("def f(x, y=1, *, z=2):\n    return x\n"
              "def g(a, b=1, c=2):\n    return f(a, z=b)\n"
              "def bound(p=0):\n    return p\n"
              "class K:\n"
              "    def __init__(self, m, n=1):\n        self.m = m\n"
              "    def meth(self, u, v=0, w=0):\n        return K(u)\n"
              "    @classmethod\n"
              "    def make(cls, s=1):\n        return cls(s, 2)\n"
              "    @staticmethod\n"
              "    def st(q=1, r=2):\n        return q\n"
              "    def outer(self, h=0):\n"
              "        def inner(k=1):\n            return k\n"
              "        return inner(*self.m)\n"),
        "b": ("from a import K, g\n"
              "def use(k):\n"
              "    return k.meth(1, 2), K.st(0), g(1, 2, 3), K.make(**{})\n"),
    }
    # ``f``'s y is passed by no call; g's b and c by position, K's n by
    # ``cls(s, 2)``, meth's v by position after self; ``st`` is static, so
    # K.st(0) passes q, not r; a starred call passes every position, and a
    # ``**`` mapping passes nothing; ``bound`` is exempt
    assert unset_defaults(sources, {"bound"}) == [
        ("a", "f(y)"), ("a", "K.meth(w)"), ("a", "K.make(s)"),
        ("a", "K.st(r)"), ("a", "K.outer(h)")]


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


def test_member_detector_on_synthetic_package():
    sources = {
        "a": ("KINDS = ('build',)\n"
              "class Kit:\n"
              "    size: int\n"
              "    note: str\n"
              "    def __init__(self):\n"
              "        self.count = 0\n"
              "        self.spare = 1\n"
              "        self._hidden = 2\n"
              "    def build(self):\n        return self.size\n"
              "    def loop(self):\n        return self.loop()\n"
              "    @property\n    def weight(self):\n        return 1\n"),
        "b": ("def use(kit):\n"
              "    kit.count += 1\n"
              "    return kit.weight, {'note': 1}\n"),
    }
    # ``size`` is read in ``build``, ``build`` by name through KINDS and
    # ``weight`` in b; ``loop`` reads only itself, a dict key is no read,
    # and ``count`` and ``spare`` are only written (``+=`` writes back)
    assert unread_members(sources) == [("a", "Kit.note"), ("a", "Kit.loop"),
                                       ("a", "Kit.count"), ("a", "Kit.spare")]


def test_no_module_reads_the_float_metric():
    # distances are held as ranks into the distinct distances; the float
    # ``metric`` is computed on each read, for tests and export only
    reads = [f"{p.stem}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "metric"]
    assert reads == []


# the one place each form type is built, by the dotted name of the
# enclosing class and function; ``cls(`` inside JumpKernel builds one
BUILT_IN = {"DirichletForm": {"assemble"},
            "JumpKernel": {"JumpKernel.stable_like", "JumpKernel.power_law",
                           "JumpKernel.two_regime"}}


def constructions(sources):
    """(module, scope, type) of each call in ``sources`` that builds a
    ``DirichletForm`` or ``JumpKernel`` outside ``BUILT_IN``, by bare or
    dotted name; scope is the dotted enclosing class and function, empty
    at module level."""
    found = []

    def visit(node, mod, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                fn = child.func
                name = (fn.id if isinstance(fn, ast.Name) else
                        fn.attr if isinstance(fn, ast.Attribute) else None)
                if name == "cls" and scope[:1] == ("JumpKernel",):
                    name = "JumpKernel"
                where = ".".join(scope)
                if name in BUILT_IN and where not in BUILT_IN[name]:
                    found.append((mod, where, name))
            visit(child, mod, inner)

    for mod, src in sources.items():
        visit(ast.parse(src), mod, ())
    return found


def test_one_form_per_config():
    # a truncation, restriction or copy derives its matrix from the form
    # it has; it does not build and validate a second form
    assert constructions({p.stem: p.read_text() for p in SOURCES}) == []


def test_construction_detector_on_synthetic_package():
    sources = {
        "a": ("class JumpKernel:\n"
              "    @classmethod\n"
              "    def power_law(cls, s):\n        return cls(s)\n"
              "    @classmethod\n"
              "    def rebuilt(cls, m):\n        return cls(m)\n"
              "    def copy(self):\n        return JumpKernel(self.m)\n"
              "class Scale:\n"
              "    @classmethod\n"
              "    def one(cls):\n        return cls(1)\n"
              "def assemble(s, w, j):\n    return DirichletForm(s, w, j)\n"
              "def truncate(f, r):\n"
              "    return DirichletForm(f.s, 0, JumpKernel(f.m))\n"
              "make = lambda s: JumpKernel(s)\n"),
        "b": ("import a\n"
              "def cut(f):\n    return a.DirichletForm(f.s, 0, None)\n"),
    }
    # the builder and ``assemble`` are the allowed sites; ``cls(`` builds
    # a JumpKernel only inside its class, and a dotted name counts
    assert constructions(sources) == [
        ("a", "JumpKernel.rebuilt", "JumpKernel"),
        ("a", "JumpKernel.copy", "JumpKernel"),
        ("a", "truncate", "DirichletForm"),
        ("a", "truncate", "JumpKernel"),
        ("a", "", "JumpKernel"),
        ("b", "cut", "DirichletForm")]


def kw_rewrites(source):
    """Names of the ``@check`` functions of ``source`` that use their
    ``**kw`` other than by passing it on as ``**kw``.  A ``setdefault``,
    subscript or ``pop`` runs a value other than the callee default that
    ``cli.check_parameters`` shows; a default of the check's own goes in
    its signature."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or fn.args.kwarg is None):
            continue
        names = [d.args[0].value for d in fn.decorator_list
                 if isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                 and d.func.id == "check" and d.args
                 and isinstance(d.args[0], ast.Constant)]
        kw = fn.args.kwarg.arg
        passed = {id(k.value) for k in ast.walk(fn)
                  if isinstance(k, ast.keyword) and k.arg is None}
        if any(isinstance(n, ast.Name) and n.id == kw and id(n) not in passed
               for n in ast.walk(fn)):
            found.extend(names)
    return found


def test_checks_pass_their_kw_on_unchanged():
    cli = Path(formlab.__file__).parent / "cli.py"
    assert kw_rewrites(cli.read_text()) == []


def test_kw_rewrite_detector_on_synthetic_module():
    source = ("@check('plain', f)\ndef a(ctx, **kw):\n    return f(**kw)\n"
              "@check('own', f)\ndef b(ctx, r=None, **kw):\n"
              "    return f(r or 1, **kw)\n"
              "@check('default', f)\ndef c(ctx, **kw):\n"
              "    kw.setdefault('r', 1)\n    return f(**kw)\n"
              "@check('read', f)\ndef d(ctx, **kw):\n"
              "    return f(kw['r'], **kw)\n"
              "@check('popped', f)\ndef e(ctx, **opts):\n"
              "    opts.pop('r', None)\n    return f(**opts)\n"
              "@check('whole', f)\ndef g(ctx, **kw):\n    return f(kw)\n"
              "def helper(**kw):\n    kw.setdefault('r', 1)\n"
              "    return f(**kw)\n")
    # only a check's **kw counts, under any name, and passing it on as
    # **kw is its one allowed use
    assert kw_rewrites(source) == ["default", "read", "popped", "whole"]
