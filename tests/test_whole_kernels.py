"""Global heat kernels are computed only where a whole kernel or the
shared table is read.  A check that reads blocks, rows or columns of p(t)
gets them from ``form.kernel_blocks``, which holds one product at a time;
a call of ``heat_kernel`` without ``domain`` elsewhere in ``src/formlab`` is
a second path to the same entries at n(n+1)/2 per time.  Every whole global
kernel comes from one engine site, ``form._global_kernel``, which
``kernel_blocks`` reaches only at the times the form keeps, through the
packing of ``_packed_kernel``.  Outside ``form.py`` a global table is read
through its accessors alone, never by subscripting its packed kernels, and
so is the jump kernel J: no other module reads its packed triangle or
unpacks it.  Read with ``ast``, and the engine's reach by counting
calls."""

import ast
from pathlib import Path

import numpy as np

import formlab
import formlab.form as form_mod
from formlab.form import JumpKernel, assemble, kernel_blocks
from formlab.space import build_space

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))

# the functions that read global tables, and why
WHOLE_KERNEL_READERS = {
    "SuiteContext.table": "the shared table: hk, hk_minus, uhk_weak, diag, "
                          "tail_probability and chain_lower read blocks, "
                          "rows and diagonals of every kernel of it",
    "kernel_certificates": "symmetry, unit mass and Chapman-Kolmogorov read "
                           "every entry of p(t), unpacked from the kept "
                           "kernel at a time the form keeps",
    "_chk_subordination": "the identity case compares every entry of the "
                          "subordinate kernel with the base kernel",
}


# the callers of the engine's one whole-kernel site, and why
ENGINE_CALLERS = {
    "_packed_kernel": "a global table's kernel is packed from the whole "
                      "kernel, once at a time the form keeps",
    "kernel_certificates": "CK multiplies two whole kernels at t/2, and "
                           "reads a whole p(t) the form does not keep",
}

# the whole-kernel tables whose ``kernels`` a module may read
WHOLE_TABLES = {"heat_kernel": "with a domain, Dirichlet kernels",
                "subordinate": "subordinate kernels"}


def global_kernel_callers(sources, callee="heat_kernel"):
    """Sorted (module, function) of each call of ``callee`` without a
    ``domain``; the function is dotted through its enclosing classes and
    functions, and a call outside any function is at ``<module>``."""
    found = set()

    def visit(node, mod, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call):
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name) else
                    fn.attr if isinstance(fn, ast.Attribute) else None)
            if (name == callee and len(node.args) < 3
                    and all(k.arg != "domain" for k in node.keywords)):
                found.add((mod, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, mod, scope)

    for mod, src in sources.items():
        visit(ast.parse(src), mod, [])
    return sorted(found)


def test_only_whole_kernel_readers_compute_global_kernels():
    found = global_kernel_callers({p.stem: p.read_text() for p in SOURCES})
    names = {name for _, name in found}
    stray = [f"{mod}.{name}" for mod, name in found
             if name not in WHOLE_KERNEL_READERS]
    assert not stray, f"global heat_kernel outside the whole readers: {stray}"
    # a reader that stops computing whole kernels leaves the list
    assert sorted(set(WHOLE_KERNEL_READERS) - names) == []


def test_one_engine_site_computes_whole_global_kernels():
    found = global_kernel_callers({p.stem: p.read_text() for p in SOURCES},
                                  "_global_kernel")
    assert found == [("form", name) for name in sorted(ENGINE_CALLERS)]


def test_kernel_blocks_reach_the_engine_only_at_kept_times(monkeypatch):
    sp = build_space("lattice_box", dim=1, side=40, margin=4)
    form = assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=1.0))
    engine = form_mod._global_kernel
    reached = []

    def counting(form, t):
        reached.append(t)
        return engine(form, t)

    monkeypatch.setattr(form_mod, "_global_kernel", counting)
    times = [0.5, 1.0, 2.0]
    blocks = [(np.arange(5), np.arange(7))]
    kernel_blocks(form, times, blocks)
    assert reached == []
    form.keep([1.0])
    kernel_blocks(form, times, blocks)
    assert reached == [1.0]


def test_detector_on_synthetic_package():
    sources = {
        "a": ("from .f import heat_kernel\n"
              "class Ctx:\n"
              "    @property\n"
              "    def table(self):\n"
              "        return heat_kernel(self.form, self.times)\n"
              "def dirichlet(form, ts, B):\n"
              "    return heat_kernel(form, ts, B), heat_kernel(form, ts, "
              "domain=B)\n"
              "def outer(form):\n"
              "    def inner():\n"
              "        return f.heat_kernel(form, [1.0])\n"
              "    return inner\n"
              "K = heat_kernel(None, [1.0])\n"),
        "b": "def heat_kernel(form, times, domain=None):\n    return None\n",
    }
    # positional and keyword domains are Dirichlet kernels; a definition is
    # no call
    assert global_kernel_callers(sources) == [
        ("a", "<module>"), ("a", "Ctx.table"), ("a", "outer.inner")]


def direct_kernel_reads(sources):
    """Sorted (module, line) of each ``.kernels`` read outside ``form``
    that is not on a ``WHOLE_TABLES`` call: a read of a global table's
    packed kernels past its accessors."""
    found = set()
    for mod, src in sources.items():
        if mod == "form":
            continue
        for node in ast.walk(ast.parse(src)):
            if not (isinstance(node, ast.Attribute) and node.attr == "kernels"):
                continue
            call = node.value
            name = None
            if isinstance(call, ast.Call):
                fn = call.func
                name = (fn.id if isinstance(fn, ast.Name) else
                        fn.attr if isinstance(fn, ast.Attribute) else None)
            dirichlet = isinstance(call, ast.Call) and (
                len(call.args) >= 3
                or any(k.arg == "domain" for k in call.keywords))
            if name == "subordinate" or (name == "heat_kernel" and dirichlet):
                continue
            found.add((mod, node.lineno))
    return sorted(found)


def test_global_tables_are_read_through_their_accessors():
    assert direct_kernel_reads({p.stem: p.read_text()
                                for p in SOURCES}) == []
    sources = {
        "a": ("def f(ctx, form, B):\n"
              "    K = ctx.table.kernels[0]\n"
              "    for P in heat_kernel(form, [1.0]).kernels:\n"
              "        pass\n"
              "    KB = heat_kernel(form, [1.0], domain=B).kernels\n"
              "    KD = heat_kernel(form, [1.0], B).kernels\n"
              "    (S,) = subordinate(form, 0.0, 1.0, [1.0]).kernels\n"
              "    return ctx.table.block(B, B)(0)\n"),
        "form": "def g(table):\n    return table.kernels[0]\n",
    }
    assert direct_kernel_reads(sources) == [("a", 2), ("a", 3)]


def packed_jump_reads(sources):
    """Sorted (module, line) of each read of an attribute ``packed`` (the
    jump kernel's packed triangle) and each name, attribute or import of
    ``_unpack`` outside ``form``: a read of J past its accessors."""
    found = set()
    for mod, src in sources.items():
        if mod == "form":
            continue
        for node in ast.walk(ast.parse(src)):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("packed", "_unpack")
                    or isinstance(node, ast.Name) and node.id == "_unpack"
                    or isinstance(node, ast.alias)
                    and node.name == "_unpack"):
                found.add((mod, node.lineno))
    return sorted(found)


def test_jump_kernels_are_read_through_their_accessors():
    assert packed_jump_reads({p.stem: p.read_text()
                              for p in SOURCES}) == []
    sources = {
        "a": ("from .form import _unpack\n"
              "import formlab.form as fm\n"
              "def f(form, B):\n"
              "    P = form.jump.packed\n"
              "    J = fm._unpack(P)\n"
              "    K = _unpack(P)\n"
              "    return form.jump.block(B, B), form.jump.rows(B)\n"),
        "form": "def g(jump):\n    return _unpack(jump.packed)\n",
    }
    assert packed_jump_reads(sources) == [("a", 1), ("a", 4), ("a", 5),
                                          ("a", 6)]
