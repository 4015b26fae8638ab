"""Whole global heat kernels are computed only where a whole kernel is read.
A check that reads blocks, rows or columns of p(t) gets them from
``form.kernel_blocks``, which holds one product at a time; a call of
``heat_kernel`` without ``domain`` elsewhere in ``src/formlab`` is a second
path to the same entries at n x n per time.  Every whole global kernel comes
from one engine site, ``form._global_kernel``, which ``kernel_blocks``
reaches only at the times the form keeps.  Read with ``ast``, and the last
by counting calls."""

import ast
from pathlib import Path

import numpy as np

import formlab
import formlab.form as form_mod
from formlab.form import JumpKernel, assemble, kernel_blocks
from formlab.space import build_space

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))

# the functions that read whole global kernels, and why
WHOLE_KERNEL_READERS = {
    "SuiteContext.table": "the shared table: hk, hk_minus, uhk_weak, diag, "
                          "tail_probability and chain_lower read whole "
                          "kernels of it",
    "kernel_certificates": "symmetry, unit mass and Chapman-Kolmogorov read "
                           "every entry of p(t) and of p(t/2)",
    "_chk_subordination": "the identity case compares the whole subordinate "
                          "kernel with the whole base kernel",
}


# the callers of the engine's one whole-kernel site, and why
ENGINE_CALLERS = {
    "heat_kernel": "a global table is one whole kernel per time",
    "kernel_blocks": "at a kept time the blocks are gathered from the kept "
                     "kernel",
}


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
