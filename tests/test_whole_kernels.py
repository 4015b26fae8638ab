"""Whole global heat kernels are computed only where a whole kernel is read.
A check that reads blocks, rows or columns of p(t) gets them from
``form.kernel_blocks``, which holds one product at a time; a call of
``heat_kernel`` without ``domain`` elsewhere in ``src/formlab`` is a second
path to the same entries at n x n per time.  Read with ``ast`` only."""

import ast
from pathlib import Path

import formlab

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


def global_kernel_callers(sources):
    """Sorted (module, function) of each call of ``heat_kernel`` without a
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
            if (name == "heat_kernel" and len(node.args) < 3
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
