"""Spans and counters recorded from outside formlab.

The benchmark does not edit the program.  It replaces names in formlab's
module namespaces, where each caller looks them up (``envelopes.heat_kernel``
and ``harnack.heat_kernel`` are both wrapped), with wrappers that record a
span per call.  Spans nest through a stack; a span's self time is its
duration minus the durations of its direct children.

An untraced pass installs the two set-up boundaries (``SuiteContext``
construction and the first ``SuiteContext.table``) and, around each entry of
``cli.CHECKS``, a ``probe`` span that gauges the host's speed (see
``probe.py``) followed by a ``check.<name>`` span; these cut a pass into
segments, each timed beside the probes gauged around it.  A traced pass
installs the set-up boundaries and every wrapper in ``SPANS`` instead, and
runs no probes.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

from probe import gauge

MIB = float(1 << 20)

# provider module -> {public function: span name}; a metric "<span>_s" holds
# the span's summed self time.
SPANS = {
    "space": {"build_space": "space.build",
              "volume_report": "space.volume_report",
              "chain_check": "space.chain_check"},
    "form": {"assemble": "form.assemble",
             "heat_kernel": "form.heat_kernel",
             "kernel_certificates": "form.kernel_certificates",
             "meyer_check": "form.meyer_check",
             "gap_check": "form.gap_check",
             "subordinate": "form.subordinate",
             "exit_stats": "form.exit_stats"},
    "scales": {"legendre_sup": "scales.legendre_sup",
               "crossover_radius": "scales.crossover_radius"},
    "functionals": {name: f"functionals.{name}" for name in (
        "check_fk", "check_pi", "check_gcap", "check_cs", "check_exit",
        "tail_and_ujs", "fit_jpsi", "function_family")},
    "envelopes": {name: f"envelopes.{name}" for name in (
        "fit_hk", "envelope_ratio_rows", "diag_checks", "dominance_map",
        "tail_probability_check", "chain_lower_check",
        "check_pc_equivalence")},
    "harnack": {"check_phi": "harnack.check_phi",
                "caloric_poisson": "harnack.caloric_poisson",
                "check_regularity": "harnack.check_regularity",
                "harmonic_solve": "harnack.harmonic_solve"},
}
JUMP_BUILDERS = ("stable_like", "power_law", "two_regime")
EIGH_CALLERS = ("form", "functionals", "harnack")
SETUP_SPANS = ("cli.suite_context", "cli.table")
PROBE = "probe"
COUNTS = ("space.metric_mib", "form.heat_kernel_calls.global",
          "form.heat_kernel_calls.dirichlet", "form.kernel_mib",
          "scales.legendre_sup_calls", "harnack.caloric_poisson_calls",
          "harnack.harmonic_solve_calls", "cli.report_bytes",
          *(f"{c}.eigh_{k}" for c in EIGH_CALLERS for k in ("calls", "n3")))


def unit_of(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mib", "MiB"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Spans (name, start, end, parent index) and named counts, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.probes = {}
        self._stack = []

    def enter(self, name):
        rec = [name, self.clock(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

    def exit(self, failed=False):
        rec = self.spans[self._stack.pop()]
        rec[2] = self.clock()
        if failed:
            self.counts[rec[0].split(".", 1)[0] + ".errors"] += 1

    def call(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.exit(failed=True)
            raise
        self.exit()
        return result

    def probe(self, gauge):
        """A ``PROBE`` span around ``gauge()``, whose result (the probe's
        seconds) ``segments`` pairs with the spans around it."""
        index = len(self.spans)
        self.probes[index] = self.call(PROBE, gauge)

    def _self_each(self, first: int):
        """(name, start, end, self time) of each span from index ``first``
        on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        return [(name, start, end, end - start - c)
                for (name, start, end, _), c in zip(spans, child)]

    def self_times(self) -> dict:
        """Summed self time per span name."""
        out = defaultdict(float)
        for name, _, _, self_s in self._self_each(0):
            out[name] += self_s
        return dict(out)

    def segments(self, first: int = 0) -> dict:
        """Span name -> [self time, probe time] over the spans from index
        ``first`` on, leaving out the probes.  The probe time is the mean of
        what the last ``probe`` before the name's first span and the first
        one after it gauged (one of them, if the other is missing); a
        repeated name sums its self times."""
        each = self._self_each(first)
        probes = [(start, self.probes[i]) for i, (name, start, _, _)
                  in enumerate(each, first) if name == PROBE]
        out = {}
        for name, start, end, self_s in each:
            if name == PROBE:
                continue
            if name in out:
                out[name][0] += self_s
                continue
            near = [v for t, v in probes if t < start][-1:]
            near += [v for t, v in probes if t >= end][:1]
            out[name] = [self_s, sum(near) / len(near) if near else None]
        return out

    def total(self, names, first: int = 0) -> float:
        """Summed duration (children included) of the spans named, from
        index ``first`` on."""
        return sum(end - start for name, start, end, _ in self.spans[first:]
                   if name in names)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: ``<span>_s`` self times,
    ``<layer>.self_s``, ``<layer>.errors`` and the counts."""
    selfs = tracer.self_times()
    out = {}
    layers = {"linalg", "cli"} | set(SPANS)
    for layer in layers:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = tracer.counts.get(f"{layer}.errors", 0)
    named = [s for names in SPANS.values() for s in names.values()]
    named += ["form.jump", "form.eigh", "cli.suite_context", "cli.table",
              "cli.render"]
    for span in named:
        out[f"{span}_s"] = selfs.get(span, 0.0)
    out["cli.run_suite_self_s"] = selfs.get("cli.run_suite", 0.0)
    for span, t in selfs.items():
        out[span.split(".", 1)[0] + ".self_s"] += t
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0)
    return out


class Instrumentation:
    """Installs the wrappers into formlab's namespaces; ``close`` restores
    every replaced attribute."""

    def __init__(self, tracer: Tracer, traced: bool):
        from formlab import (cli, envelopes, form, functionals, harnack,
                             scales, space)
        self.tracer = tracer
        self._undo = []
        self._modules = {"cli": cli, "space": space, "form": form,
                         "scales": scales, "functionals": functionals,
                         "envelopes": envelopes, "harnack": harnack}
        self._patch(cli, "SuiteContext", _timed_context(cli.SuiteContext, tracer))
        if traced:
            self._install_spans()
        else:
            self._patch(cli, "CHECKS", {
                name: self._wrap(fn, f"check.{name}", before=self._probe)
                for name, fn in cli.CHECKS.items()})

    def _probe(self, args, kwargs):
        self.tracer.probe(gauge)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _install_spans(self):
        mods = self._modules
        counts = self.tracer.counts
        before, after = {}, {}

        def heat_kernel_kind(args, kwargs):
            domain = kwargs.get("domain", args[2] if len(args) > 2 else None)
            kind = "global" if domain is None else "dirichlet"
            counts[f"form.heat_kernel_calls.{kind}"] += 1

        def kernel_mib(table):
            counts["form.kernel_mib"] += sum(K.size * 8 for K in table.kernels) / MIB

        def metric_mib(space):
            counts["space.metric_mib"] += space.n * space.n * 8 / MIB

        def calls(span):
            def count(args, kwargs):
                counts[f"{span}_calls"] += 1
            return count

        before["form.heat_kernel"] = heat_kernel_kind
        after["form.heat_kernel"] = kernel_mib
        after["space.build"] = metric_mib
        for span in ("scales.legendre_sup", "harnack.caloric_poisson",
                     "harnack.harmonic_solve"):
            before[span] = calls(span)

        for provider, names in SPANS.items():
            for fname, span in names.items():
                orig = getattr(mods[provider], fname)
                wrapped = self._wrap(orig, span, before.get(span), after.get(span))
                for consumer in mods.values():
                    if vars(consumer).get(fname) is orig:
                        self._patch(consumer, fname, wrapped)

        jump_cls = mods["form"].JumpKernel
        for meth in JUMP_BUILDERS:
            fn = vars(jump_cls)[meth].__func__
            self._patch(jump_cls, meth, classmethod(self._wrap(fn, "form.jump")))

        form_cls = mods["form"].DirichletForm
        spectral = vars(form_cls)["spectral"]
        decomposed = weakref.WeakSet()
        tracer = self.tracer

        def first_spectral(form):
            if form in decomposed:
                return spectral(form)
            decomposed.add(form)
            return tracer.call("form.eigh", spectral, form)

        self._patch(form_cls, "spectral", first_spectral)

        for caller in EIGH_CALLERS:
            def count_eigh(args, kwargs, caller=caller):
                m = args[0].shape[0]
                counts[f"{caller}.eigh_calls"] += 1
                counts[f"{caller}.eigh_n3"] += m ** 3
            eigh = mods[caller].eigh
            self._patch(mods[caller], "eigh",
                        self._wrap(eigh, "linalg.eigh", before=count_eigh))


def _timed_context(base, tracer):
    """``SuiteContext`` whose construction and first ``table`` are spans."""

    class TimedSuiteContext(base):
        def __init__(self, *args, **kwargs):
            self._table_timed = False
            tracer.call("cli.suite_context", super().__init__, *args, **kwargs)

        @property
        def table(self):
            if self._table_timed:
                return super().table
            self._table_timed = True
            return tracer.call("cli.table", lambda: super(TimedSuiteContext, self).table)

    return TimedSuiteContext
