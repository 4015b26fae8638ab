"""Experiment configuration, suite orchestration, and report emission.

A config is a single JSON document (key/value tree).  ``run_suite`` builds
the space and form once, dispatches the configured checks (the shared
global kernel table is computed on its first read, and only if a check
reads it), and evaluates the cross-consistency matrix: whenever the
two-sided bound with indicator lower profile certifies, the equivalent
condition package (Harnack, two-sided jump comparability, Poincare,
generalized capacity, diagonal bounds) is expected to certify too, and any
deviation is listed rather than silently passed.

Exit codes: 0 when every verdict is acceptable or matches the configured
expectation, 2 on unexpected verdicts or cross-matrix deviations, 3 on
execution errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.resources
import inspect
import json
import math
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .envelopes import (chain_lower_check, check_pc_equivalence, diag_checks,
                        dominance_map, fit_hk, tail_probability_check)
from .form import (FormError, _pack, assemble, build_jump, check_jump,
                   gap_check, heat_kernel, kernel_certificates, meyer_check,
                   subordinate, subordinate_intensity,
                   subordinate_intensity_quadrature)
from .functionals import (ERRORED, KINDS, ConditionReport, _no_ball,
                          ball_family, check_cs, check_exit, check_fk,
                          check_gcap, check_pi, fit_jpsi, function_family,
                          positive, tail_and_ujs)
from .harnack import CylinderSpec, check_phi, check_regularity
from .render import svg_curves, svg_heatmap, write_rows_csv
from .scales import ScaleError, ScaleFunction, ScaleTriple
from .space import (Count, Fraction, HKMode, Mode, NonNegative, Positive,
                    Seed, SpaceError, TimeCount, bind, build_space,
                    chain_check, parameters, space_size, volume_report)

OK_VERDICTS = set(KINDS.values())


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    name: str
    space: dict
    scales: dict
    jump: dict = field(default_factory=lambda: {"kind": "none"})
    local_weight: NonNegative = 1.0
    checks: list[str] = field(default_factory=list)
    check_params: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    mode: Mode = "necessary"
    seed: Seed = 0x5EED
    out: str | None = None

    @property
    def raw(self):
        return {k: v for k, v in vars(self).items() if k != "out"}

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(source) -> ExperimentConfig:
    """Load a config from a path, or by bundled name (e.g. ``z1_alpha1``)."""
    if isinstance(source, dict):
        return validate_config(source)
    path = Path(str(source))
    if not path.exists():
        path = importlib.resources.files("formlab.configs") / f"{source}.json"
        if not path.is_file():
            raise ConfigError(f"no config file or bundled name {source!r}")
    return validate_config(json.loads(path.read_text()))


def validate_config(data: dict) -> ExperimentConfig:
    """The config ``data`` describes, or ConfigError.  Each part must
    ``bind`` to the signature that reads it, whose annotations state each
    value's type and range: the top level to ``ExperimentConfig``, ``space``
    and ``jump`` to their kind's builder, ``scales`` to ``_build_scales``,
    ``grids`` to ``SuiteContext._grids`` and each ``check_params`` entry to
    its check's ``check_parameters`` (required ones for configured checks).
    Beyond that: distinct labels of the radii that key a check's constants
    (``rho_grid``; ``grids.radii`` for ``meyer`` and ``gap`` without one),
    relations the builders take, and no jump-free ``HK_local`` ``hk`` on a
    jump form."""
    bind(parameters(ExperimentConfig), data, "config", ConfigError)
    cfg = ExperimentConfig(**data)
    cfg.local_weight = float(cfg.local_weight)
    bad = [c for c in [*cfg.checks, *cfg.check_params, *cfg.expect]
           if c not in CHECKS]
    if bad:
        raise ConfigError(f"unknown checks: {bad}; known: {sorted(CHECKS)}")
    bind(parameters(SuiteContext._grids, ("self",)), cfg.grids, "grids",
         ConfigError)
    for name in dict.fromkeys([*cfg.checks, *cfg.check_params]):
        params = cfg.check_params.get(name, {})
        bind(check_parameters(CHECKS[name]), params, f"check_params.{name}",
             ConfigError, required=name in cfg.checks)
        # meyer and gap without a rho_grid key their constants by radii
        where, rhos = f"check_params.{name}.rho_grid", params.get("rho_grid")
        if not rhos and name in ("meyer", "gap") and name in cfg.checks:
            where, rhos = "grids.radii", cfg.grids.get("radii")
        labels = [f"{rho:g}" for rho in rhos or ()]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{where} needs radii that differ in 6 digits, "
                              f"got {rhos}")
    bind(parameters(_build_scales), cfg.scales, "scales", ConfigError)
    # refuse what the builders would refuse, without building anything
    try:
        space_size(**cfg.space)
        check_jump(cfg.jump)
        _build_scales(**cfg.scales)
        if "phi_j" in cfg.check_params.get("jpsi_alt", {}):
            ScaleFunction.from_config(cfg.check_params["jpsi_alt"]["phi_j"])
    except (SpaceError, FormError, ScaleError) as exc:
        raise ConfigError(str(exc)) from exc
    if (cfg.check_params.get("hk", {}).get("mode") == "HK_local"
            and cfg.jump.get("kind", "none") != "none"
            and cfg.jump.get("coeff", 1.0) > 0.0):
        raise ConfigError("check_params.hk.mode HK_local is the bound of a "
                          "diffusion without jumps; this form has a jump part")
    return cfg


def _build_scales(phi_c: list[dict], phi_j: list[dict]) -> ScaleTriple:
    """The scales of a config's ``scales``, whose keys are these parameters."""
    return ScaleTriple(ScaleFunction.from_config(phi_c),
                       ScaleFunction.from_config(phi_j))


class SuiteContext:
    """Space, scales and form, built once, and the shared global kernel
    table at ``times``, built on its first read.  When a configured check
    reads ``table``, the form keeps the kernels at ``times``, each as its
    packed upper triangle, n(n+1)/2 doubles: each is computed once, where
    it is first read (``kernel`` packs the whole kernel it certifies),
    and ``meyer``, ``diag`` and ``subordination`` read the kept kernel at
    a table time instead of recomputing it.  Every reader goes through
    the table's accessors and holds no unpacked copy of it beyond the
    blocks, rows and diagonals it reads (``meyer`` gathers its block
    after each product of its own).  A suite whose checks never read
    ``table`` keeps nothing and never holds ``len(times)`` kernels; each
    check still computes each global kernel it reads once."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.scales = _build_scales(**cfg.scales)
        self.space = build_space(**cfg.space)
        self.jump = build_jump(cfg.jump, self.space, self.scales.phi_j,
                               cfg.seed)
        self.form = assemble(self.space, cfg.local_weight, self.jump)
        self._grids(**cfg.grids)
        if TABLE_READERS.intersection(cfg.checks):
            self.form.keep(self.times)
        self._table = None
        self._table_lock = threading.Lock()
        self._family = None
        self._family_lock = threading.Lock()

    def _grids(self, n_times: TimeCount = 24, radii: list[Positive] | None = None,
               max_centers: Count = 4, phi_R: list[Positive] | None = None):
        """Read the config's ``grids``, whose keys are these parameters."""
        t_lo = self.scales.phi(1.0)
        t_hi = self.scales.phi(max(self.space.interior_margin, 2.0))
        self.times = list(np.geomspace(t_lo, max(t_hi, 2.0 * t_lo), n_times))
        if radii is None:
            top = max(self.space.interior_margin, 4.0)
            radii = [top / 4.0, top / 2.0, top]
        self.radii = [float(r) for r in radii]
        self.max_centers = max_centers
        self.phi_R = [self.radii[0]] if phi_R is None else phi_R

    @property
    def table(self):
        """Global kernel table at ``times``, computed once; safe to read
        from several threads."""
        with self._table_lock:
            if self._table is None:
                self._table = heat_kernel(self.form, self.times)
        return self._table

    @property
    def family(self):
        """Standard test functions of the form (``function_family``) that
        gcap, cs and gap share, built once; safe to read from several
        threads."""
        with self._family_lock:
            if self._family is None:
                self._family = function_family(self.form, seed=self.cfg.seed)
        return self._family


# -- check implementations -----------------------------------------------------


CHECKS = {}   # check name -> check(ctx, **params)
_FORWARDS = {}   # check -> (callee its **kw goes to, callee params it fixes)
TABLE_READERS = set()   # names of the checks whose body reads ``ctx.table``


def check(name, callee=None, *fixed):
    """Register a check under ``name``.  A check that takes ``**kw`` names
    the ``callee`` it forwards them to and the callee parameters it fixes
    itself.  A check whose code names ``table`` is a table reader."""
    def register(fn):
        CHECKS[name] = fn
        if "table" in inspect.unwrap(fn).__code__.co_names:
            TABLE_READERS.add(name)
        if callee is not None:
            _FORWARDS[fn] = (callee, fixed)
        return fn
    return register


@functools.cache
def check_parameters(fn):
    """The parameters ``check_params`` may set for the check ``fn``, by
    name: those the check names, and through its ``**kw`` the optional
    parameters of its callee that it does not fix.  KeyError for a
    ``**kw`` with no declared callee, which would take any key.  Read
    through ``inspect``, so a wrapper that sets ``__wrapped__`` resolves
    like the check it wraps."""
    own = parameters(fn, ("ctx",))
    if all(p.kind is not p.VAR_KEYWORD
           for p in inspect.signature(fn).parameters.values()):
        return own
    callee, fixed = _FORWARDS[inspect.unwrap(fn)]
    return {**{n: p for n, p in parameters(callee, fixed).items()
               if p.default is not p.empty}, **own}


@check("volume", volume_report)
def _chk_volume(ctx, **kw):
    vr = volume_report(ctx.space, **kw)
    return ConditionReport(
        "VD/RVD",
        constants={"C_mu": vr.C_mu, "l_mu": vr.l_mu, "c_mu": vr.c_mu,
                   "rvd": vr.rvd_passes, "d1": vr.d1, "d2": vr.d2,
                   "c_tilde": vr.c_tilde, "C_tilde": vr.C_tilde},
        ranges={"radius_range": list(vr.radius_range),
                "n_centers": vr.n_centers},
        notes="RVD verdict applies to the restricted radius range only",
    ).judge(C_mu=np.isfinite)


@check("chain", chain_check, "seed")
def _chk_chain(ctx, **kw):
    cr = chain_check(ctx.space, seed=ctx.cfg.seed, **kw)
    return ConditionReport(
        "chain-condition", constants={"C": cr.constant},
        witness={} if cr.witness is None else {"disconnected_pair": list(cr.witness)},
        ranges={"samples": cr.samples}).judge(C=np.isfinite, samples=positive)


@check("kernel")
def _chk_kernel(ctx):
    certs = kernel_certificates(ctx.form, ctx.times)
    return ConditionReport(
        "kernel-exactness", constants=certs,
        ranges={"times": list(ctx.times), "method": "spectral"},
    ).judge(**dict.fromkeys(certs, lambda err: err < 1e-10))


@check("fk", check_fk, "max_centers", "seed")
def _chk_fk(ctx, **kw):
    return check_fk(ctx.form, ctx.scales, ctx.radii,
                    max_centers=ctx.max_centers, seed=ctx.cfg.seed, **kw)


@check("pi", check_pi, "max_centers")
def _chk_pi(ctx, **kw):
    return check_pi(ctx.form, ctx.scales, ctx.radii,
                    max_centers=ctx.max_centers, **kw)


def _gcap_families(ctx):
    """(x0, R, r) with R = 2r and B(x0, R + 2r) clear of the truncation set."""
    return [(x, 2.0 * r, r) for x, r in
            ball_family(ctx.space, ctx.radii, 4.0, ctx.max_centers)]


@check("gcap", check_gcap)
def _chk_gcap(ctx, **kw):
    fns = ctx.family
    return check_gcap(ctx.form, ctx.scales, _gcap_families(ctx), fns, **kw)


@check("cs", check_cs, "rho_grid")
def _chk_cs(ctx, rho_grid: list[Positive] | None = None, **kw):
    fns = ctx.family
    top = max(ctx.radii)
    return check_cs(ctx.form, ctx.scales, _gcap_families(ctx), fns,
                    rho_grid=rho_grid or [top, 2.0 * top], **kw)


@check("exit", check_exit, "max_centers")
def _chk_exit(ctx, **kw):
    return check_exit(ctx.form, ctx.scales, ctx.radii,
                      max_centers=ctx.max_centers, **kw)


@check("tail_ujs", tail_and_ujs, "seed")
def _chk_tail_ujs(ctx, **kw):
    return tail_and_ujs(ctx.form, ctx.scales, ctx.radii, seed=ctx.cfg.seed,
                        **kw)


@check("jpsi_alt")
def _chk_jpsi_alt(ctx, phi_j: list[dict], spread_cap: Positive = 4.0):
    if ctx.form.jump is None:
        return _no_ball("J_psi-alt", "the form has no jump part", pieces=phi_j)
    c1, c2, table = fit_jpsi(ctx.form, ScaleFunction.from_config(phi_j))
    if not table:
        return _no_ball("J_psi-alt", "no pair of interior points", pieces=phi_j)
    spread = c2 / c1 if c1 > 0 else math.inf
    plateau = max(row["max_ratio"] for row in table)
    rows = [{"d": row["d"], "max_ratio": row["max_ratio"],
             "violation": plateau / row["max_ratio"]} for row in table]
    return ConditionReport(
        "J_psi-alt",
        constants={"c1": c1, "c2": c2, "spread": spread,
                   "spread_cap": spread_cap},
        ranges={"pieces": phi_j}, rows=rows,
        notes="two-sided comparability against the alternative scale",
    ).judge(spread=lambda s: not s > spread_cap)


@check("hk", fit_hk, "indicator", "mode")
def _chk_hk(ctx, mode: HKMode = "HK", **kw):
    return fit_hk(ctx.table, ctx.scales, ctx.space, mode=mode, **kw)


@check("hk_minus", fit_hk, "mode", "upper_dilations", "lower_dilations")
def _chk_hk_minus(ctx, **kw):
    return fit_hk(ctx.table, ctx.scales, ctx.space, mode="HK_minus", **kw)


@check("uhk_weak")
def _chk_uhk_weak(ctx):
    return fit_hk(ctx.table, ctx.scales, ctx.space, mode="UHK_weak")


@check("diag", diag_checks)
def _chk_diag(ctx, ndl_radii: list[Positive] | None = None, **kw):
    return diag_checks(ctx.table, ctx.scales, ctx.space, ctx.form,
                       ndl_radii or ctx.radii[:2], **kw)


@check("pc_equivalence", check_pc_equivalence)
def _chk_pc_equiv(ctx, **kw):
    out = check_pc_equivalence(ctx.scales, **kw)
    return ConditionReport(
        "pc-equivalence",
        constants={k: v for k, v in out.items() if k != "grid"},
        ranges=out["grid"],
    ).judge("unbounded")


@check("dominance")
def _chk_dominance(ctx, t: Positive | None = None):
    dm = dominance_map(ctx.scales, ctx.space, float(ctx.times[0]) if t is None else t)
    cross = dm.crossover[np.isfinite(dm.crossover)]
    return ConditionReport(
        "dominance-map",
        constants={"t": dm.t, "diag_edge": dm.diag_edge,
                   "crossover_min": float(cross.min()) if cross.size else math.nan,
                   "crossover_max": float(cross.max()) if cross.size else math.nan,
                   "c3": dm.c3, "c4": dm.c4, "log_ratio": dm.log_ratio,
                   "r_star": dm.r_star, "degenerate_root": dm.degenerate},
        ranges={"centers": int(len(dm.xs))},
        labels=dm.labels,
    ).judge("unbounded")


@check("tail_probability", tail_probability_check)
def _chk_tail_probability(ctx, **kw):
    return tail_probability_check(ctx.table, ctx.scales, ctx.space, **kw)


@check("chain_lower", chain_lower_check)
def _chk_chain_lower(ctx, **kw):
    return chain_lower_check(ctx.table, ctx.scales, ctx.space, **kw)


@check("phi", check_phi, "mode")
def _chk_phi(ctx, R: list[Positive] | None = None, **kw):
    radii = ctx.phi_R if R is None else R
    mode = ctx.cfg.mode
    n_centers = 1 if mode == "full" else min(3, ctx.max_centers)
    cyls = [CylinderSpec(x0=int(x), R=float(r)) for r in radii
            for x in ctx.space.spread_centers(5.0 * float(r), n_centers)]
    if not cyls:
        return _no_ball("PHI(phi)", "no cylinder fits the space")
    return check_phi(ctx.form, ctx.scales, cyls, mode=mode, **kw)


@check("regularity", check_regularity, "seed", "max_centers")
def _chk_regularity(ctx, radii: list[Positive] | None = None, **kw):
    return check_regularity(ctx.form, ctx.scales,
                            ctx.phi_R if radii is None else radii,
                            max_centers=min(2, ctx.max_centers),
                            seed=ctx.cfg.seed, **kw)


@check("meyer")
def _chk_meyer(ctx, rho_grid: list[Positive] | None = None):
    rhos = rho_grid or ctx.radii
    c1s = meyer_check(ctx.form, ctx.scales, rhos, ctx.times[:3])
    fits = {f"c1(rho={rho:g})": c1 for rho, c1 in zip(rhos, c1s)}
    return ConditionReport(
        "meyer-decomposition",
        constants={**fits, "max_over_min": (max(c1s) / min(c1s))
                   if min(c1s) > 0 else math.inf},
        ranges={"rhos": list(map(float, rhos))},
    ).judge(**dict.fromkeys(fits, np.isfinite))


@check("gap")
def _chk_gap(ctx, rho_grid: list[Positive] | None = None):
    rhos = rho_grid or ctx.radii
    fits = {f"c0(rho={rho:g})": gap_check(ctx.form, ctx.scales, rho,
                                          ctx.family) for rho in rhos}
    return ConditionReport(
        "truncation-gap",
        constants=fits, ranges={"rhos": list(map(float, rhos))},
    ).judge("unbounded")


@check("subordination")
def _chk_subordination(ctx, b: NonNegative = 1.0, gamma: Fraction = 0.5,
                       n_pairs: Count = 40, tol: Positive = 0.01):
    rng = np.random.RandomState(ctx.cfg.seed)
    interior = ctx.space.interior()
    pairs = [tuple(map(int, rng.choice(interior, 2, replace=False)))
             for _ in range(n_pairs)]
    quadv = subordinate_intensity_quadrature(ctx.form, gamma, pairs)
    intensity = subordinate_intensity(ctx.form, gamma)
    specv = np.array([intensity[x, y] for x, y in pairs])
    del intensity   # before the identity case's kernels
    rel = float(np.max(np.abs(quadv - specv) / np.maximum(specv, 1e-300)))
    (ident,) = subordinate(ctx.form, b=0.0, gamma=1.0 - 1e-12,
                           times=[ctx.times[0]]).kernels
    base = heat_kernel(ctx.form, [ctx.times[0]]).upper(0)
    # |ident - base| over the upper triangles, which hold the maximum as
    # both kernels are exactly symmetric, with ident packed in its own
    # buffer
    ident = _pack(ident, out=ident.reshape(-1)[:len(base)])
    id_err = float(np.abs(np.subtract(ident, base, out=ident),
                          out=ident).max())
    return ConditionReport(
        "subordination",
        constants={"b": b, "gamma": gamma, "quadrature_rel_err": rel,
                   "identity_case_err": id_err},
        ranges={"pairs": len(pairs)},
    ).judge(quadrature_rel_err=lambda err: err <= tol,
            identity_case_err=lambda err: err <= 1e-8)


# cross-consistency rules: (premise check, expected checks, policy).
# "strict" lists unconfigured expected checks as deviations; the Harnack-side
# rule only binds checks that actually ran.
CROSS_EXPECTED = ("phi", "tail_ujs", "pi", "gcap", "diag")
CROSS_RULES = (
    ("hk_minus", CROSS_EXPECTED, "strict"),
    ("phi", ("uhk_weak", "diag", "tail_ujs"), "configured-only"),
)


@dataclass
class SuiteReport:
    report: dict
    reports: dict[str, ConditionReport]   # check name -> its report


def run_suite(cfg: ExperimentConfig, threads: int = 1) -> SuiteReport:
    t_start = time.time()
    ctx = SuiteContext(cfg)
    checks = list(cfg.checks)   # an empty list yields an empty report

    def run_one(name):
        params = dict(cfg.check_params.get(name, {}))
        try:
            return CHECKS[name](ctx, **params)
        except Exception as exc:  # marked errored, suite continues
            return ConditionReport(
                name, ERRORED, notes=f"{type(exc).__name__}: {exc}",
                rows=[{"traceback": traceback.format_exc(limit=3)}])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = dict(zip(checks, pool.map(run_one, checks)))
    else:
        reports = {name: run_one(name) for name in checks}

    rules = []
    for premise, expected, policy in CROSS_RULES:
        entry = {"premise": f"{premise} certified",
                 "expected": list(expected), "evaluated": False,
                 "deviations": [], "skipped": []}
        prem = reports.get(premise)
        if prem is not None and prem.verdict in OK_VERDICTS:
            entry["evaluated"] = True
            for name in expected:
                rep = reports.get(name)
                if rep is None:
                    if policy == "strict":
                        entry["deviations"].append({"check": name,
                                                    "reason": "not configured"})
                    else:
                        entry["skipped"].append(name)
                elif rep.verdict not in OK_VERDICTS:
                    entry["deviations"].append(
                        {"check": name, "reason": f"verdict {rep.verdict}"})
        rules.append(entry)
    cross = {"evaluated": any(e["evaluated"] for e in rules), "rules": rules,
             "deviations": [d for e in rules for d in e["deviations"]]}

    outcome = [{"check": name, "verdict": rep.verdict, "expected": expected,
                "ok": (rep.verdict in OK_VERDICTS if expected is None
                       else rep.verdict == expected)}
               for name, rep in reports.items()
               for expected in [cfg.expect.get(name)]]

    report = {
        "name": cfg.name,
        "checks": {name: rep.to_dict() for name, rep in reports.items()},
        "cross_matrix": cross,
        "outcome": outcome,
        "all_ok": bool(all(o["ok"] for o in outcome)
                       and not cross["deviations"]),
        "provenance": {
            "config_hash": cfg.hash(),
            "version": __version__,
            "wall_time_s": round(time.time() - t_start, 3),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    return SuiteReport(report, reports)


def render_report(suite: SuiteReport, out_dir):
    """Emit report.json (canonical, key-sorted), per-check CSV ratio tables,
    and SVG plots.  Byte-stable given identical inputs and version."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    path = out / "report.json"
    path.write_text(json.dumps(_jsonable(suite.report), sort_keys=True,
                               indent=2) + "\n")
    written = [path]
    for name, rep in suite.reports.items():
        path = out / f"ratios_{name}.csv"
        if rep.rows and write_rows_csv(rep.rows, path):
            written.append(path)
    dom = suite.reports.get("dominance")
    if dom is not None and dom.labels is not None:
        path = out / "dominance.svg"
        svg_heatmap(dom.labels, path,
                    title=f"dominance map t={dom.constants['t']:g}")
        written.append(path)
    phi = suite.reports.get("phi")
    worst = {} if phi is None else phi.witness.get("worst", {})
    if "trace_minus" in worst:
        path = out / "caloric_worst.svg"
        tm = np.asarray(worst["trace_minus"], dtype=float)
        tp = np.asarray(worst["trace_plus"], dtype=float)
        xs = np.arange(tm.shape[1])
        series = [(f"Q- t{i}", xs, tm[i]) for i in range(tm.shape[0])]
        series += [(f"Q+ t{i}", xs, tp[i]) for i in range(tp.shape[0])]
        svg_curves(series, path, title="worst caloric function")
        written.append(path)
    hk = suite.reports.get("hk")
    rows = [] if hk is None or hk.verdict == ERRORED else hk.rows
    if rows:
        t_last = max(r["t"] for r in rows)
        sel = [r for r in rows if r["t"] == t_last]
        xs_centers = sorted({r["x"] for r in sel})
        x_mid = xs_centers[len(xs_centers) // 2]
        curve = sorted((r for r in sel if r["x"] == x_mid),
                       key=lambda r: r["d"])
        ds = [r["d"] for r in curve]
        path = out / "envelope_ratio.svg"
        svg_curves(
            [("kernel/upper", ds, [r["kernel_over_upper"] for r in curve]),
             ("kernel/lower", ds, [r["kernel_over_lower"] for r in curve])],
            path, title=f"envelope ratios at t={t_last:g}",
        )
        written.append(path)
    return written


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="formlab",
        description="Dirichlet-form laboratory: build finite diffusion+jump "
                    "models and verify scaling conditions with fitted "
                    "constants.",
    )
    parser.add_argument("--config", required=False,
                        help="config path or bundled name")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="validate the config and exit")
    sub.add_parser("build", help="build the space/form, export the point CSV")
    p_check = sub.add_parser("check", help="run a single check")
    p_check.add_argument("check_name")
    sub.add_parser("suite", help="run the configured checks and emit reports")
    p_rep = sub.add_parser("report", help="rewrite an existing report.json "
                                          "key-sorted (no CSV or SVG)")
    p_rep.add_argument("report_path")
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error("--threads must be at least 1")
    except SystemExit as exc:
        if exc.code:    # a usage error; exit 2 means unexpected verdicts
            return 3
        raise           # --help

    try:
        if args.command == "report":
            data = json.loads(Path(args.report_path).read_text())
            out = Path(args.out or ".")
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(
                json.dumps(data, sort_keys=True, indent=2) + "\n"
            )
            return 0
        if not args.config:
            print("--config is required", file=sys.stderr)
            return 3
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"config {cfg.name} valid ({cfg.hash()})")
            return 0
        if args.command == "build":
            ctx = SuiteContext(cfg)
            out = Path(args.out or cfg.out or ".")
            out.mkdir(parents=True, exist_ok=True)
            ctx.space.export_points_csv(out / "points.csv")
            print(f"built space n={ctx.space.n}, form assembled; "
                  f"points -> {out / 'points.csv'}")
            return 0
        if args.command == "check":
            cfg = validate_config({**vars(cfg), "checks": [args.check_name]})
        suite = run_suite(cfg, threads=args.threads)
        out_dir = args.out or cfg.out
        if out_dir:
            render_report(suite, out_dir)
        for o in suite.report["outcome"]:
            exp = "" if o["expected"] is None else f" (expected {o['expected']})"
            flag = "ok" if o["ok"] else "UNEXPECTED"
            print(f"{o['check']:>18}: {o['verdict']}{exp} [{flag}]")
        for dev in suite.report["cross_matrix"]["deviations"]:
            print(f"cross-matrix deviation: {dev}")
        return 0 if suite.report["all_ok"] else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"execution error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
