"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared heavy builds (the n = 256 diffusion+jump model and its kernels) are
module-scoped fixtures; stated runtime budgets are asserted where given.
"""

import json
import math
import time

import numpy as np
import pytest

from formlab.cli import load_config, run_suite, SuiteContext
from formlab.envelopes import (dominance_map, fit_hk, tail_probability_check)
from formlab.form import (JumpKernel, assemble, heat_kernel,
                          kernel_certificates, subordinate,
                          subordinate_intensity,
                          subordinate_intensity_quadrature)
from formlab.functionals import check_exit, fit_jpsi
from formlab.harnack import CylinderSpec, check_phi
from formlab.scales import ScaleFunction, ScaleTriple, legendre_sup
from formlab.space import build_space
from conftest import whole


def conclude(num, desc, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


def diffusion_triple():
    p = ScaleFunction.single_power(2.0)
    return ScaleTriple(p, p)


@pytest.fixture(scope="module")
def model256():
    sp = build_space("lattice_box", dim=1, side=256, margin=32)
    form = assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=1.0))
    table = heat_kernel(form, list(np.geomspace(1.0, 2.5, 4)))
    return sp, form, table


@pytest.fixture(scope="module")
def model128():
    sp = build_space("lattice_box", dim=1, side=128, margin=32)
    form = assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=1.0))
    table = heat_kernel(form, list(np.geomspace(1.0, 2.5, 4)))
    return sp, form, table


def test_01_kernel_exactness(expm_kernels):
    t0 = time.monotonic()
    worst = {"symmetry": 0.0, "chapman_kolmogorov": 0.0, "unit_mass": 0.0}
    agree = 0.0
    n_forms = 0
    for name in ("z1_mini", "z1_alpha1", "phi_counterexample"):
        ctx = SuiteContext(load_config(name))
        if ctx.space.n > 256:
            continue
        n_forms += 1
        certs = kernel_certificates(ctx.form, ctx.times)
        for k in worst:
            worst[k] = max(worst[k], certs[k])
        ts = list(ctx.times[:2])
        spec = heat_kernel(ctx.form, ts)
        for A, B in zip(whole(spec), expm_kernels(ctx.form, ts)):
            agree = max(agree, float(np.abs(A - B).max()))
    elapsed = time.monotonic() - t0
    ok = (n_forms >= 3 and all(v < 1e-10 for v in worst.values())
          and agree < 1e-8 and elapsed < 30.0)
    conclude(1, f"kernel exactness on {n_forms} forms "
                f"(worst defects {worst}, spectral-vs-expm {agree:.2e}, "
                f"{elapsed:.1f}s)", ok)


def test_02_legendre_surrogate():
    t0 = time.monotonic()
    grids = np.geomspace(1e-3, 1e3, 100)
    ok = True
    details = []
    for exp, lo_expect, hi_expect in (
        (2.0, 0.25, 1.0),
        (3.0, (2.0 / 3.0) / math.sqrt(3.0) * 0.95,
         (2.0 / 3.0) / math.sqrt(3.0) * 1.05),
    ):
        tr = ScaleTriple(ScaleFunction.single_power(exp),
                         ScaleFunction.single_power(1.0))
        lo, hi = math.inf, 0.0
        for t in grids:
            # one row call per t, bit-equal to the scalar call per (t, r)
            for r, sup in zip(grids, legendre_sup(tr, grids, t, 1.0)):
                q = sup / tr.m(t, r)
                lo, hi = min(lo, q), max(hi, q)
        details.append((exp, lo, hi))
        ok = ok and (lo >= lo_expect - 1e-9) and (hi <= hi_expect + 1e-9)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    conclude(2, f"legendre/m ratio brackets {details} in {elapsed:.1f}s", ok)


def test_03_hk_sandwich(model256, model128):
    t0 = time.monotonic()
    tr = alpha1_triple()
    fits = {}
    for label, (sp, form, table) in (("256", model256), ("128", model128)):
        fits[label] = fit_hk(table, tr, sp, mode="HK")
    rep256 = fits["256"]
    p256, p128 = fits["256"].constants, fits["128"].constants
    ratio = p256["c3"] / p256["c1"]
    drift = max(abs(p256["c1"] - p128["c1"]) / max(p256["c1"], p128["c1"]),
                abs(p256["c3"] - p128["c3"]) / max(p256["c3"], p128["c3"]))
    elapsed = time.monotonic() - t0
    ok = (rep256.verdict == "certified" and ratio <= 200.0
          and drift <= 0.3 and elapsed < 120.0)
    conclude(3, f"HK sandwich ratio {ratio:.1f} <= 200, size drift "
                f"{drift:.2%} <= 30%, {elapsed:.1f}s", ok)


def test_04_exit_time(model256):
    sp, form, _ = model256
    rep = check_exit(form, alpha1_triple(), [8.0, 16.0, 32.0, 64.0])
    c1 = rep.constants["c1"]
    # diffusion-only control against the tridiagonal oracle at r = 32
    form0 = assemble(sp, 1.0, None)
    rep0 = check_exit(form0, diffusion_triple(), [32.0])
    c1_diff = rep0.constants["c1"]
    ok = (rep.verdict == "certified" and c1 <= 20.0
          and abs(c1_diff - 2.0) <= 0.02)
    conclude(4, f"exit-time c1 {c1:.2f} <= 20; diffusion control "
                f"{c1_diff:.4f} = 2 +- 1%", ok)


def test_05_theorem_cross_matrix():
    suite = run_suite(load_config("z1_alpha1"))
    checks = suite.report["checks"]
    needed = ["pi", "gcap", "cs", "tail_ujs", "diag", "phi", "hk_minus"]
    verdicts = {k: checks[k]["verdict"] for k in needed}
    ok_verdicts = {"certified", "certified-for-family",
                   "one-sided-certificate"}
    ok = (all(v in ok_verdicts for v in verdicts.values())
          and suite.report["cross_matrix"]["evaluated"]
          and suite.report["cross_matrix"]["deviations"] == []
          and suite.report["all_ok"])
    conclude(5, f"equivalence-package verdicts {verdicts}, "
                "cross-matrix clean", ok)


def test_06_counterexample_fidelity():
    sp = build_space("lattice_box", dim=1, side=256, margin=32)
    phi_j = ScaleFunction.from_exponents([0.5, 1.5], [32.0])
    tr = ScaleTriple(ScaleFunction.single_power(2.0), phi_j)
    form = assemble(sp, 1.0, JumpKernel.stable_like(sp, tr.phi_j))
    c6 = {}
    for R in (8.0, 16.0):
        centers = sp.interior(5.0 * R + 1e-9)
        cyl = CylinderSpec(x0=int(centers[len(centers) // 2]), R=R)
        rep = check_phi(form, tr, [cyl], mode="necessary")
        assert rep.verdict in ("certified", "certified-for-family")
        c6[R] = rep.constants["C6"]
    stable = abs(c6[8.0] - c6[16.0]) / max(c6.values()) <= 0.5
    # the same kernel against the wrong small-scale exponent alpha' = 1.0
    wrong = ScaleFunction.from_exponents([1.0, 1.5], [32.0])
    _, _, table = fit_jpsi(form, wrong)
    plateau = max(row["max_ratio"] for row in table if row["d"] >= 32.0)
    viol = {row["d"]: plateau / row["max_ratio"]
            for row in table if row["d"] in (1.0, 2.0, 4.0)}
    grows = viol[1.0] > viol[2.0] > viol[4.0]
    ok = stable and viol[2.0] >= 4.0 and grows
    conclude(6, f"PHI C6 {c6} stable within 50%; wrong-alpha violation "
                f"{viol} with >=4 at d=2, growing as d decreases", ok)


def test_07_subordination():
    g = build_space("gasket", level=5)
    form = assemble(g, 1.0, None)
    intensity = subordinate_intensity(form, 0.5)
    rng = np.random.RandomState(0x5EED)
    pairs = []
    while len(pairs) < 100:
        x, y = rng.randint(0, g.n, size=2)
        if x != y:
            pairs.append((int(x), int(y)))
    quad = subordinate_intensity_quadrature(form, 0.5, pairs)
    spec = np.array([intensity[x, y] for x, y in pairs])
    rel = float(np.max(np.abs(quad - spec) / spec))
    ident = subordinate(form, b=0.0, gamma=1.0 - 1e-12, times=[1.0])
    (base,) = whole(heat_kernel(form, [1.0]))
    id_err = float(np.abs(ident.kernels[0] - base).max())
    ok = rel <= 0.01 and id_err <= 1e-8
    conclude(7, f"subordinate intensities match quadrature to {rel:.2e} "
                f"on 100 pairs; identity case error {id_err:.2e}", ok)


def test_08_dominance_bracket(model256):
    sp, form, table = model256
    tr = alpha1_triple()
    t = tr.phi_c(8.0) * 1e-2
    dm = dominance_map(tr, sp, t)
    cross = dm.crossover[np.isfinite(dm.crossover)]
    lo = dm.c3 * tr.phi_c.inverse(t) * dm.log_ratio ** 0.5
    hi = dm.c4 * tr.phi_c.inverse(t) * dm.log_ratio ** 0.5
    inside = bool(np.all(cross >= lo - 1e-9) and np.all(cross <= hi + 1e-9))
    ok = (dm.c3 is not None and np.isfinite(dm.c3) and np.isfinite(dm.c4)
          and cross.size > 0 and inside)
    conclude(8, f"crossover distances within the log-bracket "
                f"[{lo:.3f}, {hi:.3f}] with fitted c3={dm.c3:.2f}, "
                f"c4={dm.c4:.2f}", ok)


def test_09_tail_probability(model256):
    sp, form, table = model256
    tr = alpha1_triple()
    rep = tail_probability_check(table, tr, sp, radii=[4.5, 8.5, 16.5])
    eta = rep.constants["eta"]
    beta1_j = min(tr.phi_j.exponents)
    sp0 = build_space("lattice_box", dim=1, side=256, margin=32)
    form0 = assemble(sp0, 1.0, None)
    table0 = heat_kernel(form0, list(np.geomspace(4.0, 64.0, 5)))
    rep0 = tail_probability_check(table0, diffusion_triple(), sp0,
                                  radii=[4.5, 8.5, 16.5])
    ok = (rep.verdict == "certified" and 0.0 < eta <= beta1_j
          and np.isfinite(rep.constants["c1"])
          and rep0.constants["c_jump"] < 1e-12)
    conclude(9, f"tail bound certified with eta={eta} in (0, beta1_phij], "
                f"a1={rep.constants['a1']}; diffusion-only jump "
                f"coefficient {rep0.constants['c_jump']:.1e} < 1e-12", ok)


def test_10_determinism():
    # wall-clock data lives inside the provenance block per the determinism
    # invariant; the comparison excludes exactly those provenance fields
    reports = []
    for _ in range(2):
        suite = run_suite(load_config("z1_mini"))
        rep = json.loads(json.dumps(suite.report, sort_keys=True,
                                    default=str))
        rep["provenance"].pop("timestamp")
        rep["provenance"].pop("wall_time_s")
        reports.append(json.dumps(rep, sort_keys=True))
    ok = reports[0] == reports[1]
    conclude(10, "byte-identical reports across reruns "
                 "(provenance timestamp excluded)", ok)
