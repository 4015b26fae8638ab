"""The hoisted envelope, tail, chain and J-psi sweeps against in-test copies
of the loop formulas they replaced, which recompute every geometric piece
per time, per dilation and per entry, the subordination quadrature with
nodes shared across pairs against the per-pair one, and the block-streamed
NDL, Meyer and regularity sweeps against copies of the loops that sliced
whole kernel tables.  The Meyer bisection on row maxima, the
generalized-capacity sweep with one capacity solve per family and the
batched chain-lower bases are held to the same copies of the whole-matrix,
per-kappa and per-triple loops, and the meet-in-the-middle chain programme
to the forward one it replaced.  Outputs must be equal, not close: the
rewrites move computations, they do not change them.  The one exception is
FULL-mode caloric stepping, which now steps in eigen-coordinates instead of
projecting there and back on every step: it is held to its old loop within
1e-11 relative."""

import bisect
import importlib.resources
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.special import gamma as gamma_fn
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from formlab.cli import (SuiteContext, _build_scales, _gcap_families,
                         _jsonable, load_config)
import formlab.envelopes as envelopes
import formlab.form
from formlab.envelopes import (FLOOR_REL, RATIO_ROWS, _EnvelopeGrid, _pow,
                               chain_lower_check, check_pc_equivalence,
                               diag_checks, dominance_map, fit_hk,
                               tail_probability_check, usable_times)
from formlab.form import (JumpKernel, assemble, heat_kernel, kernel_blocks,
                          meyer_check, subordinate_intensity_quadrature)
from formlab.functionals import (ConditionReport, capacity, check_gcap,
                                 fit_jpsi, generalized_capacity)
from formlab.harnack import (FLOOR, CylinderSpec, _flow_times, _theta_fit,
                             _window_times, caloric_poisson, check_phi,
                             check_regularity, harmonic_solve)
from formlab.scales import (_GOLDEN, ScaleFunction, ScaleTriple,
                            _legendre_closed_form, _log_grid, legendre_sup)
from formlab.space import (MetricMeasureSpace, _min_max_steps, _ranks,
                           build_space, chain_check)
from conftest import whole, whole_jump
from test_energy_oracles import context, truncated_form

MODES = ("HK", "HK_minus", "UHK", "UHK_weak", "HK_local")
CONFIGS = importlib.resources.files("formlab.configs")


def canon(obj):
    return json.dumps(_jsonable(obj), sort_keys=True)


def same_report(a, b):
    assert canon(a.to_dict()) == canon(b.to_dict())
    assert canon(a.rows) == canon(b.rows)


@pytest.fixture(scope="module", params=["z1_mini", "gasket_walk"])
def ctx(request):
    return context(request.param)


# -- the replaced formulas ----------------------------------------------------


def old_volumes_at(space, xs, radius):
    return np.array([space.volume(int(x), radius) for x in xs])


def old_envelope_arrays(scales, space, t, xs, ys, dilation=1.0):
    td = t * dilation
    d_sub = space.metric[np.ix_(xs, ys)]
    uq, inv = np.unique(d_sub, return_inverse=True)
    m_u = np.zeros_like(uq)
    pos = uq > 0.0
    m_u[pos] = uq[pos] / scales.bar_phi_c.inverse(td / uq[pos])
    phij_u = np.ones_like(uq)
    phij_u[pos] = scales.phi_j(uq[pos])
    m_grid = m_u[inv].reshape(d_sub.shape)
    phij_grid = phij_u[inv].reshape(d_sub.shape)
    Vc = old_volumes_at(space, xs, scales.phi_c.inverse(td))
    Vj = old_volumes_at(space, xs, scales.phi_j.inverse(t))
    Vphi = old_volumes_at(space, xs, scales.phi.inverse(t))
    Vd = np.empty_like(d_sub)
    for i, x in enumerate(xs):
        Vd[i] = space.volumes(int(x), d_sub[i])
    with np.errstate(over="ignore"):
        pc = np.exp(-np.minimum(m_grid, 700.0)) / Vc[:, None]
    far = np.empty_like(d_sub)
    np.divide(t, Vd * phij_grid, out=far, where=(Vd * phij_grid) > 0.0)
    far[(Vd * phij_grid) <= 0.0] = np.inf
    pj = np.minimum(1.0 / Vj[:, None], far)
    return {"d": d_sub, "Vc": Vc, "Vj": Vj, "Vphi": Vphi, "Vd": Vd,
            "pc": pc, "pj": pj, "m": m_grid}


@dataclass
class OldParams:
    """The constants the old fit held beside its report."""

    c1: float = math.nan
    c2: float = math.nan
    c3: float = math.nan
    c4: float = math.nan
    c0: float = math.nan
    indicator: float = math.nan
    excluded: int = 0
    grid: dict = field(default_factory=dict)

    def constants(self):
        """The finite constants, as the report carries them."""
        return {k: v for k in ("c1", "c2", "c3", "c4", "c0", "indicator")
                if isinstance(v := getattr(self, k), float)
                and np.isfinite(v)}


def old_fit_hk(table, scales, space, mode, upper_dilations=(1.0, 2.0, 4.0),
               lower_dilations=(1.0, 0.5, 0.25), indicator=1.0):
    xs = space.interior(space.interior_margin)
    keep = usable_times(table, space, 0.01)
    kernels = whole(table)
    params = OldParams()
    params.grid = {"times": [float(table.times[i]) for i in keep],
                   "n_centers": int(len(xs))}
    excluded = 0
    with_jump = mode in ("HK", "HK_minus", "UHK", "UHK_weak")
    witnesses = {}

    def floors(K):
        return FLOOR_REL * float(K.max())

    def _extreme(ratio, ok, t, pick_max):
        masked = np.where(ok, ratio, -np.inf if pick_max else np.inf)
        flat = int(np.argmax(masked) if pick_max else np.argmin(masked))
        a, b = np.unravel_index(flat, ratio.shape)
        return {"t": float(t), "x": int(xs[a]), "y": int(xs[b]),
                "ratio": float(ratio[a, b])}

    def capped(env):
        P = env["pc"] + (env["pj"] if with_jump else 0.0)
        cap = (np.minimum(1.0 / env["Vc"], 1.0 / env["Vj"])[:, None]
               if with_jump else (1.0 / env["Vc"])[:, None])
        return np.minimum(cap, P)

    best_upper = (math.inf, math.nan)
    if mode in ("HK", "UHK", "HK_local"):
        for c4 in upper_dilations:
            worst, exc_u, wit = 0.0, 0, None
            for i in keep:
                t = table.times[i]
                K = kernels[i][np.ix_(xs, xs)]
                U = capped(old_envelope_arrays(scales, space, t, xs, xs, c4))
                ok = K > floors(kernels[i])
                exc_u += int((~ok).sum())
                if ok.any():
                    cand = _extreme(K / U, ok, t, pick_max=True)
                    if cand["ratio"] > worst:
                        worst, wit = cand["ratio"], cand
            if worst < best_upper[0]:
                best_upper = (worst, c4)
                excluded = max(excluded, exc_u)
                if wit is not None:
                    witnesses["upper"] = wit
        params.c3, params.c4 = best_upper
    elif mode == "UHK_weak":
        worst = 0.0
        for i in keep:
            t = table.times[i]
            K = kernels[i][np.ix_(xs, xs)]
            env = old_envelope_arrays(scales, space, t, xs, xs)
            d = env["d"]
            phi_d = np.ones_like(d)
            pos = d > 0.0
            phi_d[pos] = scales.phi(d[pos])
            far = np.full_like(d, np.inf)
            denom = env["Vd"] * phi_d
            np.divide(t, denom, out=far, where=denom > 0.0)
            U = np.minimum((1.0 / env["Vphi"])[:, None], far)
            ok = K > floors(kernels[i])
            if ok.any():
                worst = max(worst, float((K[ok] / U[ok]).max()))
        params.c3 = worst

    if mode in ("HK", "HK_local"):
        best_lower = (0.0, math.nan)
        for c2 in lower_dilations:
            best, exc, wit = math.inf, 0, None
            for i in keep:
                t = table.times[i]
                K = kernels[i][np.ix_(xs, xs)]
                L = capped(old_envelope_arrays(scales, space, t, xs, xs, c2))
                fl = floors(kernels[i])
                ok = (L > fl) & (K > fl)
                exc += int((~ok).sum())
                if ok.any():
                    cand = _extreme(K / L, ok, t, pick_max=False)
                    if cand["ratio"] < best:
                        best, wit = cand["ratio"], cand
            if best > best_lower[0] and np.isfinite(best):
                best_lower = (best, c2)
                excluded = max(excluded, exc)
                if wit is not None:
                    witnesses["lower"] = wit
        params.c1, params.c2 = best_lower
    elif mode == "HK_minus":
        best, exc = math.inf, 0
        for i in keep:
            t = table.times[i]
            K = kernels[i][np.ix_(xs, xs)]
            env = old_envelope_arrays(scales, space, t, xs, xs)
            near = env["d"] <= indicator * scales.phi.inverse(t)
            L = np.where(near, (1.0 / env["Vphi"])[:, None], env["pj"])
            fl = floors(kernels[i])
            ok = (L > fl) & (K > fl)
            exc += int((~ok).sum())
            if ok.any():
                cand = _extreme(K / L, ok, t, pick_max=False)
                if cand["ratio"] < best:
                    best = cand["ratio"]
                    witnesses["lower"] = cand
        params.c0 = best
        params.indicator = indicator
        excluded = exc
    params.excluded = excluded
    return params, witnesses


def old_tail_probability(table, scales, space, radii, a1_grid, gauss_cap):
    D = space.metric
    xs = space.interior(space.interior_margin)
    keep = usable_times(table, space, 0.05)
    kernels = whole(table)
    eta = min(scales.phi_j.exponents)
    entries = []
    for i in keep:
        t = table.times[i]
        K = kernels[i]
        for x in xs:
            if space.dist_to_boundary[x] < max(radii):
                continue
            drow = D[x]
            for r in radii:
                outside = drow >= r
                mass = float((K[x][outside] * space.mu[outside]).sum())
                entries.append((mass, float(r), float(t),
                                float(scales.m(t, r))))
    best = None
    for a1 in a1_grid:
        cg_all = max((mass * math.exp(min(a1 * mval, 700.0))
                      for mass, r, t, mval in entries), default=0.0)
        if cg_all <= gauss_cap:
            best = {"a1": a1, "c_gauss": cg_all, "c_jump": 0.0}
            break
    if best is None:
        a1 = a1_grid[-1]
        c_gauss = max((mass * math.exp(min(a1 * mval, 700.0))
                       for mass, r, t, mval in entries
                       if r <= 2.0 * scales.phi.inverse(t)), default=0.0)
        c_jump = max((mass * (r / scales.phi_j.inverse(t)) ** eta
                      for mass, r, t, mval in entries
                      if r > 2.0 * scales.phi.inverse(t)), default=0.0)
        best = {"a1": a1, "c_gauss": c_gauss, "c_jump": c_jump}
    c1 = max(best["c_jump"], best["c_gauss"])
    return ConditionReport(
        "tail-probability", "certified" if np.isfinite(c1) else "failed",
        constants={"eta": eta, "a1": best["a1"], "c1": c1,
                   "c_jump": best["c_jump"], "c_gauss": best["c_gauss"],
                   "eta_within_beta1_phij": True},
        ranges={"radii": list(map(float, radii)),
                "times": [float(table.times[i]) for i in keep],
                "instances": len(entries)},
    )


def old_chain_lower(table, scales, space, c0, m_cap):
    D = space.metric
    xs = space.interior(space.interior_margin)
    keep = usable_times(table, space)
    kernels = whole(table)
    times = [table.times[i] for i in keep]
    c5 = math.inf
    for t, i in zip(times, keep):
        K = kernels[i]
        Vc = old_volumes_at(space, xs, scales.phi_c.inverse(t))
        near = D[np.ix_(xs, xs)] <= scales.phi_c.inverse(t)
        vals = (K[np.ix_(xs, xs)] * Vc[:, None])[near]
        if vals.size:
            c5 = min(c5, float(vals.min()))
    c6, used, rows = 1.0, 0, []
    for t, i in zip(times, keep):
        K = kernels[i]
        Vc = old_volumes_at(space, xs, scales.phi_c.inverse(t))
        d_sub = D[np.ix_(xs, xs)]
        mvals = old_envelope_arrays(scales, space, t, xs, xs)["m"]
        sel = (d_sub >= c0 * scales.phi_c.inverse(t)) & (mvals <= m_cap)
        K_sub = K[np.ix_(xs, xs)]
        floor = FLOOR_REL * float(K.max())
        ii, jj = np.nonzero(sel & (K_sub > floor))
        for a, b in zip(ii, jj):
            base = (K_sub[a, b] * Vc[a] / c5) ** (1.0 / mvals[a, b])
            rows.append({"t": t, "m": float(mvals[a, b]), "base": float(base)})
            c6 = min(c6, float(base))
            used += 1
    # one row per stride triples, in sweep order
    return c5, c6, used, rows[::max(1, math.ceil(used / RATIO_ROWS))]


def old_min_max_step(D, x, y, n):
    d = D[x, y]
    sel = np.nonzero(D[x] + D[y] <= 3.0 * d + 1e-9)[0]
    sub = D[np.ix_(sel, sel)]
    pos = {int(p): i for i, p in enumerate(sel)}
    f = np.full(len(sel), np.inf)
    f[pos[x]] = 0.0
    for _ in range(n):
        f = np.min(np.maximum(f[:, None], sub), axis=0)
    return float(f[pos[y]])


def forward_min_max_steps(space, x, y, max_n):
    # one forward programme over the gathered ellipse, all n at once
    d = space.metric[x, y]
    sel = np.nonzero(space.metric[x] + space.metric[y] <= 3.0 * d + 1e-9)[0]
    sub = space.metric[np.ix_(sel, sel)]
    pos = {int(p): i for i, p in enumerate(sel)}
    f = np.full(len(sel), np.inf)
    f[pos[x]] = 0.0
    steps = []
    for _ in range(max_n):
        f = np.min(np.maximum(f[:, None], sub), axis=0)
        steps.append(float(f[pos[y]]))
    return steps


def old_chain_check(space, samples=40, seed=0x5EED, max_n=6):
    D = space.metric
    rng = np.random.RandomState(seed)
    pts = space.interior()
    worst, count = 1.0, 0
    for _ in range(samples):
        x, y = rng.choice(pts, size=2, replace=False)
        d = D[x, y]
        if d <= 0.0:
            continue
        for n in range(2, min(max_n, int(d)) + 1):
            step = old_min_max_step(D, int(x), int(y), n)
            worst = max(worst, step * n / d)
            count += 1
    return worst, count


def old_fit_jpsi(form, psi):
    space = form.space
    D = space.metric
    interior = space.interior(space.interior_margin)
    J = whole_jump(form)
    per_d = {}
    c1, c2 = math.inf, 0.0
    for x in interior:
        d = D[x][interior]
        mask = d > 0.0
        V = space.volumes(x, d[mask] + 1e-9)
        ratio = J[x][interior][mask] * V * psi(d[mask])
        c1 = min(c1, float(ratio.min()))
        c2 = max(c2, float(ratio.max()))
        for dd, rr in zip(d[mask], ratio):
            key = round(float(dd), 9)
            lo, hi = per_d.get(key, (math.inf, 0.0))
            per_d[key] = (min(lo, float(rr)), max(hi, float(rr)))
    return c1, c2, [{"d": k, "min_ratio": v[0], "max_ratio": v[1]}
                    for k, v in sorted(per_d.items())]


def float_fit_jpsi(form, psi):
    # the fit on float distances: V(x, d + 1e-9) searched per pair, psi
    # taken per pair and the per-distance table keyed by np.unique
    space = form.space
    interior = space.interior()
    block = np.ix_(interior, interior)
    d = space.dist(*block)
    mask = d > 0.0
    V = space.volumes(interior[:, None], d + 1e-9)[mask]
    dists = d[mask]
    ratios = whole_jump(form)[block][mask] * V * psi(dists)
    c1 = float(np.fmin.reduce(ratios, initial=math.inf))
    c2 = float(np.fmax.reduce(ratios, initial=0.0))
    uq, inv = np.unique(dists, return_inverse=True)
    lo_u = np.full(len(uq), math.inf)
    hi_u = np.zeros(len(uq))
    np.fmin.at(lo_u, inv, ratios)
    np.fmax.at(hi_u, inv, ratios)
    per_d = {}
    for dd, lo_d, hi_d in zip(uq, lo_u, hi_u):
        key = round(float(dd), 9)
        lo, hi = per_d.get(key, (math.inf, 0.0))
        per_d[key] = (min(lo, float(lo_d)), max(hi, float(hi_d)))
    return c1, c2, [{"d": k, "min_ratio": v[0], "max_ratio": v[1]}
                    for k, v in sorted(per_d.items())]


def old_diag_checks(table, scales, space, form, ndl_radii=(8.0, 16.0),
                    eps=0.25, nl_constant=1.0):
    D = space.metric
    xs = space.interior()
    keep = usable_times(table, space, 0.01)
    kernels = whole(table)
    c_uhkd = 0.0
    c_nl = math.inf
    for i in keep:
        t = table.times[i]
        Vphi = old_volumes_at(space, xs, scales.phi.inverse(t))
        diag = kernels[i][xs, xs]
        c_uhkd = max(c_uhkd, float((diag * Vphi).max()))
        near = D[np.ix_(xs, xs)] <= nl_constant * scales.phi.inverse(t)
        K = kernels[i][np.ix_(xs, xs)]
        vals = (K * Vphi[:, None])[near]
        if vals.size:
            c_nl = min(c_nl, float(vals.min()))
    c_ndl = math.inf
    mono_defect = 0.0
    ndl_rows = []
    for r in map(float, ndl_radii):
        centers = space.interior(r + 1e-9)[:3]
        if len(centers) == 0:
            continue
        t_top = scales.phi(eps * r)
        t_floor = min(scales.phi(1.0), t_top)
        ts = list(np.geomspace(t_floor, t_top, 4))
        full = heat_kernel(form, ts)
        for x0 in map(int, centers):
            B = space.ball(x0, r)
            tabB = heat_kernel(form, ts, domain=B)
            posB = {int(p): k for k, p in enumerate(B)}
            for t, KB, KF in zip(ts, tabB.kernels, whole(full)):
                rad = eps * scales.phi.inverse(t)
                core = [p for p in B if D[x0, p] < max(rad, 1e-12)]
                if not core:
                    core = [x0]
                ci = [posB[p] for p in core]
                Vx0 = space.volume(x0, scales.phi.inverse(t))
                sub = KB[np.ix_(ci, ci)]
                c_ndl = min(c_ndl, float(sub.min()) * Vx0)
                mono_defect = max(mono_defect, float(
                    (KB - KF[np.ix_(B, B)]).max()
                ))
                ndl_rows.append({"x0": x0, "r": r, "t": t,
                                 "c1": float(sub.min()) * Vx0})
    return c_uhkd, c_nl, c_ndl, mono_defect, ndl_rows


def old_meyer_check(form, scales, rho, times):
    space = form.space
    interior = space.interior()
    kernels = whole(heat_kernel(form, times))
    truncated = whole(heat_kernel(truncated_form(form, rho), times))
    block = np.ix_(interior, interior)
    diffs = [(P - Qk)[block] for P, Qk in zip(kernels, truncated)]
    phi_rho = scales.phi(rho)
    phij_rho = scales.phi_j(rho)
    Vrho = np.array([space.volume(x, rho) for x in interior])

    def excess(c1):
        worst = -np.inf
        for t, diff in zip(times, diffs):
            bound = c1 * t / (Vrho[:, None] * phij_rho) * math.exp(
                c1 * t / phi_rho)
            worst = max(worst, float((diff - bound).max()))
        return worst

    if excess(0.0) <= 0.0:
        return {"c1": 0.0, "rho": rho}
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            return {"c1": math.inf, "rho": rho}
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return {"c1": hi, "rho": rho}


def old_theta_fit(pairs, theta_grid, cap):
    """pairs: list of (|du|, normalized separation, sup|u|)."""
    best = (None, math.inf)
    for theta in sorted(theta_grid, reverse=True):
        c = 0.0
        for du, sep, supu in pairs:
            if supu <= FLOOR or sep <= 0.0:
                continue
            c = max(c, du / (sep ** theta * supu))
        if c <= cap:
            return theta, c
        best = (theta, c)
    return best


def old_check_regularity(form, scales, radii, eps=0.5,
                         theta_grid=(1.0, 0.5, 0.25, 0.125), c_cap=32.0,
                         n_window_times=4, max_centers=2, seed=0x5EED):
    space = form.space
    D = space.metric
    rng = np.random.RandomState(seed)
    ehr_pairs_by_fn, phr_pairs_by_fn, rows = [], [], []
    for r in radii:
        centers = space.spread_centers(r, max_centers)
        if len(centers) == 0:
            continue
        # caloric family: global heat flows sampled in the last window
        phi_r = scales.phi(r)
        ts = _window_times(phi_r - scales.phi(eps * r), phi_r, n_window_times)
        kernels = whole(heat_kernel(form, ts))
        for x0 in map(int, centers):
            B = space.ball(x0, r)
            ext = np.setdiff1d(np.arange(form.n), B)
            if len(ext) == 0:
                continue
            core = [p for p in B if D[x0, p] < eps * r]
            if len(core) < 2:
                continue
            # harmonic Poisson columns for a sample of exterior atoms
            picks = ext[rng.choice(len(ext), size=min(12, len(ext)),
                                   replace=False)]
            for z in picks:
                data = np.zeros(form.n)
                data[z] = 1.0
                u = harmonic_solve(form, B, data)
                supu = float(np.abs(u).max())
                ehr_pairs_by_fn.append([
                    (abs(u[p] - u[q]), D[p, q] / r, supu)
                    for i, p in enumerate(core) for q in core[i + 1:]])
            zs = np.arange(form.n)[rng.choice(form.n, size=min(8, form.n),
                                              replace=False)]
            for z in zs:
                traces = np.stack([K[:, z] * form.mu[z] for K in kernels])
                supu = float(np.abs(traces).max())
                prs = []
                for a in range(len(ts)):
                    for b in range(a, len(ts)):
                        for i, p in enumerate(core):
                            for q in core[i:]:
                                if a == b and p == q:
                                    continue
                                sep = (scales.phi.inverse(abs(ts[a] - ts[b]))
                                       if a != b else 0.0)
                                sep = (sep + D[p, q]) / r
                                prs.append((abs(traces[a, p] - traces[b, q]),
                                            sep, supu))
                phr_pairs_by_fn.append(prs)
            rows.append({"x0": x0, "r": r, "n_core": len(core)})

    def family_fit(groups):
        theta_fam, c_fam = 1.0, 0.0
        for prs in groups:
            theta, c = old_theta_fit(prs, theta_grid, c_cap)
            if theta is None:
                return None, math.inf
            theta_fam = min(theta_fam, theta)
            c_fam = max(c_fam, c)
        return theta_fam, c_fam

    if not ehr_pairs_by_fn or not phr_pairs_by_fn:
        return ConditionReport(
            "PHR/EHR", "failed",
            ranges={"radii": list(map(float, radii))},
            notes="no usable family: every core ball at eps*r has fewer "
                  "than two points",
        )
    theta_e, c_e = family_fit(ehr_pairs_by_fn)
    theta_p, c_p = family_fit(phr_pairs_by_fn)
    ok = theta_e is not None and theta_p is not None
    return ConditionReport(
        "PHR/EHR", "certified" if ok else "failed",
        constants={"theta_EHR": theta_e, "c_EHR": c_e,
                   "theta_PHR": theta_p, "c_PHR": c_p,
                   "eps": eps, "c_cap": c_cap},
        ranges={"radii": list(map(float, radii)),
                "ehr_functions": len(ehr_pairs_by_fn),
                "phr_functions": len(phr_pairs_by_fn)},
        rows=rows,
    )


def old_generalized_capacity(form, f, A, B, kappa=1.0, x0=None, radii=None):
    f = np.asarray(f, dtype=float)
    f2 = f * f
    _, eq = capacity(form, A, B)
    candidates = [eq]
    if kappa > 1.0:
        candidates.append(np.minimum(kappa * eq, kappa))
    if x0 is not None and radii is not None:
        r_in, r_out = radii
        d = form.space.metric[x0]
        ramp = np.clip((r_out - d) / max(r_out - r_in, 1e-12), 0.0, 1.0)
        outside = d >= r_out
        ramp[outside] = 0.0
        candidates.append(ramp)
        if kappa > 1.0:
            candidates.append(np.minimum(kappa * ramp, kappa))
    vals = [float((f2 * phi) @ form.A @ phi) for phi in candidates]
    k = int(np.argmin(vals))
    return vals[k], candidates[k]


def old_check_gcap(form, scales, families, test_fns, kappas):
    space = form.space
    rows = []
    fitted = {k: 0.0 for k in kappas}
    witness = {}
    for x0, R, r in families:
        A_idx = space.ball(x0, R)
        B_idx = space.ball(x0, R + r)
        if len(B_idx) >= form.n or len(A_idx) == 0:
            continue
        phi_r = scales.phi(r)
        for fi, f in enumerate(test_fns):
            mass = float(np.sum(np.asarray(f)[B_idx] ** 2 * space.mu[B_idx]))
            if mass <= 0.0:
                continue
            for kappa in kappas:
                val, _ = old_generalized_capacity(
                    form, f, A_idx, B_idx, kappa, x0=x0, radii=(R, R + r))
                c = val * phi_r / mass
                rows.append({"x0": x0, "R": R, "r": r, "kappa": kappa,
                             "fn": fi, "C": c})
                if c > fitted[kappa]:
                    fitted[kappa] = c
                    if kappa == min(kappas):
                        witness = {"x0": x0, "R": R, "r": r, "fn": fi, "C": c}
    return fitted, witness, rows


# -- equality with the hoisted sweeps ------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dilations", [
    {},
    # reversed, so that ties between dilations resolve differently
    {"upper_dilations": (4.0, 2.0, 1.0), "lower_dilations": (0.25, 0.5, 1.0)},
])
@pytest.mark.parametrize("ctx", ["z1_mini", "gasket_walk", "weighted_z1_mini"],
                         indirect=True)
def test_fit_hk_equals_loop_formulas(ctx, mode, dilations):
    rep = fit_hk(ctx.table, ctx.scales, ctx.space, mode=mode, **dilations)
    want, witnesses = old_fit_hk(ctx.table, ctx.scales, ctx.space, mode,
                                 **dilations)
    assert canon(rep.constants) == canon(want.constants())
    assert rep.ranges["times_used"] == want.grid["times"]
    assert canon(rep.witness) == canon(witnesses)
    assert rep.ranges["excluded_triples"] == want.excluded


def test_envelope_ratio_rows_equal_loop_formulas(ctx, monkeypatch):
    # the rows carry the fitted mode's sandwich and are nan wherever
    # fit_hk excludes the triple
    monkeypatch.setattr(envelopes, "RATIO_ROWS", 300)
    for mode in ("HK", "HK_local"):
        rep = fit_hk(ctx.table, ctx.scales, ctx.space, mode=mode)
        want = old_ratio_rows(ctx, mode, rep.constants, 300)
        assert canon(rep.rows) == canon(want)


def old_ratio_rows(ctx, mode, params, max_rows):
    xs = ctx.space.interior()
    keep = usable_times(ctx.table, ctx.space)
    kernels = whole(ctx.table)
    stride = max(1, int(math.sqrt(len(keep) * len(xs) ** 2 / max_rows)))
    xs = xs[::stride]
    rows = []
    for i in keep:
        t = ctx.table.times[i]
        K = kernels[i][np.ix_(xs, xs)]
        env = {c: old_envelope_arrays(ctx.scales, ctx.space, t, xs, xs, c)
               for c in (params["c4"], params["c2"])}
        if mode == "HK_local":
            U, L = (np.minimum((1.0 / e["Vc"])[:, None], e["pc"])
                    for e in (env[params["c4"]], env[params["c2"]]))
        else:
            U, L = (np.minimum(np.minimum(1.0 / e["Vc"],
                                          1.0 / e["Vj"])[:, None],
                               e["pc"] + e["pj"])
                    for e in (env[params["c4"]], env[params["c2"]]))
        floor = FLOOR_REL * float(kernels[i].max())
        for a, x in enumerate(xs):
            for b, y in enumerate(xs):
                kept = K[a, b] > floor
                up = K[a, b] / U[a, b] if kept else math.nan
                low = (K[a, b] / L[a, b] if kept and L[a, b] > floor
                       else math.nan)
                rows.append({"t": float(t), "x": int(x), "y": int(y),
                             "d": float(ctx.space.dist(x, y)),
                             "kernel_over_upper": float(up),
                             "kernel_over_lower": float(low)})
    return rows


@pytest.mark.parametrize("a1_grid,gauss_cap", [
    ((1.0, 0.5, 0.25), 1e6),
    ((1e-3,), 1e-3),   # no a1 covers every tail: the jump/Gauss split runs
])
def test_tail_probability_equals_loop_formulas(ctx, a1_grid, gauss_cap):
    radii = np.array([1.5, 2.5, 4.5])
    rep = tail_probability_check(ctx.table, ctx.scales, ctx.space,
                                 radii=radii, a1_grid=a1_grid,
                                 gauss_cap=gauss_cap)
    want = old_tail_probability(ctx.table, ctx.scales, ctx.space, radii,
                                a1_grid, gauss_cap)
    assert rep.ranges["instances"] > 0
    same_report(rep, want)


def test_tail_probability_default_grid_equals_loop_formulas():
    # the default radii and margin, on the lattice the benchmark sweeps
    ctx = SuiteContext(load_config("z1_alpha1"))
    space = ctx.space
    radii = np.unique(np.geomspace(1.0, max(2.0, space.interior_margin),
                                   5)) + 0.5
    rep = tail_probability_check(ctx.table, ctx.scales, space)
    want = old_tail_probability(ctx.table, ctx.scales, space, radii,
                                (1.0, 0.5, 0.25, 0.125, 0.0625), 1e6)
    assert rep.ranges["instances"] > 0
    same_report(rep, want)


@pytest.mark.parametrize("ctx", ["z1_mini", "gasket_walk", "weighted_z1_mini"],
                         indirect=True)
def test_chain_lower_equals_loop_formulas(ctx):
    rep = chain_lower_check(ctx.table, ctx.scales, ctx.space, c0=1.5,
                            m_cap=40.0)
    c5, c6, used, rows = old_chain_lower(ctx.table, ctx.scales, ctx.space,
                                         1.5, 40.0)
    assert rep.constants == {"c5": c5, "c6": c6}
    assert rep.ranges["triples"] == used
    assert canon(rep.rows) == canon(rows)


def unbounded_line(side):
    """A 1-d lattice with mu(i) = 1 + 0.5 sin^2(i) and no truncation set:
    every point is interior and every time usable, so a radius may pass
    the largest distance u[-1]."""
    sp = build_space("lattice_box", dim=1, side=side)
    mu = 1.0 + 0.5 * np.sin(np.arange(sp.n)) ** 2
    return MetricMeasureSpace(sp.metric, mu, edges=sp.edges)


def test_rank_masks_past_the_last_distance():
    # every pair is interior, the farthest at u[-1]: at the last time
    # phi_c^{-1}(t) passes u[-1], so every pair is near the diagonal for
    # chain-lower's c5 and none is far enough for its c6, and every pair
    # is in the dominance map's diagonal region; diag's NL radius at
    # nl_constant 1e6 passes u[-1] at every time
    sp = unbounded_line(24)
    scales = ScaleTriple(ScaleFunction.single_power(2.0),
                         ScaleFunction.single_power(1.0))
    far = scales.phi_c(2.0 * sp.u[-1])
    form = assemble(sp, 1.0, JumpKernel.power_law(sp, 1.0))
    table = heat_kernel(form, [1.0, 4.0, far])
    assert usable_times(table, sp) == [0, 1, 2]
    rep = chain_lower_check(table, scales, sp, c0=1.5, m_cap=40.0)
    c5, c6, used, rows = old_chain_lower(table, scales, sp, 1.5, 40.0)
    assert used > 0
    assert rep.constants == {"c5": c5, "c6": c6}
    assert rep.ranges["triples"] == used
    assert canon(rep.rows) == canon(rows)
    rep = diag_checks(table, scales, sp, form, ndl_radii=(4.0,),
                      nl_constant=1e6)
    assert 1e6 * scales.phi.inverse(1.0) > sp.u[-1]
    c_uhkd, c_nl, c_ndl, defect, rows = old_diag_checks(
        table, scales, sp, form, ndl_radii=(4.0,), nl_constant=1e6)
    assert (rep.constants["c_UHKD"], rep.constants["c_NL"],
            rep.constants["c_NDL"]) == (c_uhkd, c_nl, c_ndl)
    for t in (1.0, far):
        dm = dominance_map(scales, sp, t)
        labels, crossover = old_dominance_map(scales, sp, t)
        assert dm.labels.tobytes() == labels.tobytes()
        assert dm.crossover.tobytes() == crossover.tobytes()
    assert (dm.labels == 0).all()


def test_chain_lower_floor_excludes_as_loop(monkeypatch):
    # without jumps the kernel at far pairs falls below the resolvable
    # floor, which drops those triples from the fit and the rows alike
    sp = build_space("lattice_box", dim=1, side=65, margin=8)
    table = heat_kernel(assemble(sp, 1.0, None), [1.0, 2.0, 4.0])
    scales = ScaleTriple(ScaleFunction.single_power(2.0),
                         ScaleFunction.single_power(1.0))
    rep = chain_lower_check(table, scales, sp, c0=1.0, m_cap=200.0)
    c5, c6, used, rows = old_chain_lower(table, scales, sp, 1.0, 200.0)
    assert rep.constants == {"c5": c5, "c6": c6}
    assert rep.ranges["triples"] == used
    assert canon(rep.rows) == canon(rows)
    monkeypatch.setattr(envelopes, "FLOOR_REL", 0.0)
    unfloored = chain_lower_check(table, scales, sp, c0=1.0, m_cap=200.0)
    assert unfloored.ranges["triples"] > used


def test_chain_lower_bases_overflow_as_numpy_scalars():
    xs, ys = [2.0, 0.5, 3.0, 1.0], [2000.0, 3.0, 0.25, 1e300]
    with np.errstate(over="ignore"):
        want = [float(np.float64(x) ** np.float64(y)) for x, y in zip(xs, ys)]
    with np.errstate(over="ignore"):
        got = _pow(xs, ys)
    assert got == want
    assert got[0] == math.inf
    # random pairs in the range the sweep meets: math.pow is bit-equal to
    # the numpy scalar power
    rng = np.random.RandomState(5)
    xs = rng.uniform(1e-3, 4.0, 20000)
    ys = 1.0 / rng.uniform(0.05, 40.0, 20000)
    assert _pow(xs.tolist(), ys.tolist()) == [float(x ** y)
                                               for x, y in zip(xs, ys)]


@pytest.mark.parametrize("kappas", [(1.0, 2.0), (3.0, 0.5, 1.0)])
def test_check_gcap_equals_per_kappa_solves(ctx, kappas):
    families = _gcap_families(ctx)
    rep = check_gcap(ctx.form, ctx.scales, families, ctx.family, kappas)
    fitted, witness, rows = old_check_gcap(ctx.form, ctx.scales, families,
                                           ctx.family, kappas)
    assert rows
    assert rep.constants == {**{f"C(kappa={k})": v for k, v in fitted.items()},
                             "C": min(fitted.values())}
    assert rep.witness == witness
    assert rep.ranges["instances"] == len(rows)
    assert canon(rep.rows) == canon(rows)


def test_generalized_capacity_equals_old_candidates(ctx):
    space = ctx.space
    x0, R, r = _gcap_families(ctx)[0]
    A, B = space.ball(x0, R), space.ball(x0, R + r)
    # a point mass where ramp * (A @ ramp) < 0 makes E(f^2 phi, phi)
    # negative, so that a kappa-scaled ramp is the least candidate
    d = space.metric[x0]
    ramp = np.clip((R + r - d) / r, 0.0, 1.0)
    ramp[d >= R + r] = 0.0
    spike = np.zeros(space.n)
    spike[np.argmin(ramp * (ctx.form.A @ ramp))] = 1.0
    _, phi = generalized_capacity(ctx.form, spike, A, B, 2.0, x0=x0,
                                  radii=(R, R + r))
    assert phi.max() == 2.0
    for f in [spike] + ctx.family[:4]:
        for kappa in (0.5, 1.0, 2.0, 3.0):
            for radii in (None, (R, R + r)):
                val, phi = generalized_capacity(ctx.form, f, A, B, kappa,
                                                x0=x0, radii=radii)
                want_val, want_phi = old_generalized_capacity(
                    ctx.form, f, A, B, kappa, x0=x0, radii=radii)
                assert val == want_val
                assert np.array_equal(phi, want_phi)


def test_chain_check_equals_loop_formulas(ctx):
    rep = chain_check(ctx.space, samples=12)
    worst, count = old_chain_check(ctx.space, samples=12)
    assert (rep.constant, rep.samples) == (worst, count)


def test_chain_check_equals_loop_formulas_on_a_2d_lattice():
    # l1 distances on a square lattice tie between many chains
    space = build_space("lattice_box", dim=2, side=16, margin=3)
    rep = chain_check(space, samples=12)
    worst, count = old_chain_check(space, samples=12)
    assert count > 0
    assert (rep.constant, rep.samples) == (worst, count)


@st.composite
def metric_pairs(draw):
    # asymmetric or symmetric matrices with zero diagonal, ties from a few
    # repeated values, zero off-diagonals, and x == y at times
    n = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                      st.floats(0.0, 8.0))
    D = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n) + 0.0   # no -0.0
    if draw(st.booleans()):
        D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return D, x, y, draw(st.integers(1, 6))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(metric_pairs())
def test_meet_in_the_middle_equals_forward_programme(case):
    D, x, y, max_n = case
    u, R = _ranks(D)
    space = type("Space", (), {"metric": D, "n": len(D), "u": u, "R": R})
    try:
        want = forward_min_max_steps(space, x, y, max_n)
    except KeyError:
        assume(False)   # x or y off its own ellipse: no forward entry
    got = _min_max_steps(space, x, y, max_n)
    assert np.array(got).view(np.int64).tolist() == \
        np.array(want).view(np.int64).tolist()


def test_fit_jpsi_equals_loop_formulas(ctx):
    space = ctx.space
    form = (ctx.form if ctx.form.jump is not None else
            assemble(space, 1.0, JumpKernel.power_law(space, alpha=1.0)))
    for psi in (ctx.scales.phi_j, ScaleFunction.single_power(0.5)):
        assert canon(fit_jpsi(form, psi)) == canon(old_fit_jpsi(form, psi))


@pytest.mark.parametrize("name", [
    name for name in sorted(p.stem for p in CONFIGS.iterdir()
                            if p.name.endswith(".json"))
    if load_config(name).jump.get("kind", "none") != "none"])
def test_fit_jpsi_on_ranks_equals_float_distances(name):
    # every bundled jump config, with its phi_j, another power and the
    # alternative scale of its jpsi_alt
    cfg = load_config(name)
    ctx = SuiteContext(cfg)
    psis = [ctx.scales.phi_j, ScaleFunction.single_power(0.5)]
    if "jpsi_alt" in cfg.check_params:
        psis.append(ScaleFunction.from_config(
            cfg.check_params["jpsi_alt"]["phi_j"]))
    for psi in psis:
        assert canon(fit_jpsi(ctx.form, psi)) == \
            canon(float_fit_jpsi(ctx.form, psi))


@pytest.mark.parametrize("ctx", ["z1_mini", "gasket_walk", "weighted_z1_mini"],
                         indirect=True)
def test_diag_checks_equal_full_kernel_loops(ctx):
    # at nl_constant 1e6 the NL radius passes the largest distance u[-1]
    radii = (4.0, 8.0)
    assert 1e6 * ctx.scales.phi.inverse(ctx.table.times[0]) > ctx.space.u[-1]
    for nl_constant in (1.0, 1e6):
        rep = diag_checks(ctx.table, ctx.scales, ctx.space, ctx.form,
                          ndl_radii=radii, nl_constant=nl_constant)
        c_uhkd, c_nl, c_ndl, defect, rows = old_diag_checks(
            ctx.table, ctx.scales, ctx.space, ctx.form, ndl_radii=radii,
            nl_constant=nl_constant)
        assert rows
        assert (rep.constants["c_UHKD"], rep.constants["c_NL"],
                rep.constants["c_NDL"]) == (c_uhkd, c_nl, c_ndl)
        assert rep.constants["domain_monotonicity_defect"] == defect
        assert canon(rep.rows) == canon(rows)


def old_dominance_map(scales, space, t):
    """dominance_map's labels and crossovers on the float distances."""
    xs = space.interior()
    grid = _EnvelopeGrid(scales, space, xs, xs)
    _, pc = grid.local_profile(t)
    _, pj = grid.jump_profile(t)
    d = space.metric[np.ix_(xs, xs)]
    labels = np.where(pj >= pc, 2, 1).astype(np.int8)
    labels[d <= scales.phi_c.inverse(t)] = 0
    crossover = np.fmin.reduce(np.where(labels == 2, d, np.nan), axis=1,
                               initial=np.nan)
    return labels, crossover


@pytest.mark.parametrize("ctx", ["z1_mini", "gasket_walk", "weighted_z1_mini"],
                         indirect=True)
def test_dominance_map_equals_float_distance_copy(ctx):
    # the check's time, a time below 1 (the crossover bracket) and one
    # whose diagonal edge passes the largest distance u[-1]
    far = ctx.scales.phi_c(2.0 * ctx.space.u[-1])
    for t in (float(ctx.times[0]), 0.5, far):
        dm = dominance_map(ctx.scales, ctx.space, t)
        labels, crossover = old_dominance_map(ctx.scales, ctx.space, t)
        assert dm.labels.tobytes() == labels.tobytes()
        assert dm.crossover.tobytes() == crossover.tobytes()
    assert (dm.labels == 0).all() and np.isnan(dm.crossover).all()


def test_grid_masks_equal_float_masks(ctx):
    # d <= r from the ranks, at, between, below and past the distances u,
    # on the fixture's space and on one of two components (u[-1] = inf)
    split = np.full((5, 5), np.inf)
    split[:3, :3] = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    split[3:, 3:] = [[0, 1.5], [1.5, 0]]
    for sp in (ctx.space, MetricMeasureSpace(split, np.ones(5))):
        xs = np.arange(sp.n)
        grid = _EnvelopeGrid(ctx.scales, sp, xs, xs[::-1])
        d = sp.metric[np.ix_(xs, xs[::-1])]
        u = sp.u[np.isfinite(sp.u)]
        for r in [-1.0, 0.0, *u, *(u[:-1] + np.diff(u) / 2), 2.0 * u[-1],
                  math.inf]:
            assert np.array_equal(grid.within(r), d <= r), r


def test_meyer_check_equals_full_kernel_loop(ctx):
    space = ctx.space
    form = (ctx.form if ctx.form.jump is not None else
            assemble(space, 1.0, JumpKernel.power_law(space, alpha=1.0)))
    times = ctx.times[:3]
    rhos = [*ctx.radii, 2.0 * ctx.radii[-1]]
    want = [old_meyer_check(form, ctx.scales, rho, times)["c1"]
            for rho in rhos]
    assert len(want) == 3 and all(c1 > 0.0 for c1 in want)
    assert meyer_check(form, ctx.scales, rhos, times) == want


@pytest.mark.parametrize("name,radii", [("gasket_walk", [4.0]),
                                        ("z1_alpha1", [8.0])])
def test_regularity_equals_whole_kernel_loop(name, radii):
    # gasket_walk's configured radii and z1_alpha1's phi_R
    ctx = SuiteContext(load_config(name))
    kw = {"max_centers": min(2, ctx.max_centers), "seed": ctx.cfg.seed}
    rep = check_regularity(ctx.form, ctx.scales, radii, **kw)
    want = old_check_regularity(ctx.form, ctx.scales, radii, **kw)
    assert rep.verdict == "certified" and len(rep.rows) == 2
    same_report(rep, want)


_seps = st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf]),
                  st.floats(1e-3, 8.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 4.0), _seps), max_size=12),
       st.sampled_from([1.0, FLOOR, 0.0, 1e-3, math.nan]),
       st.lists(st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.9]), max_size=4),
       st.floats(0.0, 64.0))
def test_theta_fit_on_arrays_equals_pair_loop(pairs, supu, theta_grid, cap):
    # one function's pairs as arrays, fitted as the per-tuple loop fitted
    # them: separations and sup|u| at or below the floor are skipped
    du = np.array([d for d, _ in pairs])
    sep = np.array([s for _, s in pairs])
    got = _theta_fit((du, sep, supu), theta_grid, cap)
    want = old_theta_fit([(d, s, supu) for d, s in pairs], theta_grid, cap)
    assert got == want


@pytest.mark.parametrize("name", ["gasket_walk", "z1_mini"])
def test_envelope_grid_distance_index_equals_unique_inverse(name):
    # each pair's rank into the space's distances u picks its distance, and
    # the met positive ranks are np.unique's positive distances of the grid
    ctx = SuiteContext(load_config(name))
    xs, u = ctx.space.interior(), ctx.space.u
    grid = _EnvelopeGrid(ctx.scales, ctx.space, xs, xs[::-1])
    d = ctx.space.metric[np.ix_(xs, xs[::-1])]
    want_uq = np.unique(d)
    assert np.array_equal(u[grid.k], d)
    assert np.array_equal(u[grid.met], want_uq[want_uq > 0.0])
    # m at the distinct distances, gathered per pair, is m on the grid
    grid, t = _EnvelopeGrid(ctx.scales, ctx.space, xs, xs), ctx.times[2]
    d = ctx.space.metric[np.ix_(xs, xs)]
    want_uq, want_inv = np.unique(d, return_inverse=True)
    pos = want_uq > 0.0
    m_u = np.zeros_like(want_uq)
    m_u[pos] = want_uq[pos] / ctx.scales.bar_phi_c.inverse(t / want_uq[pos])
    assert np.array_equal(grid.m_unique(t)[grid.met], m_u[pos])
    assert np.array_equal(grid.m_unique(t)[grid.k],
                          m_u[want_inv].reshape(d.shape))


@pytest.mark.parametrize("mode", ["HK", "UHK", "HK_minus"])
def test_fit_hk_builds_the_jump_profile_once_per_time(ctx, mode,
                                                      monkeypatch):
    # the jump profile does not depend on the dilation: one
    # V(x, phi_j^{-1}(t)) per usable time, not one per time and dilation
    phi_j = ctx.scales.phi_j
    assert phi_j is not ctx.scales.phi_c and phi_j is not ctx.scales.phi
    calls = []
    inverse = ScaleFunction.inverse

    def counted(self, v):
        if self is phi_j:
            calls.append(float(v))
        return inverse(self, v)

    monkeypatch.setattr(ScaleFunction, "inverse", counted)
    rep = fit_hk(ctx.table, ctx.scales, ctx.space, mode=mode)
    assert len(rep.ranges["times_used"]) > 1
    assert calls == rep.ranges["times_used"]


def old_subordinate_intensity_quadrature(form, gamma, pairs):
    """The per-pair quadrature: e^{-lam u} afresh at every integrand call."""
    lam, B = form.spectral()
    cnu = gamma / gamma_fn(1.0 - gamma)
    out = np.empty(len(pairs))
    for k, (x, y) in enumerate(pairs):
        cxy = B[x] * B[y]

        def q_of(u):
            return float(cxy @ np.exp(-lam * u))

        def g_small(v):
            u = v * v
            return q_of(u) * cnu * u ** (-1.0 - gamma) * 2.0 * v

        def g_large(u):
            return q_of(u) * cnu * u ** (-1.0 - gamma)

        i1, _ = quad(g_small, 0.0, 1.0, limit=200)
        i2, _ = quad(g_large, 1.0, np.inf, limit=200)
        out[k] = i1 + i2
    return out


def subordination_pairs(ctx, n_pairs=40):
    """The pairs the ``subordination`` check draws."""
    rng = np.random.RandomState(ctx.cfg.seed)
    interior = ctx.space.interior()
    return [tuple(map(int, rng.choice(interior, 2, replace=False)))
            for _ in range(n_pairs)]


@pytest.mark.parametrize("name", ["gasket_subordination", "z1_mini"])
def test_quadrature_with_shared_nodes_equals_per_pair_quadrature(name):
    ctx = SuiteContext(load_config(name))
    pairs = subordination_pairs(ctx)
    got = subordinate_intensity_quadrature(ctx.form, 0.5, pairs)
    want = old_subordinate_intensity_quadrature(ctx.form, 0.5, pairs)
    assert got.tobytes() == want.tobytes()


def test_quadrature_exponentiates_each_node_once(monkeypatch):
    # the pairs share their quadrature nodes u: e^{-lam u} once per node
    ctx = SuiteContext(load_config("z1_mini"))
    lam, _ = ctx.form.spectral()
    nodes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        if np.shape(x) == lam.shape:
            nodes.append(np.asarray(x).tobytes())
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    subordinate_intensity_quadrature(ctx.form, 0.5, subordination_pairs(ctx))
    calls, distinct = len(nodes), len(set(nodes))
    assert calls == distinct > 0


def test_fit_hk_sweeps_each_row_once(monkeypatch):
    # V(x, d(x, y)) is t-independent: read from the ball table by rank
    # once per call, with no volume lookup over the pairs
    ctx = SuiteContext(load_config("z1_mini"))
    space = ctx.space
    table = ctx.table
    calls = []
    lookup = space.volumes

    def counted(x, radii):
        calls.append((x, radii))
        return lookup(x, radii)

    monkeypatch.setattr(space, "volumes", counted)
    fit_hk(table, ctx.scales, space, mode="HK")
    assert len(usable_times(table, space)) > 1
    assert calls and not [r for _, r in calls if np.ndim(r) == 2]


def test_legendre_grid_memo_equals_fresh_grid():
    scales = SuiteContext(load_config("gasket_walk")).scales
    phi_c = scales.phi_c
    rs = (0.5, 3.0, 40.0)
    for t in (0.3, 2.0):
        fresh = [legendre_sup(scales, r, t) for r in rs]
        assert legendre_sup(scales, np.array(rs), t).tolist() == fresh
    for t in (0.3, 2.0):
        center = phi_c.inverse(t)
        grid = np.geomspace(center * 1e-8, center * 1e8, 512)
        got, phi_grid = _log_grid(phi_c, t)
        assert np.array_equal(got, grid)
        assert np.array_equal(phi_grid, phi_c(grid))


def old_legendre_sup(triple, r, t_val, c0=1.0):
    """The scalar sweep: one fresh grid and one golden-section search per
    (r, t)."""
    phi_c = triple.phi_c
    exact = _legendre_closed_form(phi_c, r, t_val, c0)
    center = phi_c.inverse(t_val)
    grid = np.geomspace(center * 1e-8, center * 1e8, 512)
    gvals = r / grid - c0 * t_val / phi_c(grid)
    k = int(np.argmax(gvals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    p_breaks = [p[0] for p in phi_c.pieces]
    p_coeff = [p[1] for p in phi_c.pieces]
    p_exp = [p[2] for p in phi_c.pieces]

    def g(s):
        i = bisect.bisect_right(p_breaks, s) - 1
        return r / s - c0 * t_val / (p_coeff[i] * s ** p_exp[i])

    a, b = math.log(lo), math.log(hi)
    c_pt = b - _GOLDEN * (b - a)
    d_pt = a + _GOLDEN * (b - a)
    fc, fd = g(math.exp(c_pt)), g(math.exp(d_pt))
    while (b - a) > 1e-12:
        if fc >= fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - _GOLDEN * (b - a)
            fc = g(math.exp(c_pt))
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + _GOLDEN * (b - a)
            fd = g(math.exp(d_pt))
    refined = max(float(gvals[k]), g(math.exp(0.5 * (a + b))))
    return max(exact, refined, 0.0)


def old_inverse(f, v):
    """``ScaleFunction.inverse`` through numpy 0-d arrays."""
    v_arr = np.asarray(v, dtype=float)
    idx = np.clip(np.searchsorted(f._break_values, v_arr, side="right") - 1,
                  0, len(f.pieces) - 1)
    return float((v_arr / f._coeffs[idx]) ** (1.0 / f._exps[idx]))


def old_m(triple, t, r):
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    return float(r_arr / old_inverse(triple.bar_phi_c, t_arr / r_arr))


F = ScaleFunction
TRIPLES = {
    "z1_alpha1": lambda: _build_scales(**load_config("z1_alpha1").scales),
    "gasket_walk": lambda: _build_scales(**load_config("gasket_walk").scales),
    "two_piece": lambda: ScaleTriple(F.from_exponents([2.5, 2.0], [4.0]),
                                     F.single_power(1.0)),
}


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_legendre_rows_equal_scalar_sweep(name):
    triple = TRIPLES[name]()
    ts = np.geomspace(1e-3, 1e3, 30)
    ds = np.geomspace(1e-3, 1e3, 30)
    for t in ts:
        want = [old_legendre_sup(triple, d, t) for d in ds]
        assert legendre_sup(triple, ds, t).tolist() == want
        assert legendre_sup(triple, ds[7], t) == want[7]


def refinement_bracket(phi_c, r, t):
    """The grid bracket that ``legendre_sup`` refines for (r, t)."""
    grid, phi_grid = _log_grid(phi_c, t)
    k = int(np.argmax(r / grid - t / phi_grid))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(exps=st.lists(st.floats(1.2, 3.5), min_size=2, max_size=4),
       log_t=st.floats(-2.0, 2.0), log_r=st.floats(-2.0, 2.0),
       data=st.data())
def test_legendre_rows_equal_scalar_sweep_across_breaks(exps, log_t, log_r,
                                                        data):
    # a multi-piece phi_c with its breaks inside the refinement bracket of
    # (r, t), so the golden-section search crosses pieces
    t, r = 10.0 ** log_t, 10.0 ** log_r
    lo, hi = refinement_bracket(ScaleFunction.single_power(exps[0]), r, t)
    fracs = data.draw(st.lists(st.floats(0.01, 0.99), min_size=len(exps) - 1,
                               max_size=len(exps) - 1, unique=True))
    breaks = sorted(lo * (hi / lo) ** u for u in fracs)
    assume(all(b1 < b2 for b1, b2 in zip(breaks, breaks[1:])))
    phi_c = ScaleFunction.from_exponents(exps, breaks, normalize=False)
    lo, hi = refinement_bracket(phi_c, r, t)
    assume(any(lo < b < hi for b in breaks))
    rs = np.array([r, 0.5 * r, 2.0 * r])
    want = [old_legendre_sup(SimpleNamespace(phi_c=phi_c), x, t) for x in rs]
    assert legendre_sup(phi_c, rs, t).tolist() == want
    assert legendre_sup(phi_c, r, t) == want[0]


def test_float_path_inverse_and_m_equal_numpy_0d():
    vs = np.geomspace(1e-6, 1e6, 10_000)
    ints = np.rint(np.geomspace(1.0, 1e9, 10_000)).astype(int).tolist()
    shapes = [F.single_power(2.0), F.single_power(2.321928094887362),
              F.from_exponents([0.5, 1.5], [32.0]),
              F.from_exponents([2.0, 1.2, 3.0], [0.5, 7.0])]
    for f in shapes:
        for points in (vs.tolist(), list(vs), ints):
            got = [f.inverse(v) for v in points]
            assert got == [old_inverse(f, v) for v in points]
            assert all(type(x) is float for x in got)
    with np.errstate(over="ignore"):
        assert F.single_power(0.5).inverse(1e200) == old_inverse(
            F.single_power(0.5), 1e200) == math.inf
    for name in sorted(TRIPLES):
        triple = TRIPLES[name]()
        for points in (vs.tolist(), list(vs), ints):
            pairs = list(zip(points, reversed(points)))
            assert ([triple.m(t, r) for t, r in pairs]
                    == [old_m(triple, t, r) for t, r in pairs])


def test_pc_equivalence_pinned_on_the_benchmark_triple():
    out = check_pc_equivalence(TRIPLES["z1_alpha1"](), n_per_axis=100)
    assert (out["ratio_min"], out["ratio_max"]) == (0.24999999999999992,
                                                    0.2500000000000001)


def test_diag_checks_compute_each_distinct_time_once(monkeypatch):
    # z1_mini at radii 4 and 8: radius 4 repeats t = 1 four times and
    # radius 8 starts at t = 1 again: 4 distinct times of 8
    ctx = SuiteContext(load_config("z1_mini"))
    table, form = ctx.table, ctx.form
    calls = {"global": [], "dirichlet": []}
    engine, blocks = heat_kernel, kernel_blocks

    def counted(form, times, domain=None):
        calls["global" if domain is None else "dirichlet"].append(list(times))
        return engine(form, times, domain=domain)

    def counted_blocks(form, times, slices):
        # one global product per listed time
        calls["global"].append(list(times))
        return blocks(form, times, slices)

    monkeypatch.setattr(formlab.form, "heat_kernel", counted)
    monkeypatch.setattr(envelopes, "heat_kernel", counted)
    monkeypatch.setattr(envelopes, "kernel_blocks", counted_blocks)
    rep = diag_checks(table, ctx.scales, ctx.space, form, ndl_radii=(4.0, 8.0))
    times = [r["t"] for r in rep.rows]
    global_times = [t for ts in calls["global"] for t in ts]
    assert len(times) > len(set(times))
    assert sorted(global_times) == sorted(set(times))
    for ts in calls["dirichlet"]:
        assert len(ts) == len(set(ts))


def old_full_caloric(form, scales, cyl, n_atom_intervals=8, n_window_times=5):
    """FULL-mode stepping in point coordinates, projecting onto the
    eigenbasis and back on every step: (Q- samples, Q+ samples, sup_minus,
    inf_plus)."""
    space = form.space
    ball_R = space.ball(cyl.x0, cyl.R)
    t_minus, t_plus = _flow_times(scales, cyl, n_window_times)
    B_cyl = space.ball(cyl.x0, cyl.ball_radius())
    nb = len(B_cyl)
    ext = np.setdiff1d(np.arange(form.n), B_cyl)
    n_side = len(ext) * n_atom_intervals
    horizon = cyl.horizon(scales)
    n_sub = 256
    h = horizon / n_sub
    lam, Q = eigh(form.sym_generator(B_cyl))
    lam = np.maximum(lam, 1e-14)
    sq = form._sqmu[B_cyl]
    Bq = Q / sq[:, None]
    Cq = Q * sq[:, None]
    e_h = np.exp(-lam * h)
    phi_h = (1.0 - e_h) / lam
    coupling = -(form.A[np.ix_(B_cyl, ext)] / form.mu[B_cyl][:, None])
    n_atoms = nb + n_side
    U = np.zeros((nb, n_atoms))
    U[:, :nb] = np.eye(nb)
    src = np.zeros((nb, n_atoms))
    rec_m = list(dict.fromkeys(round(t, 12) for t in t_minus))
    rec_p = list(dict.fromkeys(round(t, 12) for t in t_plus))
    sample_steps = {}
    for t in rec_m + rec_p:
        sample_steps.setdefault(int(round(t / h)), []).append(t)
    posR = np.array([int(np.nonzero(B_cyl == p)[0][0]) for p in ball_R])
    samples = {}
    for k in range(1, n_sub + 1):
        t_mid = (k - 0.5) * h
        interval = min(int(t_mid / horizon * n_atom_intervals),
                       n_atom_intervals - 1)
        src[:] = 0.0
        lo = nb + interval * len(ext)
        src[:, lo:lo + len(ext)] = coupling
        U = (Bq @ (e_h[:, None] * (Cq.T @ U))
             + Bq @ (phi_h[:, None] * (Cq.T @ src)))
        if k in sample_steps:
            for t in sample_steps[k]:
                samples[t] = U[posR].copy()
    minus = [samples[t] for t in rec_m]
    plus = [samples[t] for t in rec_p]
    sup_m = np.max([s.max(axis=0) for s in minus], axis=0)
    inf_p = np.min([s.min(axis=0) for s in plus], axis=0)
    return minus, plus, np.maximum(sup_m, 0.0), np.maximum(inf_p, 0.0)


@pytest.mark.parametrize("with_jump", [True, False])
def test_full_mode_equals_old_stepping(with_jump):
    space = build_space("lattice_box", dim=1, side=65, margin=8)
    jump = JumpKernel.power_law(space, alpha=1.0) if with_jump else None
    form = assemble(space, 1.0, jump)
    scales = ScaleTriple(ScaleFunction.single_power(2.0),
                         ScaleFunction.single_power(1.0 if with_jump else 2.0))
    cyl = CylinderSpec(x0=32, R=2.0)
    fam = caloric_poisson(form, scales, cyl, mode="full", keep_samples=True)
    minus, plus, sup_m, inf_p = old_full_caloric(form, scales, cyl)

    def close(got, want):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-11 * scale

    assert len(fam.samples_minus) == len(minus) and len(fam.samples_plus) \
        == len(plus)
    for got, want in zip(fam.samples_minus + fam.samples_plus, minus + plus):
        close(got, want)
    close(fam.sup_minus, sup_m)
    close(fam.inf_plus, inf_p)
    ok = (inf_p > FLOOR) & (sup_m > FLOOR)
    c6 = check_phi(form, scales, [cyl], mode="full").constants["C6"]
    assert c6 == pytest.approx(float((sup_m[ok] / inf_p[ok]).max()), rel=1e-11)
