"""Heat-kernel envelopes and two-sided bound fitting.

The model profiles are the sub-Gaussian local envelope

    p_c(t, x, y) = exp(-m(t, d)) / V(x, phi_c^{-1}(t)),   m(t, d) = d / bar_phi_c^{-1}(t/d),

its Legendre-supremum variant, and the jump envelope

    p_j(t, x, y) = 1/V(x, phi_j^{-1}(t))  ^  t / (V(x, d) phi_j(d)).

All fits are sups or infs over explicit (t, x, y) grids, never regressions:
a certified constant means the pointwise inequality holds with it on that
grid.  Triples whose envelope falls below the resolvable floor of the
computed kernel are excluded and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .form import DirichletForm, PackedKernelTable, heat_kernel, kernel_blocks
from .functionals import ConditionReport, _no_ball, positive
from .scales import ScaleTriple, crossover_radius, legendre_sup, power_bounds
from .space import _ROWS, Count, Decades, Positive

__all__ = [
    "check_pc_equivalence",
    "fit_hk",
    "diag_checks",
    "dominance_map",
    "DominanceMap",
    "tail_probability_check",
    "chain_lower_check",
    "usable_times",
]

FLOOR_REL = 1e-13
NO_TIME = ("no usable time window: no point is interior, or their boundary "
           "mass is over its cap at the first table time")
RATIO_ROWS = 2000   # row budget of the thinned ratio table of HK and HK_local


# -- envelope geometry ---------------------------------------------------------


class _EnvelopeGrid:
    """The time-independent geometry of one xs x ys envelope sweep.

    Built once per check call and dropped when it returns: per pair the
    rank k of its distance d = u[k] in the space's sorted distinct
    distances u, V(x, d(x, y)) read from the ball table by rank, and
    V(x, d) phi_j(d).  No float distance is stored: a factor of the
    distance alone is evaluated at the positive distances the pairs meet
    and gathered per pair by rank, and a mask d <= r is read from the
    ranks (``within``)."""

    def __init__(self, scales, space, xs, ys):
        self.scales = scales
        self.space = space
        self.xs = np.asarray(xs)
        self.k = space.R[np.ix_(xs, ys)]
        # the ranks of the positive distances some pair meets
        self.met = np.bincount(self.k.ravel(), minlength=len(space.u)) > 0
        self.met[0] = False

    def within(self, r):
        """The mask d(x, y) <= r per pair: u is sorted, so it is the mask
        of the ranks below that of the first distance past r."""
        top = self.space.u.searchsorted(r, "right")
        return self.k < top.astype(self.k.dtype)   # intp would widen k

    def denom(self, f):
        """V(x, d) f(d) per pair, with f(0) read as 1."""
        return (self.space.C[self.xs[:, None], self.k]
                * self.space.radial(f, 1.0, self.met)[self.k])

    @cached_property
    def jump_denom(self):
        """V(x, d) phi_j(d) per pair."""
        return self.denom(self.scales.phi_j)

    def m_unique(self, td):
        """m(td, u) at the met distances u, 0 elsewhere."""
        return self.space.radial(
            lambda d: d / self.scales.bar_phi_c.inverse(td / d), 0.0, self.met)

    def local_profile(self, td):
        """(Vc, pc) at the dilated time td: V(x, phi_c^{-1}(td)) per x and
        exp(-m(td, d)) / Vc per pair, the exponential taken on the distinct
        distances."""
        Vc = self.space.volumes(self.xs, self.scales.phi_c.inverse(td))
        with np.errstate(over="ignore"):
            e_u = np.exp(-np.minimum(self.m_unique(td), 700.0))
        pc = e_u[self.k]
        pc /= Vc[:, None]
        return Vc, pc

    def jump_profile(self, t):
        """(Vj, pj) at time t: V(x, phi_j^{-1}(t)) per x and
        1/Vj ^ t/(V(x, d) phi_j(d)) per pair; no dilation enters it."""
        Vj = self.space.volumes(self.xs, self.scales.phi_j.inverse(t))
        return Vj, _capped(Vj, t, self.jump_denom)


def _excluded(ok):
    """The triples outside the mask ``ok``, counted without forming its
    inverse."""
    return ok.size - int(np.count_nonzero(ok))


def _capped(V, t, denom):
    """1/V ^ t/denom per pair, read as 1/V where denom is not positive."""
    far = np.full_like(denom, np.inf)
    np.divide(t, denom, out=far, where=denom > 0.0)
    return np.minimum((1.0 / V)[:, None], far, out=far)


def _sandwich(Vc, pc, jump=None):
    """The profile a sandwich constant multiplies: the local profile plus
    the jump profile ``jump`` = (Vj, pj), capped by the on-diagonal values,
    or the local profile alone when ``jump`` is None.  It is built in pc,
    which the caller gives up; pj is read only."""
    if jump is None:
        return np.minimum((1.0 / Vc)[:, None], pc, out=pc)
    Vj, pj = jump
    pc += pj
    return np.minimum(np.minimum(1.0 / Vc, 1.0 / Vj)[:, None], pc, out=pc)


def envelope_ratio_rows(times, xs, d, up, low):
    """Rows (t, x, y, d(x, y), kernel/upper, kernel/lower) of a ratio table
    on the centers ``xs`` with pair distances ``d``: ``up[k]`` and
    ``low[k]`` hold the ratios at ``times[k]``, nan where the fit excludes
    the triple."""
    ids, d = xs.tolist(), d.tolist()
    rows = []
    for t, up_t, low_t in zip(times, up, low):
        for x, d_x, up_x, low_x in zip(ids, d, up_t.tolist(), low_t.tolist()):
            rows.extend({"t": t, "x": x, "y": y, "d": dist,
                         "kernel_over_upper": u, "kernel_over_lower": v}
                        for y, dist, u, v in zip(ids, d_x, up_x, low_x))
    return rows


def usable_times(table: PackedKernelTable, space, cap: float = 0.01):
    """Largest prefix of the time grid for which the mass reaching the
    truncation boundary stays below ``cap`` for every interior point (none
    when no point is interior).

    Prefix semantics matter: at very large t the kernel is near uniform and
    the boundary mass can dip back under the cap even though the truncation
    already dominates, so the sweep stops at the first failing time."""
    bnd = np.nonzero(space.boundary)[0]
    interior = space.interior()
    if len(bnd) == 0:
        return list(range(len(table.times)))
    keep = []
    to_bnd = table.block(*np.ix_(interior, bnd))
    for i in range(len(table.times)):
        mass = (to_bnd(i) * space.mu[bnd][None, :]).sum(axis=1)
        if len(interior) == 0 or float(mass.max()) >= cap:
            break
        keep.append(i)
    return keep


# -- Legendre vs m(t,r) equivalence ------------------------------------------------


def check_pc_equivalence(scales: ScaleTriple, n_per_axis: Count = 30,
                         decades: Decades = 6.0, c0: Positive = 1.0) -> dict:
    """Sandwich constants between the Legendre form and the m(t, r) form of
    the local envelope exponent over a log (t, d) grid."""
    ts = np.geomspace(10 ** (-decades / 2), 10 ** (decades / 2), n_per_axis)
    ds = np.geomspace(10 ** (-decades / 2), 10 ** (decades / 2), n_per_axis)
    lo, hi = math.inf, 0.0
    for t in ts.tolist():
        for d, sup in zip(ds.tolist(), legendre_sup(scales, ds, t, c0).tolist()):
            ratio = sup / scales.m(t, d)
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return {"ratio_min": lo, "ratio_max": hi,
            "c2": hi, "c4": lo, "c1": 1.0, "c3": 1.0,
            "grid": {"n": n_per_axis, "decades": decades, "c0": c0}}


# -- two-sided fits -----------------------------------------------------------------


def fit_hk(table: PackedKernelTable, scales: ScaleTriple, space,
           mode: str = "HK",
           upper_dilations: tuple[Positive, ...] = (1.0, 2.0, 4.0),
           lower_dilations: tuple[Positive, ...] = (1.0, 0.5, 0.25),
           indicator: Positive = 1.0) -> ConditionReport:
    """Fit the smallest upper and largest lower constants of the requested
    sandwich over ``space.interior()`` at the kernel table's usable times.

    modes: ``HK`` (full sandwich), ``HK_minus`` (indicator lower bound),
    ``UHK`` (upper only), ``UHK_weak`` (rough upper with phi in both slots),
    ``HK_local`` (diffusion-only Gaussian sandwich, no jump envelope).
    In ``HK`` and ``HK_local`` the report's rows hold kernel/upper and
    kernel/lower at the fitted dilations on the fit's own grid, thinned by
    one stride over both centers to about ``RATIO_ROWS`` rows, nan wherever
    the fit excludes the triple.
    """
    xs = space.interior()
    keep = usable_times(table, space)
    if not keep:
        return _no_ball(f"{mode}(phi_c,phi_j)", NO_TIME, times_used=[])
    times = [float(table.times[i]) for i in keep]
    total = len(keep) * len(xs) * len(xs)
    thin = slice(None, None, max(1, int(math.sqrt(total / RATIO_ROWS))))
    c1 = c2 = c3 = c4 = c0 = math.nan
    excluded = 0
    with_jump = mode in ("HK", "HK_minus", "UHK")
    uppers = upper_dilations if mode in ("HK", "UHK", "HK_local") else ()
    lowers = lower_dilations if mode in ("HK", "HK_local") else ()
    grid = _EnvelopeGrid(scales, space, xs, xs)
    xs_block = table.block(*np.ix_(xs, xs))

    witnesses = {}

    def _extreme(ratio, ok, t, pick_max):
        # the ratio is masked in place outside ok: a later fit reads it
        # only inside its own ok, which lies inside this one (a dilation's
        # upper fits come first, and a lower ok lies inside K_ok)
        np.copyto(ratio, -np.inf if pick_max else np.inf, where=~ok)
        flat = int(np.argmax(ratio) if pick_max else np.argmin(ratio))
        a, b = np.unravel_index(flat, ratio.shape)
        return {"t": float(t), "x": int(xs[a]), "y": int(xs[b]),
                "ratio": float(ratio[a, b])}

    if mode == "UHK_weak":
        weak_denom = grid.denom(scales.phi)

    # One sweep over the times; each dilation keeps its own running
    # [extreme ratio, excluded triples, witness, thinned ratios], filled in
    # time order.  Triples where the kernel is below its resolvable floor
    # are excluded (their computed values are eigensolver noise), counted,
    # and nan in the thinned ratios.
    up_acc = [[0.0, 0, None, []] for _ in uppers]
    lo_acc = [[math.inf, 0, None, []] for _ in lowers]
    # each distinct dilation's sandwich serves its upper and lower fits
    sweeps = {}
    for acc, dil, upper in [*zip(up_acc, uppers, repeat(True)),
                            *zip(lo_acc, lowers, repeat(False))]:
        sweeps.setdefault(dil, []).append((acc, upper))
    weak_worst = 0.0
    minus = [math.inf, 0, None]

    def sweep(i):
        """Fold the usable time table.times[i] into every fit; the arrays
        of this time are gone when it returns."""
        nonlocal weak_worst
        t = table.times[i]
        K = xs_block(i)
        fl = FLOOR_REL * table.max(i)
        K_ok = K > fl
        under = _excluded(K_ok)   # the upper fits exclude these alone
        jump = grid.jump_profile(t) if with_jump else None
        for dil, fits in sweeps.items():
            P = _sandwich(*grid.local_profile(t * dil), jump)
            # a lower profile under the floor also excludes the triple
            low_ok = (None if all(upper for _, upper in fits)
                      else (P > fl) & K_ok)
            ratio = np.divide(K, P, out=P)
            for acc, upper in fits:
                ok = K_ok if upper else low_ok
                acc[1] += under if upper else _excluded(ok)
                acc[3].append(np.where(ok[thin, thin], ratio[thin, thin],
                                       math.nan))
                if ok.any():
                    cand = _extreme(ratio, ok, t, pick_max=upper)
                    if (cand["ratio"] > acc[0] if upper
                            else cand["ratio"] < acc[0]):
                        acc[0], acc[2] = cand["ratio"], cand
            del P, ratio    # before the next dilation's sandwich
        if mode == "UHK_weak":
            U = _capped(space.volumes(xs, scales.phi.inverse(t)), t,
                        weak_denom)
            if K_ok.any():
                ratio = np.divide(K, U, out=U)
                weak_worst = max(weak_worst, float(ratio[K_ok].max()))
        elif mode == "HK_minus":
            # the indicator profile, in the buffer of the jump profile,
            # which no fit of this mode reads
            L = jump[1]
            Vphi = space.volumes(xs, scales.phi.inverse(t))
            np.copyto(L, (1.0 / Vphi)[:, None],
                      where=grid.within(indicator * scales.phi.inverse(t)))
            ok = (L > fl) & K_ok
            minus[1] += _excluded(ok)
            if ok.any():
                cand = _extreme(np.divide(K, L, out=L), ok, t, pick_max=False)
                if cand["ratio"] < minus[0]:
                    minus[0], minus[2] = cand["ratio"], cand

    for i in keep:
        sweep(i)

    # upper fit: the dilation with the smallest worst ratio; the rows keep
    # the first dilation's ratios when no dilation is fitted
    up_rows = up_acc[0][3] if up_acc else []
    if mode in ("HK", "UHK", "HK_local"):
        best_upper = (math.inf, math.nan)
        for (worst, exc_u, wit, ratios), dil in zip(up_acc, uppers):
            if worst < best_upper[0]:
                best_upper = (worst, dil)
                up_rows = ratios
                excluded = max(excluded, exc_u)
                if wit is not None:
                    witnesses["upper"] = wit
        c3, c4 = best_upper
    elif mode == "UHK_weak":
        c3 = weak_worst

    # lower fit: the dilation with the largest finite best ratio
    lo_rows = lo_acc[0][3] if lo_acc else []
    if mode in ("HK", "HK_local"):
        best_lower = (0.0, math.nan)
        for (best, exc, wit, ratios), dil in zip(lo_acc, lowers):
            if best > best_lower[0] and np.isfinite(best):
                best_lower = (best, dil)
                lo_rows = ratios
                excluded = max(excluded, exc)
                if wit is not None:
                    witnesses["lower"] = wit
        c1, c2 = best_lower
    elif mode == "HK_minus":
        c0 = minus[0]
        excluded = minus[1]
        if minus[2] is not None:
            witnesses["lower"] = minus[2]

    fitted = {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c0": c0,
              "indicator": indicator if mode == "HK_minus" else math.nan}
    consts = {k: v for k, v in fitted.items()
              if isinstance(v, float) and np.isfinite(v)}
    # the fitted sides: an upper c3 unless HK_minus, a positive lower c1 in
    # the two-sided modes and c0 in HK_minus
    bound = {"c0": positive} if mode == "HK_minus" else {"c3": np.isfinite}
    rows = []
    if mode in ("HK", "HK_local"):
        bound["c1"] = positive
        rows = envelope_ratio_rows(times, xs[thin],
                                   space.u[grid.k[thin, thin]], up_rows,
                                   lo_rows)
    return ConditionReport(
        f"{mode}(phi_c,phi_j)", constants=consts,
        witness=witnesses,
        ranges={"times_used": times, "excluded_triples": excluded},
        rows=rows,
    ).judge(**bound)


# -- diagonal conditions -------------------------------------------------------------


def diag_checks(table: PackedKernelTable, scales: ScaleTriple, space,
                form: DirichletForm, ndl_radii, eps: Positive = 0.25,
                nl_constant: Positive = 1.0) -> ConditionReport:
    """UHKD, NL and NDL constants, the last from Dirichlet kernels on a ball
    family; domain monotonicity p >= p^B is re-verified on the NDL grid."""
    xs = space.interior()
    keep = usable_times(table, space)
    if not keep:
        return _no_ball("UHKD/NL/NDL", NO_TIME,
                        ndl_radii=list(map(float, ndl_radii)))
    c_uhkd, c_nl = 0.0, math.inf
    grid = _EnvelopeGrid(scales, space, xs, xs)
    xs_diag, xs_block = table.diag(xs), table.block(*np.ix_(xs, xs))
    for i in keep:
        t = table.times[i]
        Vphi = space.volumes(xs, scales.phi.inverse(t))
        c_uhkd = max(c_uhkd, float((xs_diag(i) * Vphi).max()))
        near = grid.within(nl_constant * scales.phi.inverse(t))
        K = xs_block(i)
        K *= Vphi[:, None]
        c_nl = min(c_nl, float(np.min(K, where=near, initial=math.inf)))
    del grid, near, K, xs_block   # before the NDL products

    c_ndl, mono_defect = math.inf, 0.0
    ndl_rows = []
    radii = []      # (r, centers, balls, times), radii without centers dropped
    for r in map(float, ndl_radii):
        centers = space.interior(r + 1e-9)[:3]
        if len(centers) == 0:
            continue
        t_top = scales.phi(eps * r)
        # sample from the lattice time scale up; below phi(1) the kernel is
        # within its diagonal limit and the bound trivialises
        t_floor = min(scales.phi(1.0), t_top)
        ts = np.geomspace(t_floor, t_top, 4).tolist()
        radii.append((r, centers, [space.ball(int(x0), r) for x0 in centers], ts))
    # each distinct time's global kernel once, sliced to every ball
    times = sorted({t for *_, ts in radii for t in ts})
    full = iter(kernel_blocks(form, times,
                              [(B, B) for _, _, balls, _ in radii for B in balls]))
    for r, centers, balls, ts in radii:
        ts_B = sorted(set(ts))
        for x0, B in zip(map(int, centers), balls):
            KF_BB = dict(zip(times, next(full)))
            KB_t = dict(zip(ts_B, heat_kernel(form, ts_B, domain=B).kernels))
            posB = {int(p): k for k, p in enumerate(B)}
            for t in ts:
                KB, KF = KB_t[t], KF_BB[t]
                rad = eps * scales.phi.inverse(t)
                core = (B[space.dist(x0, B) < max(rad, 1e-12)].tolist()
                        or [x0])
                ci = [posB[p] for p in core]
                Vx0 = space.volume(x0, scales.phi.inverse(t))
                sub = KB[np.ix_(ci, ci)]
                c_ndl = min(c_ndl, float(sub.min()) * Vx0)
                mono_defect = max(mono_defect, float((KB - KF).max()))
                ndl_rows.append({"x0": x0, "r": r, "t": t,
                                 "c1": float(sub.min()) * Vx0})
    # NDL forces NL through domain monotonicity p >= p^B, checked above
    consistent = mono_defect <= 1e-12
    return ConditionReport(
        "UHKD/NL/NDL",
        constants={"c_UHKD": c_uhkd, "c_NL": c_nl, "nl_region": nl_constant,
                   "c_NDL": c_ndl, "eps": eps,
                   "domain_monotonicity_defect": mono_defect,
                   "ndl_implies_nl": bool(consistent)},
        ranges={"ndl_radii": list(map(float, ndl_radii))},
        rows=ndl_rows,
    ).judge(c_UHKD=lambda c: c < math.inf, c_NL=positive, c_NDL=positive)


# -- dominance map -------------------------------------------------------------------


@dataclass
class DominanceMap:
    t: float
    xs: np.ndarray
    labels: np.ndarray          # 0 diagonal, 1 gaussian, 2 jump
    crossover: np.ndarray       # per-center first jump-dominated distance
    diag_edge: float            # phi_c^{-1}(t)
    r_star: float | None
    degenerate: bool
    c3: float | None
    c4: float | None
    log_ratio: float


def dominance_map(scales: ScaleTriple, space, t: float) -> DominanceMap:
    """Label every interior pair by the largest envelope branch at time t and
    locate the empirical Gaussian-to-jump crossover distance per center.

    For t < 1 the crossover is compared against the log-bracket around
    phi_c^{-1}(t): the bracket constants c3, c4 are fitted from the
    empirical crossovers with the two theoretical log exponents.
    """
    xs = space.interior()
    grid = _EnvelopeGrid(scales, space, xs, xs)
    _, pc = grid.local_profile(t)
    _, pj = grid.jump_profile(t)
    diag_edge = scales.phi_c.inverse(t)
    labels = np.where(pj >= pc, 2, 1).astype(np.int8)
    labels[grid.within(diag_edge)] = 0
    # per center the least distance labelled 2, u at the least such rank
    # as u is sorted, and nan where none is
    first = np.min(grid.k, axis=1, where=labels == 2,
                   initial=len(space.u))
    crossover = np.append(space.u, np.nan)[first]
    cross = crossover[np.isfinite(crossover)]
    c3 = c4 = r_star = None
    log_ratio, degenerate = 0.0, True
    if t < 1.0:
        co = crossover_radius(scales, t)
        r_star, degenerate, log_ratio = co.r_star, co.degenerate, co.log_ratio
        if cross.size and log_ratio > 0.0:
            pb = power_bounds(scales.phi_c)
            e_lo = (pb.beta1 - 1.0) / pb.beta2
            e_hi = (pb.beta2 - 1.0) / pb.beta1
            c3 = float(cross.min() / (diag_edge * log_ratio ** e_lo))
            c4 = float(cross.max() / (diag_edge * log_ratio ** e_hi))
    return DominanceMap(float(t), xs, labels, crossover, float(diag_edge),
                        r_star, degenerate, c3, c4, log_ratio)


# -- tail probability (two-term) -------------------------------------------------------


def tail_probability_check(table: PackedKernelTable, scales: ScaleTriple, space,
                           radii: list[Positive] | None = None,
                           a1_grid: tuple[Positive, ...] = (1.0, 0.5, 0.25,
                                                            0.125, 0.0625),
                           gauss_cap: Positive = 1e6) -> ConditionReport:
    """Fit (eta, a1, c_jump, c_gauss) making

    mass(B(x,r)^c) <= c_jump (phi_j^{-1}(t)/r)^eta + c_gauss exp(-a1 m(t, r))

    hold over the (x, r, t) grid, with eta = beta1(phi_j), the times usable
    at a 5% boundary-mass cap and default radii up to the space's margin.

    Two certified branches: when some grid a1 lets the exponential term cover
    every tail alone (diffusion-only control) the jump coefficient is exactly
    zero; otherwise the jump term covers the far region r > 2 phi^{-1}(t) and
    the exponential coefficient is pinned on the near region, where the
    bound is anyway dominated by bounded exponents.
    """
    xs = space.interior()
    keep = usable_times(table, space, 0.05)
    if radii is None:
        top = max(2.0, space.interior_margin)
        radii = np.unique(np.geomspace(1.0, top, 5)) + 0.5
    eta = min(scales.phi_j.exponents)

    times = [table.times[i] for i in keep]
    centers = [x for x in xs if space.dist_to_boundary[x] >= max(radii)]
    if not times or not centers:
        return _no_ball("tail-probability",
                        "no usable (x, r, t) grid" if times else NO_TIME,
                        radii=list(map(float, radii)),
                        times=list(map(float, times)))
    instances = len(times) * len(centers) * len(radii)
    # tail mass per (t, center, r): each ball complement is cut once and
    # summed at every time in one go, over one C-contiguous row per time
    # (``compress`` keeps C order, a mask index does not: a strided sum
    # would add in another order than the sum of one row).  The rows of
    # a block of centers are gathered per time through one index map.
    tail = np.empty((len(times), len(centers), len(radii)))
    for lo in range(0, len(centers), _ROWS):
        block = centers[lo:lo + _ROWS]
        at = table.rows(block)
        stack = np.empty((len(block), len(keep), table.n))
        for k, i in enumerate(keep):
            stack[:, k] = at(i)
        for b, (x, rows) in enumerate(zip(block, stack), lo):
            for c, outside in enumerate(
                    space.beyond(np.reshape(radii, (-1, 1)), x, closed=True)):
                mass = rows.compress(outside, axis=1) * space.mu[outside]
                tail[:, b, c] = mass.sum(axis=1)
    # each bound below is mass times a factor >= 0 of (t, r) alone, and
    # rounding is monotone, so its largest value over the centres is that
    # of the largest mass: the fit runs over the (t, r) grid
    peak = tail.max(axis=1).tolist()
    grid = [(peak[a][c], float(r), float(t), float(scales.m(t, r)))
            for a, t in enumerate(times)
            for c, r in enumerate(radii)]   # (max tail mass, r, t, m(t, r))

    best = None
    for a1 in a1_grid:
        cg_all = max(mass * math.exp(min(a1 * mval, 700.0))
                     for mass, r, t, mval in grid)
        if cg_all <= gauss_cap:
            best = {"a1": a1, "c_gauss": cg_all, "c_jump": 0.0}
            break
    if best is None:
        a1 = a1_grid[-1]
        phi_inv = {float(t): scales.phi.inverse(float(t)) for t in times}
        phij_inv = {t: scales.phi_j.inverse(t) for t in phi_inv}
        c_gauss = max((mass * math.exp(min(a1 * mval, 700.0))
                       for mass, r, t, mval in grid
                       if r <= 2.0 * phi_inv[t]), default=0.0)
        c_jump = max((mass * (r / phij_inv[t]) ** eta
                      for mass, r, t, mval in grid
                      if r > 2.0 * phi_inv[t]), default=0.0)
        best = {"a1": a1, "c_gauss": c_gauss, "c_jump": c_jump}
    c1 = max(best["c_jump"], best["c_gauss"])
    return ConditionReport(
        "tail-probability",
        constants={"eta": eta, "a1": best["a1"], "c1": c1,
                   "c_jump": best["c_jump"], "c_gauss": best["c_gauss"],
                   "eta_within_beta1_phij": True},
        ranges={"radii": list(map(float, radii)),
                "times": [float(table.times[i]) for i in keep],
                "instances": instances},
    ).judge(c1=np.isfinite)


# -- chaining lower bound ----------------------------------------------------------------

_CHUNK = 8192   # triples per batch of Python floats


def _pow(xs, ys):
    """[x ** y] by the C library pow, as numpy float64 scalars compute it;
    a vectorised ``np.power`` may round differently.  A batch that
    overflows is redone with the scalars, which give inf there."""
    try:
        return list(map(math.pow, xs, ys))
    except OverflowError:
        return [float(np.float64(x) ** y) for x, y in zip(xs, ys)]


def chain_lower_check(table: PackedKernelTable, scales: ScaleTriple, space,
                      c0: Positive = 2.0, m_cap: Positive = 30.0) -> ConditionReport:
    """Fit (c5, c6) in p(t,x,y) >= c5 c6^{m(t,d)} / V(x, phi_c^{-1}(t)) over
    triples with d >= c0 phi_c^{-1}(t) in the locally dominated regime.

    c5 is pinned to the near-diagonal constant (the one-step case), then c6
    is the largest ratio base certified over the grid.  The rows hold
    (t, m, base) of every ``stride``-th selected triple in sweep order, the
    stride keeping them within ``RATIO_ROWS``."""
    xs = space.interior()
    keep = usable_times(table, space)
    times = [table.times[i] for i in keep]
    if np.isinf(space.u[-1]):
        return _no_ball("chain-lower", "disconnected space, skipped")
    if not keep:
        return _no_ball("chain-lower", NO_TIME, times=[])
    # each sweep reads K only at the pairs it selects, by index
    grid = _EnvelopeGrid(scales, space, xs, xs)
    # near-diagonal constant c5
    c5 = math.inf
    for t, i in zip(times, keep):
        Vc = space.volumes(xs, scales.phi_c.inverse(t))
        ii, jj = np.nonzero(grid.within(scales.phi_c.inverse(t)))
        if len(ii):
            K_sel = table.block(xs[ii], xs[jj])(i)
            c5 = min(c5, float((K_sel * Vc[ii]).min()))
    if not np.isfinite(c5) or c5 <= 0.0:
        return _no_ball("chain-lower", "no near-diagonal reference",
                        times=list(map(float, times)))
    c6 = 1.0
    cols = []   # (t, m, base) arrays of the selected triples, in sweep order
    for t, i in zip(times, keep):
        Vc = space.volumes(xs, scales.phi_c.inverse(t))
        m_u = grid.m_unique(t)
        sel = (space.u >= c0 * scales.phi_c.inverse(t)) & (m_u <= m_cap)
        ii, jj = np.nonzero(sel[grid.k])
        K_sel = table.block(xs[ii], xs[jj])(i)
        hit = K_sel > FLOOR_REL * table.max(i)
        ii, jj, K_sel = ii[hit], jj[hit], K_sel[hit]
        ratio = K_sel * Vc[ii] / c5
        m_sel = m_u[grid.k[ii, jj]]
        inv_m = 1.0 / m_sel
        base = np.empty(len(ii))
        for lo in range(0, len(ii), _CHUNK):
            part = slice(lo, lo + _CHUNK)
            base[part] = _pow(ratio[part].tolist(), inv_m[part].tolist())
        c6 = float(np.min(base, initial=c6))
        cols.append((np.broadcast_to(t, base.shape), m_sel, base))
    used = sum(len(m) for _, m, _ in cols)
    # every triple enters c6; the rows keep one in ``stride``
    stride = max(1, math.ceil(used / RATIO_ROWS))
    t_s, m_s, base_s = (np.concatenate(c)[::stride].tolist()
                        for c in zip(*cols))
    rows = [{"t": t, "m": m, "base": base}
            for t, m, base in zip(t_s, m_s, base_s)]
    return ConditionReport(
        "chain-lower", constants={"c5": c5, "c6": c6},
        ranges={"triples": used, "m_cap": m_cap,
                "times": list(map(float, times))},
        rows=rows,
    ).judge(triples=positive, c6=positive)
