"""Variational functionals and scaling-condition checks with fitted constants.

Every check sweeps an explicit (center, radius, time, function) family and
fits its constant as a sup or inf over the sweep, so a "certified" verdict
means the stated inequality literally holds with the reported constant on
that grid.  Existential conditions (generalized capacity, cut-off Sobolev)
are checked by certificate: concrete candidate cut-offs witness the
inequality, and candidate failure refutes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .form import DirichletForm, exit_stats
from .space import Count, Dilation, Fraction, MetricMeasureSpace, Positive

__all__ = [
    "ConditionReport",
    "function_family",
    "ball_family",
    "lambda1",
    "check_fk",
    "poincare",
    "check_pi",
    "capacity",
    "generalized_capacity",
    "check_gcap",
    "check_cs",
    "check_exit",
    "tail_and_ujs",
    "fit_jpsi",
]

SEED = 0x5EED


# verdict kind -> the verdict of a report whose bound holds; a report whose
# bound fails is "failed", whatever its kind.  An unbounded check declares
# no bound, so its report always reads "certified".
KINDS = {"certificate": "certified", "one-sided": "one-sided-certificate",
         "for-family": "certified-for-family", "unbounded": "certified"}
ERRORED = "errored"   # run_suite's verdict for a check that raised


def positive(value):
    """The bound of a constant that must be finite and above zero."""
    return np.isfinite(value) and value > 0.0


@dataclass
class ConditionReport:
    """Per-condition verdict with the fitted constants and the worst-case
    witness configuration."""

    condition: str
    verdict: str = ""                  # set by ``judge``, or ERRORED
    constants: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)   # per-instance table for CSV
    notes: str = ""
    labels: np.ndarray | None = None   # plot classes per pair; not in to_dict

    def to_dict(self):
        return {k: getattr(self, k) for k in ("condition", "verdict",
                                              "constants", "witness",
                                              "ranges", "notes")}

    def judge(self, kind="certificate", **bound):
        """Set the verdict by the one rule and return the report: the
        ``KINDS`` verdict of ``kind`` when each test of ``bound`` holds of
        the constant, or else the range, that it names, and "failed"
        otherwise.  A name the report lacks reads nan."""
        values = {**self.ranges, **self.constants}
        holds = all(test(values.get(name, math.nan))
                    for name, test in bound.items())
        self.verdict = KINDS[kind] if holds else "failed"
        return self


# -- shared families -----------------------------------------------------------


def ball_family(space: MetricMeasureSpace, radii, reach_factor=1.0,
                max_centers=6):
    """(center, radius) pairs whose reach_factor-enlarged ball avoids the
    truncation boundary; centers thinned deterministically."""
    return [(int(x), float(r)) for r in radii
            for x in space.spread_centers(reach_factor * r, max_centers)]


def _no_ball(condition, notes="no ball of the family fits the space",
             **ranges):
    """The failed report of a check that swept no instance: no constants
    and no rows, the ranges it was given and a note naming the empty family
    or time window.  A constant fitted over nothing certifies nothing: the
    bound of at least one instance fails on it."""
    return ConditionReport(condition, ranges=ranges,
                           notes=notes).judge(instances=positive)


def function_family(form: DirichletForm, seed=SEED):
    """Standard test family: three delta bumps, three radial tents, eight
    low eigenvectors of the local part and four seeded random functions."""
    space = form.space
    n = space.n
    rng = np.random.RandomState(seed)
    fns = []
    interior = space.interior()
    if len(interior) == 0:
        interior = np.arange(n)
    picks = interior[np.linspace(0, len(interior) - 1, 3).round().astype(int)]
    for x in picks:
        e = np.zeros(n)
        e[x] = 1.0
        fns.append(e)
    r_tent = max(space.interior_margin, 2.0)
    for x in picks:
        fns.append(np.maximum(0.0, 1.0 - space.dist(x) / r_tent))
    sq = np.sqrt(space.mu)
    S_loc = form.local_laplacian() / np.outer(sq, sq)
    k = min(9, n)
    _, vecs = eigh(S_loc, subset_by_index=[0, k - 1])
    for j in range(1, k):
        fns.append(vecs[:, j] / sq)
    for _ in range(4):
        fns.append(rng.standard_normal(n))
    return fns


# -- Faber-Krahn ----------------------------------------------------------------


def lambda1(form: DirichletForm, D) -> float:
    """Bottom of the Dirichlet spectrum of the form restricted to D."""
    idx = np.asarray(D, dtype=int)
    if len(idx) == 0:
        raise ValueError("lambda1 needs a nonempty domain")
    return float(eigvalsh(form.sym_generator(idx), subset_by_index=[0, 0])[0])


def _subsets_of_ball(space, x0, r, seed=SEED):
    B = space.ball(x0, r)
    order = B[np.argsort(space.dist(x0, B), kind="stable")]
    rng = np.random.RandomState(seed)
    subs = {"full": B, "half": order[: max(1, len(order) // 2)],
            "sparse": order[::4] if len(order) >= 4 else order}
    if len(order) > 2:
        mask = rng.rand(len(order)) < 0.5
        if not mask.any():
            mask[0] = True
        subs["random"] = order[mask]
    return subs


def check_fk(form: DirichletForm, scales, radii,
             nu_grid: tuple[Fraction, ...] = (0.25, 0.5, 0.75, 1.0),
             max_centers=4, seed=SEED) -> ConditionReport:
    """Fit the largest C per nu making
    lambda1(D) >= C / phi(r) (V(x,r)/mu(D))^nu over sampled (ball, subset)
    pairs, including thin and sparse subsets."""
    space = form.space
    fam = ball_family(space, radii, reach_factor=1.0, max_centers=max_centers)
    rows = []
    for x0, r in fam:
        V = space.volume(x0, r)
        for name, D in _subsets_of_ball(space, x0, r, seed).items():
            lam = lambda1(form, D)
            muD = float(space.mu[D].sum())
            rows.append({"x0": x0, "r": r, "subset": name, "lambda1": lam,
                         "V": V, "muD": muD, "phi_r": scales.phi(r)})
    if not rows:
        return _no_ball("FK(phi)", radii=list(map(float, radii)))
    table = {}
    witness = {}
    for nu in dict.fromkeys([*nu_grid, 0.5]):   # the headline nu always
        best, arg = math.inf, None
        for row in rows:
            c = row["lambda1"] * row["phi_r"] / (row["V"] / row["muD"]) ** nu
            if c < best:
                best, arg = c, row
        table[f"C(nu={nu})"] = best
        if nu == 0.5:
            witness = {k: arg[k] for k in ("x0", "r", "subset", "lambda1")}
    return ConditionReport(
        "FK(phi)", constants={"C": table["C(nu=0.5)"], "nu": 0.5, **table},
        witness=witness,
        ranges={"radii": list(map(float, radii)), "instances": len(rows)},
        rows=rows,
    ).judge(C=positive)


# -- Poincare --------------------------------------------------------------------


def poincare(form: DirichletForm, scales, x0: int, r: float, kappa: float = 1.0):
    """Best constant in the weak Poincare inequality on B(x0, r):

    int_{B_r} (f - mean)^2 dmu <= C phi(r) * (restricted energy over the
    kappa-dilated ball), computed as the top generalized eigenvalue of the
    centered mass form against the restricted energy form.
    """
    if kappa < 1.0:
        raise ValueError("poincare needs a dilation kappa >= 1")
    space = form.space
    B = space.ball(x0, r)
    Bk = space.ball(x0, kappa * r)
    m = len(Bk)
    if m < 2:
        return 0.0, None
    sel = np.searchsorted(Bk, B)        # positions of B inside Bk
    muB = space.mu[B]
    N = np.zeros((m, m))
    N[np.ix_(sel, sel)] = np.diag(muB) - np.outer(muB, muB) / muB.sum()

    D = form.local_laplacian(Bk)
    if form.jump is not None:
        K = form.jump.matrix[np.ix_(Bk, Bk)] * np.outer(space.mu[Bk], space.mu[Bk])
        Kl = -2.0 * K
        Kl[np.diag_indices(m)] = 2.0 * K.sum(axis=1)
        D += Kl

    # orthonormal basis of the complement of constants
    ones = np.ones((m, 1)) / math.sqrt(m)
    Wb = np.linalg.qr(np.eye(m) - ones @ ones.T)[0][:, : m - 1]
    Nr = Wb.T @ N @ Wb
    Dr = Wb.T @ D @ Wb
    ridge = 1e-12 * max(np.trace(Dr) / (m - 1), 1.0)
    ev_d = eigvalsh(Dr)
    if ev_d[0] <= ridge:
        return math.inf, {"x0": x0, "r": r, "reason": "disconnected dilated ball"}
    lam = eigvalsh(Nr, Dr + ridge * np.eye(m - 1))[-1]
    return float(lam) / scales.phi(r), None


def check_pi(form: DirichletForm, scales, radii,
             kappas: tuple[Dilation, ...] = (1.0, 2.0),
             max_centers=4) -> ConditionReport:
    space = form.space
    rows = []
    worst = {"C": 0.0}
    infinite = None
    for kappa in kappas:
        fam = ball_family(space, radii, reach_factor=kappa, max_centers=max_centers)
        for x0, r in fam:
            c, bad = poincare(form, scales, x0, r, kappa)
            rows.append({"x0": x0, "r": r, "kappa": kappa, "C": c})
            if bad is not None:
                infinite = bad
            if np.isfinite(c) and c > worst["C"]:
                worst = {"C": c, "x0": x0, "r": r, "kappa": kappa}
    ranges = {"radii": list(map(float, radii)), "kappas": list(kappas)}
    if not rows or {r["kappa"] for r in rows} != set(kappas):
        return _no_ball("PI(phi)", **ranges)
    consts = {"C": worst["C"],
              **{f"C(kappa={k})": max((r["C"] for r in rows
                                       if r["kappa"] == k), default=0.0)
                 for k in kappas}}
    if infinite is not None:
        consts, worst = {"C": math.inf}, infinite
    return ConditionReport("PI(phi)", constants=consts, witness=worst,
                           ranges=ranges, rows=rows).judge(C=np.isfinite)


# -- capacity --------------------------------------------------------------------


def capacity(form: DirichletForm, A, B):
    """Relative capacity cap(A, B): minimal energy over potentials that are
    1 on A and 0 outside B.  Returns (value, potential)."""
    A_idx = np.asarray(A, dtype=int)
    B_idx = np.asarray(B, dtype=int)
    if len(A_idx) == 0:
        raise ValueError("capacity needs nonempty A")
    if not np.isin(A_idx, B_idx).all():
        raise ValueError("capacity needs A contained in B")
    if len(B_idx) >= form.n:
        raise ValueError("capacity needs a nonempty complement of B")
    phi = np.zeros(form.n)
    phi[A_idx] = 1.0
    free = np.setdiff1d(B_idx, A_idx)
    if len(free):
        Aff = form.A[np.ix_(free, free)]
        rhs = -form.A[np.ix_(free, A_idx)].sum(axis=1)
        phi[free] = np.linalg.solve(Aff, rhs)
    return form.energy(phi), phi


def _gcap_cutoffs(form: DirichletForm, A, B, x0=None, radii=None):
    """The kappa-free candidate cut-offs of (A, B): the equilibrium
    potential and, for concentric balls, the radial linear ramp."""
    _, eq = capacity(form, A, B)
    cutoffs = [eq]
    if x0 is not None and radii is not None:
        r_in, r_out = radii
        d = form.space.dist(x0)
        ramp = np.clip((r_out - d) / max(r_out - r_in, 1e-12), 0.0, 1.0)
        ramp[d >= r_out] = 0.0
        cutoffs.append(ramp)
    return cutoffs


def _gcap_min(form: DirichletForm, f2, cutoffs, values, kappa):
    """Least E(f^2 phi, phi) over the cut-offs, whose values are given, each
    followed by its kappa-scaled copy min(kappa phi, kappa) when kappa > 1;
    the first least candidate wins."""
    vals, cands = [], []
    for phi, val in zip(cutoffs, values):
        vals.append(val)
        cands.append(phi)
        if kappa > 1.0:
            scaled = np.minimum(kappa * phi, kappa)
            vals.append(float((f2 * scaled) @ form.A @ scaled))
            cands.append(scaled)
    k = int(np.argmin(vals))
    return vals[k], cands[k]


def generalized_capacity(form: DirichletForm, f, A, B, kappa: float = 1.0,
                         x0=None, radii=None):
    """E(f^2 phi, phi) minimised over candidate kappa-cut-offs: the scaled
    equilibrium potential and, for concentric balls, radial linear ramps.
    Candidate-based, so the value is an upper bound on the true generalized
    capacity."""
    f = np.asarray(f, dtype=float)
    f2 = f * f
    cutoffs = _gcap_cutoffs(form, A, B, x0, radii)
    values = [float((f2 * phi) @ form.A @ phi) for phi in cutoffs]
    return _gcap_min(form, f2, cutoffs, values, kappa)


def check_gcap(form: DirichletForm, scales, families, test_fns,
               kappas: tuple[Dilation, ...] = (1.0, 2.0)) -> ConditionReport:
    """One-sided certificate for the generalized capacity inequality: the
    candidate cut-offs witness E(f^2 phi, phi) <= C/phi(r) int_B f^2 dmu.
    The capacity solve is made once per family and each kappa-free
    candidate is evaluated once per test function."""
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
        cutoffs = None
        for fi, f in enumerate(test_fns):
            mass = float(np.sum(np.asarray(f)[B_idx] ** 2 * space.mu[B_idx]))
            if mass <= 0.0:
                continue
            if cutoffs is None:
                cutoffs = _gcap_cutoffs(form, A_idx, B_idx, x0, (R, R + r))
            f = np.asarray(f, dtype=float)
            f2 = f * f
            values = [float((f2 * phi) @ form.A @ phi) for phi in cutoffs]
            for kappa in kappas:
                val, _ = _gcap_min(form, f2, cutoffs, values, kappa)
                c = val * phi_r / mass
                rows.append({"x0": x0, "R": R, "r": r, "kappa": kappa,
                             "fn": fi, "C": c})
                if c > fitted[kappa]:
                    fitted[kappa] = c
                    if kappa == min(kappas):
                        witness = {"x0": x0, "R": R, "r": r, "fn": fi, "C": c}
    if not rows:
        return _no_ball("Gcap(phi)", instances=0)
    consts = {f"C(kappa={k})": v for k, v in fitted.items()}
    consts["C"] = min(fitted.values())
    return ConditionReport(
        "Gcap(phi)", constants=consts,
        witness=witness, ranges={"instances": len(rows)}, rows=rows,
    ).judge("one-sided")


# -- cut-off Sobolev -------------------------------------------------------------


def _cs_terms(form, x0, R, r, C0, fns, rhos):
    """(mass, sides) of the cut-off Sobolev inequality for each test
    function, with the radial ramp cut-off of B(x0, R) in B(x0, R + r):
    sides[0] is (LHS, RT1) with the form's jump kernel, and sides[1 + i]
    with its jumps of range > rhos[i] removed, for ``rhos`` in descending
    order.  Each jump product is formed once, in an array the family
    reuses; a smaller rho zeroes more of its entries, which gives the
    truncated kernel's product bit for bit, as every factor is finite and
    nonnegative."""
    space = form.space
    mu = space.mu
    d0 = space.dist(x0)
    B2 = space.ball(x0, R + r)
    B3 = space.ball(x0, R + (1.0 + C0) * r)
    ramp = np.clip((R + r - d0) / r, 0.0, 1.0)
    ramp[d0 >= R + r] = 0.0
    gamma_ramp = form.local_champ(ramp)[B3]
    ramp2 = ramp[B2] ** 2
    J = None if form.jump is None else form.jump.matrix
    if J is not None:
        dphi2 = (ramp[B3][:, None] - ramp[None, :]) ** 2
        J3, mu3 = J[B3], np.outer(mu[B3], mu)
        J23, mu23 = J[np.ix_(B2, B3)], np.outer(mu[B2], mu[B3])
        cuts = [(space.beyond(rho, at=B3),
                 space.beyond(rho, at=np.ix_(B2, B3))) for rho in rhos]
        # ((f^2 dphi^2) J) mu and ((ramp^2 df^2) J) mu, in their order
        left, right = np.empty_like(J3), np.empty_like(J23)
    out = []
    for f in fns:
        f = np.asarray(f, dtype=float)
        fsq = f[B3] ** 2
        # left side: int_{B3} f^2 dGamma(ramp, ramp)
        lhs = float(np.sum(fsq * gamma_ramp))
        # right side term 1: int_{B2} ramp^2 dGamma(f, f)
        rt1 = float(np.sum(ramp2 * form.local_champ(f)[B2]))
        if J is None:
            sides = [(lhs, rt1)] * (1 + len(rhos))
        else:
            np.multiply(fsq[:, None], dphi2, out=left)
            left *= J3
            left *= mu3
            np.subtract(f[B2][:, None], f[B3][None, :], out=right)
            right *= right
            right *= ramp2[:, None]
            right *= J23
            right *= mu23
            sides = []
            for cut in (None, *cuts):
                if cut is not None:
                    left[cut[0]] = 0.0
                    right[cut[1]] = 0.0
                sides.append((lhs + float(np.sum(left)),
                              rt1 + float(np.sum(right))))
        out.append((float(np.sum(fsq * mu[B3])), sides))
    return out


def check_cs(form: DirichletForm, scales, families, test_fns, C0: Positive = 1.0,
             rho_grid: list[Positive] | None = None) -> ConditionReport:
    """Cut-off Sobolev certificate with radial ramp cut-offs.

    For C1 in {0, 1} reports the smallest C2 so that
    LHS <= C1 * RT1 + C2/phi(r) * int_{B3} f^2 dmu across the family; the
    rho-truncated variant uses phi(r ^ rho) in place of phi(r).
    """
    rows = []
    fitted = {0.0: 0.0, 1.0: 0.0}
    witness = {}
    grid = list(rho_grid or ())
    # the grid's positions with rho descending, each truncation one step on
    order = sorted(range(len(grid)), key=lambda i: -grid[i])
    rhos = [grid[i] for i in order]
    worst = [0.0] * len(grid)
    for x0, R, r in families:
        phi_r = scales.phi(r)
        phi_rr = [scales.phi(min(r, rho)) for rho in rhos]
        terms = _cs_terms(form, x0, R, r, C0, test_fns, rhos)
        for fi, (mass, ((lhs, rt1), *cut)) in enumerate(terms):
            if mass <= 0.0:
                continue
            for c1 in (0.0, 1.0):
                c2 = max(0.0, (lhs - c1 * rt1) * phi_r / mass)
                rows.append({"x0": x0, "R": R, "r": r, "fn": fi,
                             "C1": c1, "C2": c2, "rho": None})
                if c2 > fitted[c1]:
                    fitted[c1] = c2
                    if c1 == 1.0:
                        witness = {"x0": x0, "R": R, "r": r, "fn": fi}
            for i, phi_i, (lhs_i, rt1_i) in zip(order, phi_rr, cut):
                worst[i] = max(worst[i], (lhs_i - rt1_i) * phi_i / mass)
    if not rows:
        return _no_ball("CS(phi)", instances=0)
    trunc = {f"C2(rho={rho:g})": max(0.0, w) for rho, w in zip(grid, worst)}
    return ConditionReport(
        "CS(phi)",
        constants={"C0": C0, "C1": 1.0, "C2": fitted[1.0],
                   "C2(C1=0)": fitted[0.0], **trunc},
        witness=witness, ranges={"instances": len(rows)}, rows=rows,
    ).judge("one-sided")


# -- exit-time conditions ---------------------------------------------------------


def check_exit(form: DirichletForm, scales, radii,
               time_fracs: tuple[Positive, ...] = (0.25, 0.5, 1.0),
               max_centers=5) -> ConditionReport:
    """Two-sided constant for E_phi and the EP_{phi,<=} constant over an
    (x, r, t) grid."""
    space = form.space
    rows = []
    c1, c_ep = 1.0, 0.0
    witness = {}
    for x0, r in ball_family(space, radii, reach_factor=1.0,
                             max_centers=max_centers):
        B = space.ball(x0, r)
        if len(B) == form.n:
            continue
        phi_r = scales.phi(r)
        times = [f * phi_r for f in time_fracs]
        st = exit_stats(form, B, times)
        center = int(np.nonzero(B == x0)[0][0])
        mean_c = float(st.mean[center])
        ratio = mean_c / phi_r
        c_here = max(ratio, 1.0 / ratio)
        rows.append({"x0": x0, "r": r, "mean_exit": mean_c, "phi_r": phi_r,
                     "ratio": ratio})
        if c_here > c1:
            c1 = c_here
            witness = {"x0": x0, "r": r, "mean_exit": mean_c, "phi_r": phi_r}
        for t, srow in zip(times, st.survival):
            p_exit = 1.0 - float(srow[center])
            c_ep = max(c_ep, p_exit * phi_r / t)
    if not rows:
        return _no_ball("E_phi", radii=list(map(float, radii)))
    return ConditionReport(
        "E_phi", constants={"c1": c1, "c_EP": c_ep},
        witness=witness, ranges={"radii": list(map(float, radii))}, rows=rows,
    ).judge(c1=np.isfinite)


# -- jump tail, UJS, two-sided J_psi ----------------------------------------------


def fit_jpsi(form: DirichletForm, psi):
    """Two-sided comparability fit of J against 1/(V(x,d) psi(d)) over
    interior ordered pairs; returns (c1, c2, per-distance table).  A pair
    reads V(x, d + 1e-9) and psi(d) by the rank of d in the space's distinct
    distances, as ``JumpKernel.stable_like`` does."""
    space = form.space
    u, interior = space.u, space.interior()
    block = np.ix_(interior, interior)
    k = space.R[block]
    mask = k > 0
    V = space.C[interior[:, None], u.searchsorted(u + 1e-9)[k]][mask]
    k = k[mask]
    ratios = form.jump.matrix[block][mask] * V * space.radial(psi, 1.0)[k]
    # the extremes per distance, then overall; fmin/fmax skip a nan ratio
    lo_u = np.full(len(u), math.inf)
    hi_u = np.zeros(len(u))
    np.fmin.at(lo_u, k, ratios)
    np.fmax.at(hi_u, k, ratios)
    per_d = {}
    for r in np.unique(k):
        key = round(float(u[r]), 9)
        lo, hi = per_d.get(key, (math.inf, 0.0))
        per_d[key] = (min(lo, float(lo_u[r])), max(hi, float(hi_u[r])))
    table = [{"d": k, "min_ratio": v[0], "max_ratio": v[1]}
             for k, v in sorted(per_d.items())]
    return float(lo_u.min()), float(hi_u.max()), table


def tail_and_ujs(form: DirichletForm, scales, radii, n_pairs: Count = 60,
                 seed=SEED, spread_cap: Positive = 8.0) -> ConditionReport:
    """Fits the jump-tail constant (integral of J over ball complements
    against 1/phi_j(r)), the UJS constant, and the two-sided J_{phi_j}
    comparability, whose spread c2/c1 fails over ``spread_cap``; fails with
    no constants on a jump-free form or over no interior pair."""
    space = form.space
    ranges = {"radii": list(map(float, radii))}
    if form.jump is None:
        return _no_ball("J-tail/UJS", "the form has no jump part", **ranges)
    interior = space.interior()
    if len(interior) < 2:
        return _no_ball("J-tail/UJS", "no pair of interior points", **ranges)
    J = form.jump.matrix
    rows = []
    c_tail = 0.0
    witness = {}
    for x0, r in ball_family(space, radii, reach_factor=1.0, max_centers=6):
        outside = space.beyond(r, x0, closed=True)
        T = float(np.sum(J[x0][outside] * space.mu[outside]))
        c = T * scales.phi_j(r)
        rows.append({"x0": x0, "r": r, "tail": T, "c": c})
        if c > c_tail:
            c_tail = c
            witness = {"x0": x0, "r": r, "tail": T}

    rng = np.random.RandomState(seed)
    c_ujs = 0.0
    tested = 0
    for _ in range(n_pairs):
        x, y = rng.choice(interior, size=2, replace=False)
        dxy = space.dist(x, y)
        if dxy <= 1.0:
            continue
        for r in np.unique(np.floor(np.geomspace(1.0, dxy / 2.0, 3))):
            if r < 1.0:
                continue
            Bx = space.ball(int(x), r + 1e-9)
            avg = (float(np.sum(J[Bx, y] * space.mu[Bx]))
                   / space.volume(int(x), r + 1e-9))
            if avg <= 0.0:
                c_ujs = math.inf
                break
            c_ujs = max(c_ujs, J[x, y] / avg)
            tested += 1
        if math.isinf(c_ujs):
            break   # J vanishes on a ball: UJS fails, the sweep ends here
    c1j, c2j, _ = fit_jpsi(form, scales.phi_j)
    spread = c2j / c1j if c1j > 0 else math.inf
    return ConditionReport(
        "J-tail/UJS",
        constants={"c_tail": c_tail, "c_UJS": c_ujs,
                   "J_phij_lower": c1j, "J_phij_upper": c2j,
                   "J_phij_spread": spread, "spread_cap": spread_cap},
        witness=witness, ranges={**ranges, "ujs_instances": tested}, rows=rows,
        notes=(f"two-sided comparability spread over cap {spread_cap}"
               if spread > spread_cap else ""),
    ).judge(c_tail=np.isfinite, c_UJS=np.isfinite, ujs_instances=positive,
            J_phij_spread=lambda s: not s > spread_cap)
