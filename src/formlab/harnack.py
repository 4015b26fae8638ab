"""Caloric and harmonic function machinery; PHI, PHR and EHR checks.

A caloric function on a space-time cylinder solves du/dt = L u inside the
spatial ball with prescribed exterior data.  Two family modes:

* NECESSARY: global heat flows u_z(t, x) = p(t, x, z) mu(z), caloric on
  every cylinder.  Cheap; its worst Harnack ratio is a necessary condition.
* FULL: one caloric function per exterior space-time atom (the columns of
  the discrete parabolic Poisson kernel), evolved by exact exponential
  stepping on the cylinder ball.  Any nonnegative caloric function on the
  cylinder is a mixture of these atoms, and by the mediant inequality the
  per-atom sup/inf ratios dominate every mixture, so on small spaces the
  fitted constant is a genuine PHI verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, repeat

import numpy as np
from scipy.linalg import eigh

from .envelopes import _pow
from .form import DirichletForm, heat_kernel, kernel_blocks
from .functionals import ConditionReport, _no_ball
from .space import Count, Fraction, Mode, Positive

__all__ = [
    "HarnackError",
    "CylinderSpec",
    "CaloricFamily",
    "harmonic_solve",
    "caloric_poisson",
    "check_phi",
    "check_regularity",
    "heat_kernel",   # not called here; perfbench's namespace test reads it
]

FULL_CAP_BALL = 256
FULL_CAP_ATOMS = 2000
FLOOR = 1e-300


class HarnackError(ValueError):
    pass


@dataclass
class CylinderSpec:
    """Space-time cylinder for the parabolic Harnack inequality.

    With phi the combined scale, the caloric domain is
    (0, phi(C4 R)) x B(x0, C5 R) and the windows are
    Q- = (phi(C1 R), phi(C2 R)) x B(x0, R),
    Q+ = (phi(C3 R), phi(C4 R)) x B(x0, R).
    The semigroup is time-homogeneous, so the cylinder starts at time 0.
    """

    x0: int
    R: float
    constants: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)

    def __post_init__(self):
        C1, C2, C3, C4, C5 = self.constants
        if not (0.0 < C1 < C2 < C3 < C4) or not C5 > 1.0:
            raise HarnackError("need 0 < C1 < C2 < C3 < C4 and C5 > 1")

    def windows(self, scales):
        C1, C2, C3, C4, _ = self.constants
        phi = scales.phi
        return (
            (phi(C1 * self.R), phi(C2 * self.R)),
            (phi(C3 * self.R), phi(C4 * self.R)),
        )

    def horizon(self, scales):
        return scales.phi(self.constants[3] * self.R)

    def ball_radius(self):
        return self.constants[4] * self.R


def harmonic_solve(form: DirichletForm, B, exterior_data):
    """Solve for the function harmonic in B with the given exterior values;
    the harmonicity residual inside B is checked to 1e-10."""
    idx = np.asarray(B, dtype=int)
    u = np.asarray(exterior_data, dtype=float).copy()
    ext = np.setdiff1d(np.arange(form.n), idx)
    A_BB = form.A[np.ix_(idx, idx)]
    rhs = -form.A[np.ix_(idx, ext)] @ u[ext]
    try:
        u[idx] = np.linalg.solve(A_BB, rhs)
    except np.linalg.LinAlgError as exc:
        raise HarnackError("singular restriction in harmonic_solve") from exc
    res = np.abs(form.A[idx] @ u) / max(np.abs(u).max(), 1.0)
    if res.max() > 1e-10:
        raise HarnackError(f"harmonicity residual {res.max():g}")
    return u


@dataclass
class CaloricFamily:
    """Evaluations of a caloric family on the Q-/Q+ sample grids.

    sup_minus/inf_plus are per-atom extrema over the corresponding window
    restricted to B(x0, R); `worst` carries the atom achieving the largest
    ratio, with its full window traces."""

    mode: str
    n_atoms: int
    sup_minus: np.ndarray
    inf_plus: np.ndarray
    worst: dict = field(default_factory=dict)
    samples_minus: list | None = None    # per Q- time: (ball_R x atoms)
    samples_plus: list | None = None

    def ratios(self):
        ok = (self.inf_plus > FLOOR) & (self.sup_minus > FLOOR)
        out = np.full(len(self.sup_minus), np.nan)
        out[ok] = self.sup_minus[ok] / self.inf_plus[ok]
        return out


def _window_times(lo, hi, k=5):
    return list(np.linspace(lo, hi, k + 2)[1:-1])


def _flow_times(scales, cyl: CylinderSpec, n_window_times: int):
    """Q- and Q+ sample times of a cylinder."""
    (qm_lo, qm_hi), (qp_lo, qp_hi) = cyl.windows(scales)
    return (_window_times(qm_lo, qm_hi, n_window_times),
            _window_times(qp_lo, qp_hi, n_window_times))


def caloric_poisson(form: DirichletForm, scales, cyl: CylinderSpec,
                    mode: Mode = "necessary", n_atom_intervals: int = 8,
                    n_window_times: int = 5, keep_samples: bool = False,
                    blocks=None) -> CaloricFamily:
    """Produce the caloric family for a cylinder and record its Q-/Q+ extrema.

    FULL mode solves the backward parabolic problem per exterior space-time
    atom with exact spectral stepping (capped at ball size 256 and 2000
    atoms); NECESSARY mode uses the global heat flows from point masses.
    ``blocks`` are the B(x0, R) x atoms slices of the global p at the Q-
    then Q+ sample times when the caller holds them already (NECESSARY mode
    only).
    """
    space = form.space
    ball_R = space.ball(cyl.x0, cyl.R)
    t_minus, t_plus = _flow_times(scales, cyl, n_window_times)

    if mode == "necessary":
        atoms = np.arange(form.n)
        if blocks is None:
            (blocks,) = kernel_blocks(form, t_minus + t_plus,
                                      [(ball_R, atoms)])
        # u_z(t, x) = p(t, x, z) mu(z) on B(x0, R) x atoms, one slab per time
        flows = np.stack([K * form.mu[atoms] for K in blocks])
        nm = len(t_minus)
        sup_m = flows[:nm].max(axis=(0, 1))
        inf_p = flows[nm:].min(axis=(0, 1))
        fam = CaloricFamily("necessary", len(atoms), sup_m, inf_p)
        k = int(np.nanargmax(np.where(inf_p > FLOOR, sup_m / np.maximum(inf_p, FLOOR), -np.inf)))
        fam.worst = {"atom": int(atoms[k]),
                     "trace_minus": flows[:nm, :, k].tolist(),
                     "trace_plus": flows[nm:, :, k].tolist()}
        return fam

    if mode != "full":
        raise HarnackError(f"unknown caloric mode {mode!r}")

    B_cyl = space.ball(cyl.x0, cyl.ball_radius())
    if space.dist_to_boundary[cyl.x0] < cyl.ball_radius():
        raise HarnackError(
            "FULL cylinder ball reaches the truncation boundary; shrink R"
        )
    nb = len(B_cyl)
    if nb > FULL_CAP_BALL:
        raise HarnackError(f"FULL mode capped at ball size {FULL_CAP_BALL}")
    ext = np.setdiff1d(np.arange(form.n), B_cyl)
    n_side = len(ext) * n_atom_intervals
    if n_side > FULL_CAP_ATOMS:
        raise HarnackError(f"FULL mode capped at {FULL_CAP_ATOMS} atoms")

    horizon = cyl.horizon(scales)
    n_sub = 256
    h = horizon / n_sub
    lam, Q = eigh(form.sym_generator(B_cyl))
    lam = np.maximum(lam, 1e-14)
    sq = form._sqmu[B_cyl]
    Cq = Q * sq[:, None]
    e_h = np.exp(-lam * h)
    # atoms in eigen-coordinates W = Cq^T u, so u = Bq W with Bq = Q / sq
    # (Cq^T Bq = I); a step is W <- e_h W + phi_h Cq^T (coupling @ u_ext)
    coupling = -(form.A[np.ix_(B_cyl, ext)] / form.mu[B_cyl][:, None])
    inflow = ((1.0 - e_h) / lam)[:, None] * (Cq.T @ coupling)

    n_atoms = nb + n_side
    W = np.zeros((nb, n_atoms))
    W[:, :nb] = Cq.T                     # bottom atoms: delta data at time 0

    # the distinct rounded sample times, in order
    rec_m = list(dict.fromkeys(round(t, 12) for t in t_minus))
    rec_p = list(dict.fromkeys(round(t, 12) for t in t_plus))
    sample_steps = {}
    for t in rec_m + rec_p:
        sample_steps.setdefault(int(round(t / h)), []).append(t)

    posR = np.array([int(np.nonzero(B_cyl == p)[0][0]) for p in ball_R])
    Bq_R = Q[posR] / sq[posR][:, None]
    samples = {}
    for k in range(1, n_sub + 1):
        t_mid = (k - 0.5) * h
        interval = min(int(t_mid / horizon * n_atom_intervals),
                       n_atom_intervals - 1)
        W *= e_h[:, None]
        lo = nb + interval * len(ext)
        W[:, lo:lo + len(ext)] += inflow
        if k in sample_steps:
            U_R = Bq_R @ W
            for t in sample_steps[k]:
                samples[t] = U_R

    sup_m = np.full(n_atoms, -np.inf)
    inf_p = np.full(n_atoms, np.inf)
    for t in rec_m:
        sup_m = np.maximum(sup_m, samples[t].max(axis=0))
    for t in rec_p:
        inf_p = np.minimum(inf_p, samples[t].min(axis=0))
    fam = CaloricFamily("full", n_atoms, np.maximum(sup_m, 0.0),
                        np.maximum(inf_p, 0.0))
    if keep_samples:
        fam.samples_minus = [samples[t] for t in rec_m]
        fam.samples_plus = [samples[t] for t in rec_p]
    ratios = fam.ratios()
    if np.isfinite(ratios).any():
        k = int(np.nanargmax(ratios))
        fam.worst = {"atom": k, "ratio": float(ratios[k])}
    return fam


def _families(form, scales, cylinders, mode, n_window_times,
              n_atom_intervals):
    """The caloric family of each cylinder in turn.  In NECESSARY mode a run
    of consecutive cylinders with equal sample times (same R and
    constants) shares one pass over the global kernels at those times: each
    kernel is sliced to every cylinder's B(x0, R) x atoms block and dropped."""
    atoms = np.arange(form.n)

    def flow_times(cyl):
        t_minus, t_plus = _flow_times(scales, cyl, n_window_times)
        return tuple(t_minus + t_plus)

    for times, run in groupby(cylinders, key=flow_times):
        run = list(run)
        if mode == "necessary":
            cyl_blocks = kernel_blocks(form, times, [
                (form.space.ball(c.x0, c.R), atoms) for c in run])
        else:
            cyl_blocks = [None] * len(run)
        for cyl, blocks in zip(run, cyl_blocks):
            yield caloric_poisson(form, scales, cyl, mode=mode,
                                  n_atom_intervals=n_atom_intervals,
                                  n_window_times=n_window_times,
                                  blocks=blocks)


def check_phi(form: DirichletForm, scales, cylinders, mode: Mode = "necessary",
              n_window_times: Count = 5,
              n_atom_intervals: Count = 8) -> ConditionReport:
    """Fit C6 = sup over the caloric family of sup_{Q-} u / inf_{Q+} u.

    In FULL mode on small cylinders this bounds every nonnegative caloric
    function by linearity + the mediant inequality; in NECESSARY mode the
    fitted constant is a necessary-condition check, labelled as such.
    """
    rows = []
    C6 = 0.0
    witness, fit = {}, {}   # fit: C6 and its grid, once every family is alive
    for cyl, fam in zip(cylinders, _families(form, scales, cylinders, mode,
                                             n_window_times,
                                             n_atom_intervals)):
        ratios = fam.ratios()
        alive = ratios[np.isfinite(ratios)]
        if alive.size == 0 or np.any((fam.sup_minus > FLOOR)
                                     & (fam.inf_plus <= FLOOR)):
            reason = ("caloric family vanished on Q+" if alive.size == 0
                      else "positive mass on Q- with vanishing Q+")
            witness = {"x0": cyl.x0, "R": cyl.R, "reason": reason}
            break   # reported with no C6: the bound fails
        c = float(alive.max())
        rows.append({"x0": cyl.x0, "R": cyl.R, "C6": c,
                     "atoms": fam.n_atoms, "mode": fam.mode})
        if c > C6:
            C6 = c
            witness = {"x0": cyl.x0, "R": cyl.R, "worst": fam.worst}
    else:
        fit = {"constants": {"C6": C6, "C1..C5": list(cylinders[0].constants)},
               "ranges": {"cylinders": [(c.x0, c.R) for c in cylinders],
                          "mode": mode}, "rows": rows}
    return ConditionReport("PHI(phi)", witness=witness, **fit).judge(
        "certificate" if mode == "full" else "for-family", C6=np.isfinite)


# -- Hoelder regularity -------------------------------------------------------------


def _theta_fit(fn, theta_grid, cap):
    """fn: (|du|, normalized separation, sup|u|) of one function, the first
    two arrays over its point pairs; returns the largest theta whose fitted
    c stays under the cap, with that c."""
    du, sep, supu = fn
    pos = (sep > 0.0) & (supu > FLOOR)
    du, sep = du[pos], sep[pos].tolist()
    best = (None, math.inf)
    for theta in sorted(theta_grid, reverse=True):
        powed = np.array(_pow(sep, repeat(theta)))
        c = float(np.fmax.reduce(du / (powed * supu), initial=0.0))
        if c <= cap:
            return theta, c
        best = (theta, c)
    return best


def check_regularity(form: DirichletForm, scales, radii, eps: Fraction = 0.5,
                     theta_grid: tuple[Fraction, ...] = (1.0, 0.5, 0.25, 0.125),
                     c_cap: Positive = 32.0,
                     n_window_times: Count = 4, max_centers: int = 2,
                     seed: int = 0x5EED) -> ConditionReport:
    """Fitted Hoelder exponents and constants.

    EHR over the harmonic Poisson family of each ball (columns of harmonic
    measure); PHR over global heat flows on the parabolic cylinder, with the
    time increment entering through phi^{-1}(|s - t|).  Reports the
    inf-over-family theta per condition.
    """
    space = form.space
    rng = np.random.RandomState(seed)
    ehr_fns, phr_fns, rows = [], [], []   # (|du|, sep, sup|u|) per function
    for r in radii:
        centers = space.spread_centers(r, max_centers)
        if len(centers) == 0:
            continue
        # caloric family: global heat flows sampled in the last window
        phi_r = scales.phi(r)
        ts = _window_times(phi_r - scales.phi(eps * r), phi_r, n_window_times)
        # time pairs a <= b with the lag phi^{-1}(|t_a - t_b|) between them
        ta, tb = np.triu_indices(len(ts))
        lag = np.array([scales.phi.inverse(abs(ts[a] - ts[b])) if a != b
                        else 0.0 for a, b in zip(ta.tolist(), tb.tolist())])
        drawn = []   # (core, zs) of each usable centre
        for x0 in map(int, centers):
            B = space.ball(x0, r)
            ext = np.setdiff1d(np.arange(form.n), B)
            if len(ext) == 0:
                continue
            core = B[space.dist(x0, B) < eps * r]
            if len(core) < 2:
                continue
            # harmonic Poisson columns for a sample of exterior atoms
            picks = ext[rng.choice(len(ext), size=min(12, len(ext)),
                                   replace=False)]
            p, q = (core[k] for k in np.triu_indices(len(core), 1))
            sep = space.dist(p, q) / r
            for z in picks:
                data = np.zeros(form.n)
                data[z] = 1.0
                u = harmonic_solve(form, B, data)
                ehr_fns.append((np.abs(u[p] - u[q]), sep,
                                float(np.abs(u).max())))
            zs = rng.choice(form.n, size=min(8, form.n), replace=False)
            drawn.append((core, zs))
            rows.append({"x0": x0, "r": r, "n_core": len(core)})
        if not drawn:
            continue
        # the kernel columns of every centre's flows, in one pass
        columns = kernel_blocks(form, ts, [(np.arange(form.n), zs)
                                           for _, zs in drawn])
        for (core, zs), slabs in zip(drawn, columns):
            # point pairs p <= q: (a, a) with (p, p) has sep 0 and is skipped
            p, q = (core[k] for k in np.triu_indices(len(core)))
            sep = ((lag[:, None] + space.dist(p, q)) / r).ravel()
            for j, z in enumerate(zs):
                traces = np.stack([K[:, j] * form.mu[z] for K in slabs])
                phr_fns.append((
                    np.abs(traces[ta][:, p] - traces[tb][:, q]).ravel(), sep,
                    float(np.abs(traces).max())))

    def family_fit(groups):
        theta_fam, c_fam = 1.0, 0.0
        for fn in groups:
            theta, c = _theta_fit(fn, theta_grid, c_cap)
            if theta is None:
                return None, math.inf
            theta_fam = min(theta_fam, theta)
            c_fam = max(c_fam, c)
        return theta_fam, c_fam

    if not ehr_fns or not phr_fns:
        return _no_ball("PHR/EHR", "no usable family: every core ball at "
                        "eps*r has fewer than two points",
                        radii=list(map(float, radii)))
    theta_e, c_e = family_fit(ehr_fns)
    theta_p, c_p = family_fit(phr_fns)
    return ConditionReport(
        "PHR/EHR",
        constants={"theta_EHR": theta_e, "c_EHR": c_e,
                   "theta_PHR": theta_p, "c_PHR": c_p,
                   "eps": eps, "c_cap": c_cap},
        ranges={"radii": list(map(float, radii)),
                "ehr_functions": len(ehr_fns),
                "phr_functions": len(phr_fns)},
        rows=rows,
    ).judge(**dict.fromkeys(("theta_EHR", "theta_PHR"),
                            lambda theta: theta is not None))
