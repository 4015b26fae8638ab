"""Piecewise power-law scale calculus.

A space-time scale is a strictly increasing function r -> phi(r) relating a
ball radius to the characteristic time the process needs to cross it.  Every
scale here is a continuous piecewise power law, which keeps inverses, power
bounds and Legendre-type suprema exact.  A :class:`ScaleTriple` bundles the
diffusive scale phi_c, the jump scale phi_j, their pointwise minimum phi, and
the effective diffusion scale bar_phi_c = phi_c(r)/r used by the sub-Gaussian
exponent m(t, r) = r / bar_phi_c^{-1}(t/r).
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .space import _real

__all__ = [
    "ScaleError",
    "ScaleFunction",
    "ScaleTriple",
    "PowerBounds",
    "CrossoverResult",
    "legendre_sup",
    "crossover_radius",
    "power_bounds",
]

_CONT_TOL = 1e-9
_KEYS = {"break", "coeff", "exp"}   # of a piece in a config
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class ScaleError(ValueError):
    """Invalid scale construction or out-of-domain argument."""


@dataclass(frozen=True)
class ScaleFunction:
    """Strictly increasing piecewise power law.

    ``pieces`` is an ordered tuple of ``(break, coeff, exp)`` triples; piece i
    is ``coeff * r**exp`` on ``[break_i, break_{i+1})``, the first break is
    0.0 and the last piece extends to infinity.  Adjacent pieces must agree at
    their shared breakpoint (relative tolerance 1e-9).
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ScaleError("scale function needs at least one piece")
        pieces = tuple((float(b), float(c), float(e)) for b, c, e in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        breaks = [p[0] for p in pieces]
        if breaks[0] != 0.0:
            raise ScaleError("first piece must start at break 0.0")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ScaleError("breakpoints must be strictly increasing")
        if any(c <= 0.0 or e <= 0.0 for _, c, e in pieces):
            raise ScaleError("coefficients and exponents must be positive")
        for (b1, c1, e1), (b2, c2, e2) in zip(pieces, pieces[1:]):
            left = c1 * b2 ** e1
            right = c2 * b2 ** e2
            if abs(left - right) > _CONT_TOL * max(left, right):
                raise ScaleError(
                    f"discontinuity at breakpoint {b2}: {left} vs {right}"
                )
        # cached arrays for vectorised evaluation
        object.__setattr__(self, "_breaks", np.array(breaks))
        object.__setattr__(self, "_coeffs", np.array([p[1] for p in pieces]))
        object.__setattr__(self, "_exps", np.array([p[2] for p in pieces]))
        vals = np.array([0.0] + [c * b ** e for b, c, e in pieces[1:]])
        object.__setattr__(self, "_break_values", vals)
        object.__setattr__(self, "_break_list", vals.tolist())

    # -- constructors ---------------------------------------------------

    @classmethod
    def single_power(cls, exp: float, coeff: float = 1.0) -> "ScaleFunction":
        return cls(((0.0, coeff, exp),))

    @classmethod
    def from_exponents(cls, exps, breaks, coeff0: float = 1.0,
                       normalize: bool = True) -> "ScaleFunction":
        """Build from exponents and interior breakpoints, deriving the
        coefficients from continuity.  ``len(breaks) == len(exps) - 1``.
        By default the result is rescaled so that f(1) = 1."""
        if len(breaks) != len(exps) - 1:
            raise ScaleError("need one interior breakpoint less than exponents")
        pieces = [(0.0, float(coeff0), float(exps[0]))]
        for b, e in zip(breaks, exps[1:]):
            bprev, cprev, eprev = pieces[-1]
            c = cprev * b ** (eprev - e)
            pieces.append((float(b), c, float(e)))
        f = cls(tuple(pieces))
        if normalize:
            v1 = f(1.0)
            if v1 != 1.0:
                f = f.scaled(1.0 / v1)
        return f

    @classmethod
    def from_config(cls, spec) -> "ScaleFunction":
        """Load from a list of ``{"break":, "coeff":, "exp":}`` dicts,
        rescaled so that phi(1) = 1, with a warning if that actually changed
        anything.
        """
        if not (isinstance(spec, list) and all(
                isinstance(d, dict) and {"break", "exp"} <= d.keys() <= _KEYS
                and all(map(_real, d.values())) for d in spec)):
            raise ScaleError('a scale is a list of {"break", "coeff", "exp"} '
                             f"pieces of finite reals, got {spec!r}")
        pieces = tuple(
            (float(d["break"]), float(d.get("coeff", 1.0)), float(d["exp"]))
            for d in spec
        )
        try:
            f = cls(pieces)
        except OverflowError:
            raise ScaleError(f"scale pieces overflow a float: {spec!r}") from None
        v1 = f(1.0)
        if abs(v1 - 1.0) > 1e-12:
            warnings.warn(
                f"scale rescaled by {1.0 / v1:g} to enforce phi(1) = 1",
                stacklevel=2,
            )
            f = f.scaled(1.0 / v1)
        return f

    def scaled(self, factor: float) -> "ScaleFunction":
        return ScaleFunction(tuple((b, c * factor, e) for b, c, e in self.pieces))

    # -- evaluation -----------------------------------------------------

    def _piece_index(self, r):
        return np.clip(
            np.searchsorted(self._breaks, r, side="right") - 1, 0, len(self.pieces) - 1
        )

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0.0):
            raise ScaleError("scale functions are defined on r >= 0")
        idx = self._piece_index(r_arr)
        out = self._coeffs[idx] * r_arr ** self._exps[idx]
        return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out

    def inverse(self, v):
        """Closed-form inverse; exact per power piece.

        A Python or NumPy float or int is inverted in Python floats
        (``bisect`` and libm's ``pow``), with the array path's bits and
        without its numpy overhead."""
        if isinstance(v, (float, int)):
            v = float(v)
            if v <= 0.0:
                raise ScaleError("inverse requires a positive value")
            _, c, e = self.pieces[
                max(bisect.bisect_right(self._break_list, v) - 1, 0)]
            try:
                return (v / c) ** (1.0 / e)
            except OverflowError:   # numpy's power gives inf here
                return math.inf
        v_arr = np.asarray(v, dtype=float)
        if np.any(v_arr <= 0.0):
            raise ScaleError("inverse requires a positive value")
        idx = np.clip(np.searchsorted(self._break_values, v_arr, side="right")
                      - 1, 0, len(self.pieces) - 1)
        out = (v_arr / self._coeffs[idx]) ** (1.0 / self._exps[idx])
        return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out

    @property
    def exponents(self):
        return tuple(float(e) for e in self._exps)



@dataclass(frozen=True)
class PowerBounds:
    """Exact exponent window plus grid-certified envelope constants for
    c1 (R/r)^beta1 <= f(R)/f(r) <= c2 (R/r)^beta2."""

    beta1: float
    beta2: float
    c1: float
    c2: float


def power_bounds(f: ScaleFunction) -> PowerBounds:
    """Exact beta1/beta2 from the piece exponents; c1, c2 certified by an
    exhaustive ratio sweep over all breakpoint pairs and a log grid of 16
    points a decade."""
    beta1 = min(f.exponents)
    beta2 = max(f.exponents)
    bmax = max([b for b, _, _ in f.pieces] + [1.0])
    lo, hi = bmax * 1e-3, bmax * 1e3
    grid = np.geomspace(lo, hi, int(16 * math.log10(hi / lo)) + 2)
    grid = np.unique(np.concatenate([grid, [b for b, _, _ in f.pieces if b > 0]]))
    vals = f(grid)
    ratio = vals[None, :] / vals[:, None]
    scale = grid[None, :] / grid[:, None]
    iu = np.triu_indices(len(grid), k=1)
    c1 = float(np.min(ratio[iu] / scale[iu] ** beta1))
    c2 = float(np.max(ratio[iu] / scale[iu] ** beta2))
    return PowerBounds(beta1, beta2, c1, c2)


class ScaleTriple:
    """The scale pair (phi_c, phi_j) with phi = phi_c ^ phi_j and the
    effective diffusion scale bar_phi_c(r) = phi_c(r)/r.

    Requires phi_c(1) = phi_j(1) = 1, every phi_c exponent > 1, and the
    ordering phi_c <= phi_j on (0, 1], phi_c >= phi_j on [1, inf), checked
    exactly on the merged breakpoint partition.
    """

    def __init__(self, phi_c: ScaleFunction, phi_j: ScaleFunction):
        for name, f in (("phi_c", phi_c), ("phi_j", phi_j)):
            if abs(f(1.0) - 1.0) > 1e-12:
                raise ScaleError(f"{name}(1) must equal 1; got {f(1.0)!r}")
        if min(phi_c.exponents) <= 1.0:
            raise ScaleError(
                "every phi_c exponent must exceed 1 so that phi_c(r)/r is "
                "strictly increasing"
            )
        self._check_ordering(phi_c, phi_j)
        self.phi_c = phi_c
        self.phi_j = phi_j
        self.phi = self._min_scale(phi_c, phi_j)
        self.bar_phi_c = ScaleFunction(
            tuple((b, c, e - 1.0) for b, c, e in phi_c.pieces)
        )

    @staticmethod
    def _check_ordering(phi_c, phi_j):
        # Within any interval of the merged partition both functions are pure
        # powers, so their ratio is monotone and endpoint checks are exact.
        cuts = sorted(
            {b for b, _, _ in phi_c.pieces} | {b for b, _, _ in phi_j.pieces} | {1.0}
        )
        probes = [c for c in cuts if c > 0.0]
        probes += [0.5 * (a + b) for a, b in zip(probes, probes[1:])]
        probes += [probes[-1] * 4.0, max(p for p in probes) * 1e6]
        tol = 1e-12
        for r in probes:
            vc, vj = phi_c(r), phi_j(r)
            if r <= 1.0 and vc > vj * (1.0 + tol):
                raise ScaleError(f"phi_c > phi_j at r={r} <= 1")
            if r >= 1.0 and vc < vj * (1.0 - tol):
                raise ScaleError(f"phi_c < phi_j at r={r} >= 1")
        # asymptotic ends
        ec0, ej0 = phi_c.pieces[0][2], phi_j.pieces[0][2]
        if ec0 < ej0:
            raise ScaleError("phi_c must not exceed phi_j as r -> 0")
        ecn, ejn = phi_c.pieces[-1][2], phi_j.pieces[-1][2]
        if ecn < ejn:
            raise ScaleError("phi_c must dominate phi_j as r -> infinity")

    @staticmethod
    def _min_scale(phi_c, phi_j):
        # under the crossing-at-1 ordering the minimum is phi_c below 1 and
        # phi_j above, so the pieces concatenate along the cut at 1: phi_c's
        # pieces that start below 1, then phi_j's that end above it, the
        # first re-anchored at 1
        ends = [b for b, _, _ in phi_j.pieces[1:]] + [math.inf]
        return ScaleFunction(tuple(
            [p for p in phi_c.pieces if p[0] < 1.0]
            + [(max(b, 1.0), c, e)
               for (b, c, e), end in zip(phi_j.pieces, ends) if end > 1.0]))

    def m(self, t, r):
        """Sub-Gaussian exponent m(t, r) = r / bar_phi_c^{-1}(t / r) of a
        float or int pair, computed in floats; 0.0 at r = 0."""
        r = float(r)
        return r / self.bar_phi_c.inverse(float(t) / r) if r else 0.0


def _legendre_closed_form(phi_c: ScaleFunction, r: float, t: float, c0: float):
    """Exact supremum of s -> r/s - c0 t / phi_c(s) over each power piece."""
    best = 0.0  # the s -> infinity limit
    pieces = phi_c.pieces
    for i, (b, c, e) in enumerate(pieces):
        hi = pieces[i + 1][0] if i + 1 < len(pieces) else None
        cands = [b] if b > 0.0 else []
        if hi is not None:
            cands.append(hi)
        if abs(e - 1.0) > 1e-14:
            s_star = (e * c0 * t / (c * r)) ** (1.0 / (e - 1.0))
            if s_star >= b and (hi is None or s_star <= hi) and s_star > 0.0:
                cands.append(s_star)
        for s in cands:
            val = r / s - c0 * t / (c * s ** e)
            if val > best:
                best = val
    return best


def _log_grid(phi_c: ScaleFunction, t_val: float):
    """``legendre_sup``'s 512-point log grid around phi_c^{-1}(t) and phi_c
    on it."""
    center = phi_c.inverse(t_val)
    grid = np.geomspace(center * 1e-8, center * 1e8, 512)
    return grid, phi_c(grid)


def legendre_sup(triple: ScaleTriple, r, t_val: float, c0: float = 1.0):
    """sup_{s>0} { r/s - c0 t / phi_c(s) } for a scalar r (a float), or for
    each r of a 1-D array at the one time t (an array).

    The per-piece stationary points give the exact value for power laws; a
    512-point log grid around phi_c^{-1}(t) plus golden-section refinement is
    run as well and the larger of the two is returned.  One grid serves every
    r.  The refinement runs lane by lane in Python floats: ``math.exp`` and
    float ``**`` are libm's, whose bits numpy's SIMD ``exp`` and ``power``
    do not always match, and on a row of 100 lanes numpy's per-call cost
    exceeds the loop's.
    """
    scalar = np.ndim(r) == 0
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rs <= 0.0) or t_val <= 0.0 or c0 <= 0.0:
        raise ScaleError("legendre_sup needs r, t, c0 > 0")
    phi_c = triple.phi_c if isinstance(triple, ScaleTriple) else triple

    grid, phi_grid = _log_grid(phi_c, float(t_val))
    gvals = rs[:, None] / grid
    gvals -= c0 * t_val / phi_grid
    k = np.argmax(gvals, axis=1)
    on_grid = gvals[np.arange(len(rs)), k].tolist()
    los = grid[np.maximum(k - 1, 0)].tolist()
    his = grid[np.minimum(k + 1, len(grid) - 1)].tolist()

    breaks = [p[0] for p in phi_c.pieces]
    pieces = [(p[1], p[2]) for p in phi_c.pieces]
    ct = c0 * t_val
    exp, log, bisect_right = math.exp, math.log, bisect.bisect_right
    golden = _GOLDEN

    def g(r1, s):
        c, e = pieces[bisect_right(breaks, s) - 1]
        return r1 / s - ct / (c * s ** e)

    out = []
    for r1, g_k, lo, hi in zip(rs.tolist(), on_grid, los, his):
        a, b = log(lo), log(hi)
        w = b - a
        c_pt = b - golden * w
        d_pt = a + golden * w
        fc, fd = g(r1, exp(c_pt)), g(r1, exp(d_pt))
        while w > 1e-12:
            # g inlined: its call would cost as much as the step
            if fc >= fd:
                b, d_pt, fd = d_pt, c_pt, fc
                w = b - a
                c_pt = b - golden * w
                s = exp(c_pt)
                c, e = pieces[bisect_right(breaks, s) - 1]
                fc = r1 / s - ct / (c * s ** e)
            else:
                a, c_pt, fc = c_pt, d_pt, fd
                w = b - a
                d_pt = a + golden * w
                s = exp(d_pt)
                c, e = pieces[bisect_right(breaks, s) - 1]
                fd = r1 / s - ct / (c * s ** e)
        refined = max(g_k, g(r1, exp(0.5 * (a + b))))
        out.append(max(_legendre_closed_form(phi_c, r1, t_val, c0), refined, 0.0))
    return out[0] if scalar else np.array(out)


@dataclass(frozen=True)
class CrossoverResult:
    """Root of exp(m(t, r)) = r / phi_j^{-1}(t) plus the log-bracket
    constants fitted at the root."""

    r_star: float | None
    degenerate: bool
    reason: str
    residual: float
    log_ratio: float
    c3: float | None
    c4: float | None
    bracket: tuple[float, float] | None


def crossover_radius(triple: ScaleTriple, t_val: float) -> CrossoverResult:
    """Crossover radius separating Gaussian-dominated from jump-dominated
    off-diagonal behaviour at time ``t_val`` < 1.

    Bisects g(r) = m(t, r) - log(r / phi_j^{-1}(t)) on
    [phi_c^{-1}(t), 1e12 phi_c^{-1}(t)].  When the scales have not separated
    enough for a sign change the result is flagged degenerate.
    """
    if not (0.0 < t_val < 1.0):
        raise ScaleError("crossover is defined for t in (0, 1)")
    inv_c = triple.phi_c.inverse(t_val)
    inv_j = triple.phi_j.inverse(t_val)
    ratio = inv_c / inv_j
    log_ratio = math.log(ratio) if ratio > 1.0 else 0.0

    def g(r):
        return triple.m(t_val, r) - math.log(r / inv_j)

    lo, hi = inv_c, 1e12 * inv_c
    if ratio <= 1.0 + 1e-12 or g(lo) >= 0.0 or g(hi) <= 0.0:
        return CrossoverResult(
            None, True, "degenerate: scales coincide", math.inf, log_ratio,
            None, None, None,
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-14:
            break
    r_star = math.sqrt(lo * hi)
    lhs = math.exp(triple.m(t_val, r_star))
    rhs = r_star / inv_j
    residual = abs(lhs - rhs) / rhs
    pb = power_bounds(triple.phi_c)
    e_lo = (pb.beta1 - 1.0) / pb.beta2
    e_hi = (pb.beta2 - 1.0) / pb.beta1
    denom_lo = inv_c * log_ratio ** e_lo
    denom_hi = inv_c * log_ratio ** e_hi
    c3 = r_star / denom_lo
    c4 = r_star / denom_hi
    bracket = (c3 * denom_lo, c4 * denom_hi)
    return CrossoverResult(r_star, False, "", residual, log_ratio, c3, c4,
                           bracket)
