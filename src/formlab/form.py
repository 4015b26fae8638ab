"""Dirichlet forms E = E^(c) + E^(j) on finite spaces.

The strongly local part is modelled by nearest-neighbour conductances (the
standing discretisation convention: a discrete form is never strongly local
in the continuum sense).  The generator convention is fixed once:

    L f(x) = (1/mu(x)) sum_y w(x,y) (f(y) - f(x))
             + 2 sum_y J(x,y) (f(y) - f(x)) mu(y),

so that <-L f, g>_mu = E(f, g) with

    E(f, g) = sum_{edges} w (f(x)-f(y))(g(x)-g(y))
              + sum_{x != y} (f(x)-f(y))(g(x)-g(y)) J(x,y) mu(x) mu(y),

the jump sum running over ordered pairs.  Heat kernels are computed by
spectral functional calculus on the symmetrised generator, exact at machine
precision on every space formlab builds (n <= ``space.MAX_POINTS``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.special import gamma as gamma_fn

from .space import (_ROWS, _TILE, MetricMeasureSpace, NonNegative, Positive,
                    _row_asymmetry, bind, parameters)

__all__ = [
    "FormError",
    "JumpKernel",
    "DirichletForm",
    "HeatKernelTable",
    "ExitStats",
    "assemble",
    "check_jump",
    "heat_kernel",
    "kernel_blocks",
    "gap_check",
    "meyer_check",
    "subordinate",
    "subordinate_intensity",
    "subordinate_intensity_quadrature",
    "exit_stats",
    "kernel_certificates",
]


class FormError(ValueError):
    """Invalid form construction or query."""


def _abs_max(M):
    """max |M| without the n x n temporary of ``np.abs(M).max()``."""
    return max(float(M.max()), -float(M.min()))


def _mirror_upper(M):
    """M[i, j] <- M[j, i] for i > j in place, one tile at a time."""
    n = len(M)
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(0, i, _TILE):
            cols = slice(j, j + _TILE)
            M[rows, cols] = M[cols, rows].T
        tile = M[rows, rows]
        low = np.tril_indices(len(tile), -1)
        tile[low] = tile.T[low]
    return M


# -- jump kernels ------------------------------------------------------------


@dataclass
class JumpKernel:
    """Symmetric jump intensity J(x, y) >= 0 with zero diagonal: its own
    copy of ``matrix``, symmetrised unless it already is exactly symmetric.
    Raises FormError, naming the first worst pair, on an asymmetry above
    1e-12 of max |J|, and on a negative entry."""

    matrix: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.matrix, dtype=float)
        asym = _row_asymmetry(J)
        if asym.max() > 1e-12 * max(_abs_max(J), 1e-300):
            # the first worst pair in row-major order
            i = int(np.argmax(asym))
            j = int(np.argmax(np.abs(J[i] - J[:, i])))
            raise FormError(
                f"jump kernel not symmetric: worst witness ({i}, {j}) with "
                f"J[i,j]={J[i, j]!r}, J[j,i]={J[j, i]!r}"
            )
        if any((J[i:i + _ROWS] < 0.0).any() for i in range(0, len(J), _ROWS)):
            raise FormError("jump intensities must be nonnegative")
        # symmetrising an exactly symmetric J would write each entry back
        J = J.copy()
        if asym.max() != 0.0:
            _symmetrise(J)
        np.fill_diagonal(J, 0.0)
        self.matrix = J

    @classmethod
    def stable_like(cls, space: MetricMeasureSpace, psi, coeff: NonNegative = 1.0,
                    cmin: Positive = 1.0, cmax: Positive = 1.0, seed: int = 0x5EED):
        """J(x,y) = c(x,y) / (sqrt(V(x,d) V(y,d)) psi(d)) with d = d(x, y)
        and closed-ball volumes V(x, d) = V(x, d + 1e-9).

        The geometric mean keeps J exactly symmetric; c(x,y) is a seeded
        symmetric field in [cmin, cmax] (constant when cmin == cmax).  J
        depends on a pair only through d and the volumes, so psi and the
        radius d + 1e-9 are taken once per distinct distance u[k] of the
        space, and each block of rows reads V(x, d) at C[x, shift[k]] of
        its ball table C; the metric's exact symmetry makes C[y, shift[k]]
        the volume V(y, d(y, x))."""
        return cls(_stable_like_matrix(space, psi, coeff, cmin, cmax,
                                       seed))

    @classmethod
    def power_law(cls, space: MetricMeasureSpace, alpha: float, coeff: NonNegative = 1.0):
        """Translation-invariant J(x,y) = coeff * d(x,y)^{-(1+alpha)}."""
        return cls(space.radial(lambda d: coeff * d ** (-(1.0 + alpha)),
                                0.0)[space.R])

    @classmethod
    def two_regime(cls, space: MetricMeasureSpace, alpha: float, beta: float,
                   regime_break: Positive, coeff: NonNegative = 1.0):
        """d^{-(1+alpha)} below the regime break, matched continuously to
        break^{beta-alpha} d^{-(1+beta)} above it."""
        def f(d):
            return np.where(d <= regime_break, coeff * d ** (-(1.0 + alpha)),
                            coeff * regime_break ** (beta - alpha)
                            * d ** (-(1.0 + beta)))
        return cls(space.radial(f, 0.0)[space.R])


def _stable_like_matrix(space, psi, coeff, cmin, cmax, seed):
    """The matrix of ``JumpKernel.stable_like``, whose every temporary is
    gone before the kernel copies it."""
    n = space.n
    u, R, C = space.u, space.R, space.C
    shift = np.searchsorted(u, u + 1e-9)
    # u[0] = 0 is the diagonal's distance, whose J is zeroed
    psi_u = space.radial(psi, 1.0)
    c_field = None
    if cmin != cmax:
        rng = np.random.RandomState(seed)
        c_field = _mirror_upper(rng.uniform(cmin, cmax, size=(n, n)))
    # where row y of C starts in its flat view; the indices below are
    # in range, so "clip" mode takes into ``out`` without a copy
    width = C.shape[1]
    at_y = np.arange(0, n * width, width)
    flat = C.ravel()
    J = np.empty((n, n))
    Vy_buf, den_buf = np.empty((2, _ROWS, n))
    at_buf = np.empty((_ROWS, n), dtype=np.intp)
    for i in range(0, n, _ROWS):
        rows = slice(i, i + _ROWS)
        k = R[rows]
        s = shift.take(k)
        Vy, den, at = Vy_buf[:len(k)], den_buf[:len(k)], at_buf[:len(k)]
        flat.take(np.add(s, at_y, out=at), out=Vy, mode="clip")
        flat.take(np.add(s, at_y[rows, None], out=at), out=den, mode="clip")
        den *= Vy
        np.sqrt(den, out=den)
        den *= psi_u.take(k, out=Vy, mode="clip")
        c = cmin if c_field is None else c_field[rows]
        np.divide(coeff * c, den, out=J[rows])
    np.fill_diagonal(J, 0.0)
    return J


# jump kinds: none or a ``JumpKernel`` builder, looked up when called; a
# jump config sets exactly its parameters but those the suite supplies
JUMPS = ("none", "stable_like", "power_law", "two_regime")
_SUPPLIED = ("space", "psi", "seed")


def _no_jump(space):
    return None


def check_jump(jump: dict):
    """(builder, params) of a jump config.  Raises FormError on an unknown
    kind, params that do not ``bind`` to its builder (which holds each to
    the range its annotation names), cmin > cmax, and a regime_break **
    (beta - alpha) that overflows a float."""
    params = dict(jump)
    kind = params.pop("kind", "none")
    if not isinstance(kind, str) or kind not in JUMPS:
        raise FormError(f"unknown jump kind {kind!r}")
    build = _no_jump if kind == "none" else getattr(JumpKernel, kind)
    bind(parameters(build, _SUPPLIED), params, f"jump kind {kind!r}",
         FormError, show=str)
    if params.get("cmin", 1.0) > params.get("cmax", 1.0):
        raise FormError("need 0 < cmin <= cmax")
    if kind == "two_regime":
        try:
            float(params["regime_break"]) ** (params["beta"] - params["alpha"])
        except OverflowError:
            raise FormError("jump regime_break ** (beta - alpha) overflows "
                            "a float") from None
    return build, params


def build_jump(jump: dict, space: MetricMeasureSpace, psi, seed: int):
    """The jump kernel a jump config describes on ``space``, None for kind
    none; ``psi`` and ``seed`` go to the builders that take them."""
    build, params = check_jump(jump)
    supplied = dict(zip(_SUPPLIED, (space, psi, seed)))
    return build(**{k: v for k, v in supplied.items()
                    if k in parameters(build)}, **params)


# -- the form ---------------------------------------------------------------


class DirichletForm:
    """E = local conductance part + symmetric jump part, no killing."""

    def __init__(self, space: MetricMeasureSpace, w_edges, jump: JumpKernel | None):
        self.space = space
        edges = space.edges
        if np.isscalar(w_edges):
            w_edges = np.full(len(edges), float(w_edges))
        w_edges = np.asarray(w_edges, dtype=float)
        if len(w_edges) != len(edges):
            raise FormError("need one conductance per nearest-neighbour edge")
        if np.any(w_edges < 0.0):
            raise FormError("conductances must be nonnegative")
        self.w_edges = w_edges
        self.jump = jump

        # energy matrix: E(f, g) = f @ A @ g, built in place from K = J mu mu
        if jump is None:
            A = np.zeros((space.n, space.n))
        else:
            A = np.outer(space.mu, space.mu)
            A *= jump.matrix
        self._K_edges = A[edges[:, 0], edges[:, 1]]
        A *= -2.0
        self.A = self._close(A, self._K_edges)
        self.mu = space.mu
        self._sqmu = np.sqrt(space.mu)
        self._spec = None
        self._spec_lock = threading.Lock()
        self._keep = frozenset()   # times whose global kernel is kept
        self._kept = {}            # kept time -> its read-only kernel
        self._kept_lock = threading.Lock()
        sym_err = float(_row_asymmetry(A).max())
        if sym_err > 1e-12 * max(_abs_max(A), 1e-300):
            raise FormError(f"generator lost mu-symmetry: {sym_err}")

    @property
    def n(self):
        return self.space.n

    def energy(self, f):
        return float(np.asarray(f) @ self.A @ np.asarray(f))

    def _close(self, A, K_edges):
        """-(w + 2K) on the edges and -(row sum) on the diagonal of A."""
        i, j = self.space.edges.T
        A[i, j] = A[j, i] = -(self.w_edges + 2.0 * K_edges)
        np.fill_diagonal(A, 0.0)
        A[np.diag_indices(len(A))] = -A.sum(axis=1)
        return A

    def truncated(self, rho):
        """The energy matrix A^(rho) of the rho-truncated form
        E^(rho) <= E, the jumps of range > rho removed, derived in place
        from a copy of ``A``: scaling by 0.0 keeps the -0.0 of assembly."""
        if rho <= 0.0:
            raise FormError("truncation radius must be positive")
        A = self.A.copy()
        np.multiply(A, 0.0, out=A, where=self.space.beyond(rho))
        cut = self.space.beyond(rho, at=tuple(self.space.edges.T))
        return self._close(A, np.where(cut, 0.0, self._K_edges))

    def sym_generator(self, idx=None):
        """S = Mu^{-1/2} A Mu^{-1/2}; spec(S) >= 0 and p(t) is built from it.
        ``idx`` gives only the block S[idx, idx], the generator of the
        Dirichlet restriction to idx."""
        if idx is None:
            return self.A / np.outer(self._sqmu, self._sqmu)
        sq = self._sqmu[idx]
        return self.A[np.ix_(idx, idx)] / np.outer(sq, sq)

    def spectral(self):
        """``_eigenbasis`` of S, computed once; safe from several threads."""
        with self._spec_lock:
            if self._spec is None:
                self._spec = _eigenbasis(self.sym_generator(), self._sqmu)
        return self._spec

    def keep(self, times):
        """Keep the global kernels at ``times``: each is computed on its
        first read, once, and then served read-only to every reader of
        ``heat_kernel`` or ``kernel_blocks``."""
        self._keep = self._keep | frozenset(_kernel_times(times))

    # energy-measure primitives used by the condition checks

    def local_champ(self, f):
        """Energy measure Gamma_c(f, f) of the conductance part as per-point
        masses: half of each edge's w (f(x) - f(y))^2 goes to either end."""
        f = np.asarray(f, dtype=float)
        gamma_c = np.zeros(self.n)
        e = self.space.edges
        df2 = (f[e[:, 0]] - f[e[:, 1]]) ** 2 * self.w_edges
        np.add.at(gamma_c, e[:, 0], 0.5 * df2)
        np.add.at(gamma_c, e[:, 1], 0.5 * df2)
        return gamma_c

    def local_laplacian(self, idx=None):
        """Conductance Laplacian over the edges with both ends in ``idx``,
        indexed by position in ``idx`` (all points when None): f @ L @ f is
        the conductance energy of f inside idx.  Diagonal entries add the
        edge weights in edge order."""
        idx = np.arange(self.n) if idx is None else np.asarray(idx, dtype=int)
        m = len(idx)
        pos = np.full(self.n, -1)
        pos[idx] = np.arange(m)
        pe = pos[self.space.edges]
        inside = (pe >= 0).all(axis=1)
        pe, w = pe[inside], self.w_edges[inside]
        L = np.zeros((m, m))
        ends = pe.ravel()                # a0, b0, a1, b1, ...
        np.add.at(L, (ends, ends), np.repeat(w, 2))
        np.subtract.at(L, (pe[:, 0], pe[:, 1]), w)
        np.subtract.at(L, (pe[:, 1], pe[:, 0]), w)
        return L


def assemble(space: MetricMeasureSpace, local_weights, jump: JumpKernel | None
             ) -> DirichletForm:
    """Assemble the form; raises on asymmetric jump input (with the worst
    witness) and verifies mu-symmetry of the generator to 1e-12."""
    return DirichletForm(space, local_weights, jump)


# -- heat kernels -------------------------------------------------------------


@dataclass
class HeatKernelTable:
    """p(t, x, y) on a time grid; the kernels of a Dirichlet restriction are
    indexed by the domain's points."""

    times: tuple
    kernels: list


def _eigenbasis(S, sqmu):
    """(lam, B) of a symmetrised generator S over the masses sqmu ** 2: its
    clamped eigenvalues and eigenvectors Q scaled to B = Q / sqrt(mu).  The
    module's one ``eigh`` overwrites S.T, the same exactly symmetric matrix
    in the Fortran order it reads without a copy."""
    lam, B = eigh(S.T, overwrite_a=True)
    B /= sqmu[:, None]
    return np.maximum(lam, 0.0), B


def _symmetrise(K):
    """K <- (K + K^T) / 2 in place, one pair of tiles at a time;
    bit-equal to ``0.5 * (K + K.T)`` without its two n x n temporaries."""
    n = K.shape[0]
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, n, _TILE):
            cols = slice(j, j + _TILE)
            s = K[rows, cols] + K[cols, rows].T
            s *= 0.5
            K[rows, cols] = s
            K[cols, rows] = s.T
    return K


def _semigroup_product(B, rates, t):
    """B exp(-rates t) B^T as one GEMM, before it is symmetrised."""
    return (B * np.exp(-rates * t)) @ B.T


def _semigroup_kernels(B, rates, times):
    """Symmetrised kernels B exp(-rates t) B^T, one per time."""
    return [_symmetrise(_semigroup_product(B, rates, t)) for t in times]


def _kernel_times(times):
    """``times`` as a tuple of floats; FormError unless each is positive."""
    times = tuple(float(t) for t in times)
    if any(t <= 0.0 for t in times):
        raise FormError("kernel times must be positive")
    return times


def _global_kernel(form, t):
    """The whole global kernel p(t).  A time the form keeps is computed
    once, however many threads ask, and served read-only from then on; any
    other time is computed for this caller alone."""
    lam, B = form.spectral()
    if t not in form._keep:
        return _symmetrise(_semigroup_product(B, lam, t))
    with form._kept_lock:
        if t not in form._kept:
            K = _symmetrise(_semigroup_product(B, lam, t))
            K.flags.writeable = False
            form._kept[t] = K
        return form._kept[t]


def heat_kernel(form: DirichletForm, times, domain=None) -> HeatKernelTable:
    """Heat kernel table by spectral functional calculus; ``domain`` gives
    the Dirichlet kernel p^D by deleting rows and columns outside the domain
    (killing on exit).  A global kernel at a time the form keeps is the
    kept, read-only array."""
    times = _kernel_times(times)
    if domain is None:
        return HeatKernelTable(times, [_global_kernel(form, t) for t in times])
    idx = np.asarray(domain, dtype=int)
    if len(idx) == 0:
        raise FormError("empty Dirichlet domain")
    lam, B = _eigenbasis(form.sym_generator(idx), form._sqmu[idx])
    return HeatKernelTable(times, _semigroup_kernels(B, lam, times))


def _product_blocks(B, rates, t, blocks):
    """The ``(rows, cols)`` blocks of the symmetrised B exp(-rates t) B^T:
    (M[r, c] + M[c, r]) / 2 of one product M, gone on return, which is the
    element ``_symmetrise`` gives, since the sum commutes."""
    M = _semigroup_product(B, rates, t)
    out = [M[np.ix_(rows, cols)] for rows, cols in blocks]
    for K, (rows, cols) in zip(out, blocks):
        K += M[np.ix_(cols, rows)].T
        K *= 0.5
    return out


def kernel_blocks(form: DirichletForm, times, blocks) -> list:
    """Slices of the global heat kernel: ``out[b][i]`` is K[rows, cols] at
    ``times[i]`` for the b-th ``(rows, cols)`` of ``blocks``, gathered from
    the kept kernel at a time the form keeps and from ``_product_blocks``,
    one product at a time, at any other."""
    lam, B = form.spectral()
    out = [[] for _ in blocks]
    for t in _kernel_times(times):
        if t in form._keep:
            K = _global_kernel(form, t)
            slabs = [K[np.ix_(rows, cols)] for rows, cols in blocks]
        else:
            slabs = _product_blocks(B, lam, t, blocks)
        for kept, slab in zip(out, slabs):
            kept.append(slab)
    return out


def kernel_certificates(form: DirichletForm, times) -> dict:
    """Symmetry, Chapman-Kolmogorov and conservation defects of the global
    heat kernel at each of ``times``.

    CK is checked against a freshly computed half-time kernel:
    p(t) == integral p(t/2, x, y) p(t/2, y, z) mu(dy).  One time at a time,
    so at most three n x n arrays are alive beyond the spectrum and the
    kernels the form keeps; a kept p(t) is read, not recomputed.  The
    tiled symmetry and |CK| maxima form no n x n temporary.
    """
    mu = form.mu
    sym = mass = ck = 0.0
    for t in times:
        half = heat_kernel(form, [t / 2.0]).kernels[0]
        d = (half * mu[None, :]) @ half
        del half
        K = heat_kernel(form, [t]).kernels[0]
        sym = max(sym, float(_row_asymmetry(K).max()))
        mass = max(mass, float(np.abs((K * mu[None, :]).sum(axis=1) - 1.0).max()))
        d -= K
        ck = max(ck, float(_abs_max(d) / max(K.max(), 1e-300)))
        del d, K    # before the next time's kernels are computed
    return {"symmetry": sym, "chapman_kolmogorov": ck, "unit_mass": mass}


# -- truncation and Meyer decomposition --------------------------------------


def gap_check(form: DirichletForm, scales, rho: float, fns) -> float:
    """Fit the smallest c0 with E(u,u) - E^(rho)(u,u) <= c0 ||u||_2^2 / phi(rho)
    over the supplied test functions."""
    A_rho = form.truncated(rho)
    phi_rho = scales.phi(rho)
    c0 = 0.0
    for u in fns:
        u = np.asarray(u)
        gapv = form.energy(u) - float(u @ A_rho @ u)
        nrm = float(np.sum(u ** 2 * form.mu))
        if nrm > 0.0:
            c0 = max(c0, gapv * phi_rho / nrm)
    return c0


def meyer_check(form: DirichletForm, scales, rhos, times) -> list:
    """Smallest c1 with
    p(t,x,y) <= q^(rho)(t,x,y) + c1 t / (V(x,rho) phi_j(rho)) exp(c1 t / phi(rho))
    over interior (t, x, y), one per rho of ``rhos``, by bisection.  One
    interior block of p(t) serves every rho.  Of the truncated form only
    its spectrum is kept, and one block of q^(rho) is alive at a time."""
    interior, sq = form.space.interior(), form._sqmu
    block = [(interior, interior)]
    (P,) = kernel_blocks(form, times, block)
    c1s = []
    for rho in rhos:
        S = form.truncated(rho)    # A^(rho), divided in place into S
        lam, B = _eigenbasis(np.divide(S, np.outer(sq, sq), out=S), sq)
        del S
        # row maxima of p - q^(rho) on the interior block: the bound below
        # is constant along a row and rounding is monotone, so the largest
        # fl(p - q - bound) of a row is fl(rowmax - bound)
        rowmax = []
        for t, p in zip(times, P):
            (q,) = _product_blocks(B, lam, t, block)
            rowmax.append(np.subtract(p, q, out=q).max(axis=1))
            del q    # before the next product is computed
        del lam, B
        phi_rho = scales.phi(rho)
        Vphij = form.space.volumes(interior, rho) * scales.phi_j(rho)

        def excess(c1):
            worst = -np.inf
            for t, top in zip(times, rowmax):
                bound = c1 * t / Vphij * math.exp(c1 * t / phi_rho)
                worst = max(worst, float((top - bound).max()))
            return worst

        c1s.append(_least_root(excess))
    return c1s


def _least_root(excess):
    """Least c1 >= 0 with an increasing excess(c1) <= 0; inf past 1e12."""
    if excess(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# -- subordination -------------------------------------------------------------


def subordinate(form: DirichletForm, b: float, gamma: float, times
                ) -> HeatKernelTable:
    """Subordinate semigroup exp(-t psi(-L)) with psi(lam) = b lam + lam^gamma
    by functional calculus on the eigenvalues."""
    if not (0.0 < gamma <= 1.0):
        raise FormError("gamma must lie in (0, 1]")
    if b < 0.0:
        raise FormError("drift must be nonnegative")
    lam, B = form.spectral()
    times = tuple(map(float, times))
    return HeatKernelTable(times, _semigroup_kernels(B, b * lam + lam ** gamma,
                                                     times))


def subordinate_intensity(form: DirichletForm, gamma: float) -> np.ndarray:
    """Jump intensity of the gamma-stable part of ``subordinate``: the full
    off-diagonal of (-L)^gamma over mu, which equals int_0^inf q(u,x,y)
    nu(u) du for the gamma-stable Levy density nu (twice the jump kernel in
    the form convention).  The drift contributes only locally."""
    if not (0.0 < gamma <= 1.0):
        raise FormError("gamma must lie in (0, 1]")
    lam, B = form.spectral()
    # symmetrised (-L)^gamma, expressed as kernel against mu x mu, in place
    intensity = (B * lam ** gamma) @ B.T
    np.negative(intensity, out=intensity)
    np.fill_diagonal(intensity, 0.0)
    return np.maximum(_symmetrise(intensity), 0.0, out=intensity)


def subordinate_intensity_quadrature(form: DirichletForm, gamma: float,
                                     pairs) -> np.ndarray:
    """Direct quadrature oracle int_0^inf q(u, x, y) nu(u) du with
    nu(u) = gamma / Gamma(1 - gamma) u^{-1-gamma}, evaluated per pair.

    Independent of the Bernstein identity: the integrand uses only the base
    heat kernel, and the integral is done numerically (u = v^2 substitution
    below u = 1 to tame the endpoint).  The pairs share their nodes u, so
    e^{-lam u} is computed once per distinct node."""
    lam, B = form.spectral()
    cnu = gamma / gamma_fn(1.0 - gamma)
    out = np.empty(len(pairs))
    decay = {}
    for k, (x, y) in enumerate(pairs):
        cxy = B[x] * B[y]

        def q_of(u):
            if u not in decay:
                decay[u] = np.exp(-lam * u)
            return float(cxy @ decay[u])

        def g_small(v):
            u = v * v
            return q_of(u) * cnu * u ** (-1.0 - gamma) * 2.0 * v

        def g_large(u):
            return q_of(u) * cnu * u ** (-1.0 - gamma)

        i1, _ = quad(g_small, 0.0, 1.0, limit=200)
        i2, _ = quad(g_large, 1.0, np.inf, limit=200)
        out[k] = i1 + i2
    return out


# -- exit statistics -----------------------------------------------------------


@dataclass
class ExitStats:
    ball: np.ndarray
    mean: np.ndarray          # E^x[tau_B] for x in ball
    times: tuple
    survival: np.ndarray      # P^x(tau_B > t), shape (len(times), len(ball))


def exit_stats(form: DirichletForm, ball_idx, times) -> ExitStats:
    """Mean exit time (linear solve A_B u = mu_B) and survival curves
    (Dirichlet semigroup applied to 1)."""
    idx = np.asarray(ball_idx, dtype=int)
    if len(idx) == 0:
        raise FormError("empty ball in exit_stats")
    A_B = form.A[np.ix_(idx, idx)]
    mu_B = form.mu[idx]
    try:
        mean = np.linalg.solve(A_B, mu_B)
    except np.linalg.LinAlgError as exc:
        raise FormError("singular restriction in exit_stats") from exc
    kernels = iter(heat_kernel(form, [t for t in times if t > 0.0],
                               domain=idx).kernels)
    surv = np.ones((len(times), len(idx)))
    for i, t in enumerate(times):
        if t > 0.0:
            surv[i] = next(kernels) @ mu_B
    return ExitStats(idx, mean, tuple(times), np.clip(surv, 0.0, 1.0))

