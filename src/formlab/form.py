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

import functools
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
    "PackedKernelTable",
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


class JumpKernel:
    """Symmetric jump intensity J(x, y) >= 0 with zero diagonal, held as
    its read-only row-major upper triangle ``packed``, n(n+1)/2 doubles
    (row x's J[x, x:] at ``_row_starts(n)[x]``), and read through ``block``
    and ``rows``: every value is a stored entry, so a read equals the
    slice of the whole matrix bit for bit.  A whole ``matrix`` is packed
    after its checks, symmetrised unless it already is exactly symmetric:
    FormError, naming the first worst pair, on an asymmetry above 1e-12 of
    max |J|, and on a negative entry.  The builders write the triangle
    directly, so their J is exactly symmetric."""

    def __init__(self, matrix):
        J = np.asarray(matrix, dtype=float)
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
        if asym.max() != 0.0:
            J = _symmetrise(J.copy())
        self._hold(_pack(J))

    @classmethod
    def _upper(cls, packed):
        """The kernel whose packed upper triangle a builder wrote."""
        kern = cls.__new__(cls)
        kern._hold(packed)
        return kern

    def _hold(self, packed):
        """Keep ``packed``, its diagonal zeroed, read-only; FormError on a
        negative entry (fmin skips a nan, as a comparison does)."""
        self.n = n = int(np.sqrt(2 * len(packed)))    # n(n+1)/2 entries
        packed[_row_starts(n)[:-1]] = 0.0
        if np.fmin.reduce(packed) < 0.0:
            raise FormError("jump intensities must be nonnegative")
        packed.flags.writeable = False
        self.packed = packed

    def block(self, rows, cols):
        """J[rows, cols], rows and cols broadcast together: the block of
        ``np.ix_(rows, cols)``, scattered (x, y) pairs, or one entry."""
        return self.packed.take(_packed_index(self.n, rows, cols))

    def rows(self, xs):
        """J[xs, :]: one row for a single xs."""
        return self.block(np.asarray(xs)[..., None], np.arange(self.n))

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
        return cls._upper(_stable_like_upper(space, psi, coeff, cmin, cmax,
                                             seed))

    @classmethod
    def power_law(cls, space: MetricMeasureSpace, alpha: float, coeff: NonNegative = 1.0):
        """Translation-invariant J(x,y) = coeff * d(x,y)^{-(1+alpha)}."""
        return cls._upper(_radial_upper(
            space, lambda d: coeff * d ** (-(1.0 + alpha))))

    @classmethod
    def two_regime(cls, space: MetricMeasureSpace, alpha: float, beta: float,
                   regime_break: Positive, coeff: NonNegative = 1.0):
        """d^{-(1+alpha)} below the regime break, matched continuously to
        break^{beta-alpha} d^{-(1+beta)} above it."""
        def f(d):
            return np.where(d <= regime_break, coeff * d ** (-(1.0 + alpha)),
                            coeff * regime_break ** (beta - alpha)
                            * d ** (-(1.0 + beta)))
        return cls._upper(_radial_upper(space, f))


def _radial_upper(space, f):
    """The packed upper triangle of f(d(x, y)), f taken on the distinct
    distances (``radial``, 0 on the diagonal) and gathered at the ranks of
    each row's R[x, x:]."""
    f_u = space.radial(f, 0.0)
    starts = _row_starts(space.n).tolist()
    P = np.empty(starts[-1])
    for x, (a, b) in enumerate(zip(starts, starts[1:])):
        f_u.take(space.R[x, x:], out=P[a:b], mode="clip")
    return P


def _stable_like_upper(space, psi, coeff, cmin, cmax, seed):
    """The packed upper triangle of ``JumpKernel.stable_like``: each block
    of rows computes its columns from the block's first row on, and keeps
    each row x's J[x, x:].  The c field is drawn a block of rows at a time
    from one stream, the draws of the whole n x n field; its upper
    triangle is c(x, y), mirrored below."""
    n = space.n
    u, R, C = space.u, space.R, space.C
    shift = np.searchsorted(u, u + 1e-9)
    # u[0] = 0 is the diagonal's distance, whose J is zeroed
    psi_u = space.radial(psi, 1.0)
    rng = None if cmin == cmax else np.random.RandomState(seed)
    # where row y of C starts in its flat view; the indices below are
    # in range, so "clip" mode takes into ``out`` without a copy
    width = C.shape[1]
    at_y = np.arange(0, n * width, width)
    flat = C.ravel()
    starts = _row_starts(n).tolist()
    P = np.empty(starts[-1])
    Vy_buf, den_buf = np.empty((2, _ROWS * n))
    at_buf = np.empty(_ROWS * n, dtype=np.intp)
    for i in range(0, n, _ROWS):
        rows = slice(i, i + _ROWS)
        k = R[rows, i:]
        shape = k.shape
        Vy, den, at = (buf[:k.size].reshape(shape)
                       for buf in (Vy_buf, den_buf, at_buf))
        s = shift.take(k)
        flat.take(np.add(s, at_y[i:], out=at), out=Vy, mode="clip")
        flat.take(np.add(s, at_y[rows, None], out=at), out=den, mode="clip")
        den *= Vy
        np.sqrt(den, out=den)
        den *= psi_u.take(k, out=Vy, mode="clip")
        c = cmin if rng is None else rng.uniform(cmin, cmax,
                                                 size=(shape[0], n))[:, i:]
        np.divide(coeff * c, den, out=den)
        for r, x in enumerate(range(i, i + shape[0])):
            P[starts[x]:starts[x + 1]] = den[r, r:]
    return P


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
        A = (np.zeros((space.n, space.n)) if jump is None
             else _jump_energy(jump, space.mu))
        self._K_edges = A[edges[:, 0], edges[:, 1]]
        A *= -2.0
        self.A = self._close(A, self._K_edges)
        self.mu = space.mu
        self._sqmu = np.sqrt(space.mu)
        self._spec = None
        self._spec_lock = threading.Lock()
        self._keep = frozenset()   # times whose global kernel is kept
        self._kept = {}            # kept time -> its read-only packed kernel
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
        first read, once, and then served as its read-only packed upper
        triangle to every reader of ``heat_kernel`` or ``kernel_blocks``."""
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

    def jump_laplacian(self, idx):
        """Jump Laplacian over the pairs with both ends in ``idx``, indexed
        by position in ``idx``: f @ L @ f is the jump energy of f inside
        idx.  Off the diagonal -2 K and on it 2 (row sum of K), with
        K = J mu mu on idx x idx; zero on a form without jumps."""
        idx = np.asarray(idx, dtype=int)
        if self.jump is None:
            return np.zeros((len(idx), len(idx)))
        mu = self.mu[idx]
        K = self.jump.block(*np.ix_(idx, idx)) * np.outer(mu, mu)
        L = -2.0 * K
        L[np.diag_indices(len(idx))] = 2.0 * K.sum(axis=1)
        return L


def _jump_energy(jump, mu):
    """K = outer(mu, mu) * J: mu[x] mu[y] over a block of rows from its
    first row on, each row's K[x, x:] times the packed row of J, and the
    upper triangle mirrored below, where (mu[y] mu[x]) J[y, x] is the same
    product, as J is exactly symmetric and a product commutes."""
    n = jump.n
    K = np.empty((n, n))
    starts = _row_starts(n).tolist()
    for i in range(0, n, _ROWS):
        np.multiply(mu[i:i + _ROWS, None], mu[i:], out=K[i:i + _ROWS, i:])
        for x in range(i, min(i + _ROWS, n)):
            row = K[x, x:]
            np.multiply(row, jump.packed[starts[x]:starts[x + 1]], out=row)
    return _mirror_upper(K)


def assemble(space: MetricMeasureSpace, local_weights, jump: JumpKernel | None
             ) -> DirichletForm:
    """Assemble the form; raises on asymmetric jump input (with the worst
    witness) and verifies mu-symmetry of the generator to 1e-12."""
    return DirichletForm(space, local_weights, jump)


# -- heat kernels -------------------------------------------------------------


@dataclass
class HeatKernelTable:
    """Whole kernels on a time grid: those of a Dirichlet restriction,
    indexed by the domain's points, and those of ``subordinate``."""

    times: tuple
    kernels: list


def _row_starts(n):
    """Where row i of an n x n matrix's row-major upper triangle starts,
    for i = 0..n; the last is its length n(n+1)/2."""
    i = np.arange(n + 1)
    return i * n - i * (i - 1) // 2


def _pack(K, out=None):
    """The row-major upper triangle of K, each row slice K[i, i:] copied
    whole into ``out`` (a new array when None), which may be K's own flat
    buffer: a row moves to no later place, so none is overwritten before
    it is read."""
    starts = _row_starts(len(K)).tolist()
    if out is None:
        out = np.empty(starts[-1])
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        out[a:b] = K[i, i:]
    return out


def _unpack(P):
    """The whole symmetric matrix whose packed upper triangle is P: the
    row slices copied back, the lower triangle mirrored from them."""
    n = int(np.sqrt(2 * len(P)))    # n(n+1)/2 = len(P)
    starts = _row_starts(n).tolist()
    K = np.empty((n, n))
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        K[i, i:] = P[a:b]
    return _mirror_upper(K)


@functools.cache
def _leads(n):
    """start[i] - i for i < n as int32, shared and read-only."""
    lead = (_row_starts(n)[:-1] - np.arange(n)).astype(np.int32)
    lead.flags.writeable = False
    return lead


def _packed_index(n, rows, cols):
    """Where K[rows, cols] lies in the packed upper triangle of an n x n
    symmetric K, rows and cols broadcast as numpy's indexing broadcasts
    them: at start[min(i, j)] + |i - j|.  As int32, half the bytes of an
    intp map; n(n+1)/2 < 2**31 for every n <= ``MAX_POINTS``."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    lead = _leads(n)
    # a 0-d index gives numpy scalars, which cannot be written in place
    ends = np.asarray(np.minimum(rows, cols))
    at = np.asarray(lead.take(ends))        # start[i] - i at i = min
    np.maximum(rows, cols, out=ends)
    return np.add(at, ends, out=at, casting="unsafe")


@dataclass
class PackedKernelTable:
    """The global heat kernel p(t, x, y) on a time grid, each kernel kept
    as its row-major upper triangle, n(n+1)/2 doubles: every global kernel
    is exactly symmetric.  It is read through its accessors alone; each
    builds its index map once and returns a function of the time's index
    that gathers the entries there, so a reader reuses one map at every
    time.  Every value is a stored entry, so a read equals the slice of
    the whole kernel bit for bit."""

    times: tuple
    n: int
    kernels: list

    def block(self, rows, cols):
        """i -> K_i[rows, cols], rows and cols broadcast together: the
        block of ``np.ix_(rows, cols)``, or scattered (x, y) pairs."""
        at = _packed_index(self.n, rows, cols)
        return lambda i: self.kernels[i].take(at)

    def rows(self, xs):
        """i -> K_i[xs, :]."""
        return self.block(np.asarray(xs)[:, None], np.arange(self.n))

    def diag(self, xs):
        """i -> K_i[xs, xs], the diagonal entries at xs."""
        return self.block(xs, xs)

    def max(self, i):
        """max K_i, which the upper triangle holds."""
        return float(self.kernels[i].max())

    def upper(self, i):
        """K_i's packed upper triangle, read-only at a kept time."""
        return self.kernels[i]


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
    """The whole global kernel p(t), computed for this caller alone."""
    lam, B = form.spectral()
    return _symmetrise(_semigroup_product(B, lam, t))


def _packed_kernel(form, t):
    """p(t)'s packed upper triangle (``_pack``).  A time the form keeps is
    computed and packed once, however many threads ask, and served
    read-only from then on; any other time is packed for this caller
    alone."""
    if t not in form._keep:
        return _pack(_global_kernel(form, t))
    with form._kept_lock:
        if t not in form._kept:
            P = _pack(_global_kernel(form, t))
            P.flags.writeable = False
            form._kept[t] = P
        return form._kept[t]


def heat_kernel(form: DirichletForm, times, domain=None
                ) -> PackedKernelTable | HeatKernelTable:
    """Heat kernel table by spectral functional calculus: the global
    ``PackedKernelTable``, whose kernel at a time the form keeps is the
    kept, read-only array, or with ``domain`` the whole Dirichlet kernels
    p^D, rows and columns outside the domain deleted (killing on exit)."""
    times = _kernel_times(times)
    if domain is None:
        return PackedKernelTable(times, form.n,
                                 [_packed_kernel(form, t) for t in times])
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
    the kept kernel at a time the form keeps, through index maps built
    once per call, and from ``_product_blocks``, one product at a time, at
    any other."""
    lam, B = form.spectral()
    out = [[] for _ in blocks]
    maps = None
    for t in _kernel_times(times):
        if t in form._keep:
            if maps is None:
                maps = [_packed_index(form.n, *np.ix_(rows, cols))
                        for rows, cols in blocks]
            K = _packed_kernel(form, t)
            slabs = [K.take(at) for at in maps]
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
    kernels the form keeps.  A kept p(t) is read from the global table,
    never computed twice, and unpacked whole for the certificates; any
    other p(t) is computed whole for this caller.  The tiled symmetry,
    the row-block masses and the |CK| maximum form no n x n temporary.
    """
    mu = form.mu
    sym = mass = ck = 0.0
    for t in _kernel_times(times):
        half = _global_kernel(form, t / 2.0)
        d = (half * mu[None, :]) @ half
        del half
        K = (_unpack(heat_kernel(form, [t]).upper(0)) if t in form._keep
             else _global_kernel(form, t))
        sym = max(sym, float(_row_asymmetry(K).max()))
        for i in range(0, len(K), _ROWS):
            rows = (K[i:i + _ROWS] * mu[None, :]).sum(axis=1)
            mass = max(mass, float(np.abs(rows - 1.0).max()))
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
    over interior (t, x, y), one per rho of ``rhos``, by bisection.  At a
    time the form keeps, the interior block of p(t) is gathered from the
    kept kernel after the product of q^(rho) is gone; at any other time
    it is computed once and held for every rho.  Of the truncated form
    only its spectrum is kept, and one block of q^(rho) is alive at a
    time."""
    interior, sq = form.space.interior(), form._sqmu
    block = [(interior, interior)]
    times = _kernel_times(times)
    unkept = [t for t in times if t not in form._keep]
    (held,) = kernel_blocks(form, unkept, block)
    held = dict(zip(unkept, held))
    c1s = []
    for rho in rhos:
        S = form.truncated(rho)    # A^(rho), divided in place into S
        lam, B = _eigenbasis(np.divide(S, np.outer(sq, sq), out=S), sq)
        del S
        # row maxima of p - q^(rho) on the interior block: the bound below
        # is constant along a row and rounding is monotone, so the largest
        # fl(p - q - bound) of a row is fl(rowmax - bound)
        rowmax = []
        for t in times:
            (q,) = _product_blocks(B, lam, t, block)
            p = held[t] if t in held else kernel_blocks(form, [t], block)[0][0]
            rowmax.append(np.subtract(p, q, out=q).max(axis=1))
            del p, q    # before the next product is computed
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

