"""Finite metric measure spaces with ball indexing and volume diagnostics.

The spaces are finite truncations of unbounded model geometries (lattice
boxes, the Sierpinski gasket graph, a reflected half-space lattice).  Every
condition downstream is asserted only on balls staying clear of the
truncation boundary, controlled by ``interior_margin``: a point is usable at
enlargement radius R when its distance to the truncation set is at least R.
Ball membership is strict: B(x, r) = {y : d(x, y) < r}.  A space holds
its metric as ranks: u, its K sorted distinct distances, and R, the n x n
ranks with u[R] the metric.  Every volume V(x, r) = mu(B(x, r)) is one
lookup in a table built from R with the space.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = [
    "SpaceError",
    "MetricMeasureSpace",
    "VolumeReport",
    "ChainReport",
    "build_space",
    "space_size",
    "volume_report",
    "chain_check",
]

# the point cap: dense n x n ranks, jump matrix, form and eigenbasis
MAX_POINTS = 4096
# the cap on grids.n_times: the kernel table holds n_times n x n kernels
MAX_TIMES = 64
_ROWS = 32   # rows per block of the n x n sweeps here and in ``form``
_TILE = 128  # side of the tiles that compare or mirror an n x n matrix


class SpaceError(ValueError):
    """Invalid space construction or query."""


def _check_size(n):
    if n > MAX_POINTS:
        raise SpaceError(
            f"capacity exceeded: {n} points > {MAX_POINTS} supported by "
            "the dense metric representation"
        )


def _row_asymmetry(M):
    """Row maxima of |M - M^T| (NaN where a row meets one), reading each
    pair once: an upper-triangle tile, compared with its mirror, gives its
    rows their maxima and its columns theirs, as |a - b| = |b - a|.  A tile
    holds no more entries than a block of ``_ROWS`` rows, and every tile
    reuses one buffer."""
    n = len(M)
    side = max(1, min(_TILE, math.isqrt(_ROWS * n)))
    out = np.zeros(n)
    buf = np.empty(min(side, n) ** 2)
    for i in range(0, n, side):
        rows = slice(i, i + side)
        for j in range(i, n, side):
            cols = slice(j, j + side)
            a = M[rows, cols]
            d = np.subtract(a, M[cols, rows].T,
                            out=buf[:a.size].reshape(a.shape))
            np.abs(d, out=d)
            np.maximum(out[rows], d.max(axis=1), out=out[rows])
            if j > i:
                np.maximum(out[cols], d.max(axis=0), out=out[cols])
    return out


def _ranks(metric):
    """(u, R) of a metric matrix: its sorted distinct entries u and the
    ranks R with u[R] == metric, both found in blocks of rows."""
    n = len(metric)
    blocks = [metric[i:i + _ROWS] for i in range(0, n, _ROWS)]
    u = functools.reduce(np.union1d, blocks, np.empty(0))
    R = np.empty((n, n), np.min_scalar_type(len(u)))
    for i, block in zip(range(0, n, _ROWS), blocks):
        R[i:i + _ROWS] = np.searchsorted(u, block)
    return u, R


def _check_metric(u, R):
    """Raise SpaceError, naming a pair, unless the metric u[R] is 0 on the
    diagonal, > 0 off it (+inf allowed) and exactly symmetric."""
    n = len(R)
    diagonal = np.diagonal(R)
    zero = u[diagonal] == 0.0
    if not zero.all():
        i = int(np.argmin(zero))
        raise SpaceError(f"metric is not 0 on the diagonal: d({i}, {i}) = "
                         f"{float(u[diagonal[i]])!r}")
    # the positive distances: the ranks above 0's and below a NaN's, which
    # sorts last
    low, high = np.searchsorted(u, [0.0, np.inf], side="right").tolist()
    for i in range(0, n, _ROWS):
        k = R[i:i + _ROWS]
        pos = (k >= low) & (k < high)
        # the diagonal is 0, so a row holds n - 1 positive entries at most
        if np.count_nonzero(pos) < len(pos) * (n - 1):
            pos[np.arange(len(pos)), np.arange(i, i + len(pos))] = True
            x, y = (int(v) for v in np.argwhere(~pos)[0])
            x += i
            raise SpaceError(f"metric is not positive off the diagonal: "
                             f"d({x}, {y}) = {float(u[R[x, y]])!r}")
    # an upper-triangle tile against its mirror, then the first pair
    tiles = ((slice(i, i + _TILE), slice(j, j + _TILE))
             for i in range(0, n, _TILE) for j in range(i, n, _TILE))
    if any((R[a, b] != R[b, a].T).any() for a, b in tiles):
        x, y = (int(v) for v in np.argwhere(R != R.T)[0])
        raise SpaceError(f"metric is not symmetric: d({x}, {y}) = "
                         f"{float(u[R[x, y]])!r}, d({y}, {x}) = "
                         f"{float(u[R[y, x]])!r}")


# -- config binding ----------------------------------------------------------

# aliases whose names state the range of a config value
Positive = NonNegative = Dilation = Fraction = Decades = float
Count = Seed = TimeCount = Dim = int
Metric = Mode = HKMode = str


def _real(v, kind=numbers.Real):
    return (isinstance(v, kind) and not isinstance(v, bool)
            and -math.inf < v < math.inf)


# annotation -> (what a value must be, test); ``checks`` may be empty
_TYPES = {"float": ("a finite real", _real),
          "Positive": ("a positive real", lambda v: _real(v) and v > 0),
          "NonNegative": ("a nonnegative real", lambda v: _real(v) and v >= 0),
          "Dilation": ("a real >= 1", lambda v: _real(v) and v >= 1),
          "Fraction": ("a real in (0, 1]", lambda v: _real(v) and 0 < v <= 1),
          # a grid over 10 ** (+-decades / 2) whose powers stay finite
          "Decades": ("a real in (0, 100]", lambda v: _real(v) and 0 < v <= 100),
          "Count": ("a positive integer", lambda v: _real(v, int) and v >= 1),
          "Seed": ("an integer in [0, 2**32)",
                   lambda v: _real(v, int) and 0 <= v < 2 ** 32),
          "TimeCount": (f"an integer in [1, {MAX_TIMES}]",
                        lambda v: _real(v, int) and 1 <= v <= MAX_TIMES),
          "Dim": ("an integer in {1, 2, 3}", lambda v: _real(v, int) and 0 < v < 4),
          "Metric": ("a string in {'l1', 'l2'}", lambda v: v in ("l1", "l2")),
          # phi's caloric family; hk's sandwich (HK_minus and UHK_weak are
          # the checks hk_minus and uhk_weak)
          "Mode": ("a string in {'necessary', 'full'}",
                   lambda v: v in ("necessary", "full")),
          "HKMode": ("a string in {'HK', 'UHK', 'HK_local'}",
                     lambda v: v in ("HK", "UHK", "HK_local")),
          "str": ("a string", lambda v: isinstance(v, str)),
          "dict": ("an object", lambda v: isinstance(v, dict)),
          "list[str]": ("a list of strings", lambda v: isinstance(v, list)
                        and all(isinstance(x, str) for x in v))}


def rule(annotation: str):
    """(what a value must be, test) of an annotation: a key of ``_TYPES``,
    ``list[T]`` or ``tuple[T, ...]`` of one (a nonempty list of T), or
    either with `` | None`` (None too); TypeError on any other."""
    name = annotation.removesuffix(" | None")
    each = re.fullmatch(r"(?:list|tuple)\[(\w+)(?:, \.\.\.)?\]", name)
    if name in _TYPES:
        kind, test = _TYPES[name]
    elif each and each[1] in _TYPES:
        one, of = _TYPES[each[1]]
        plural = re.sub(r"^an? (.*?(real|integer|object|string))", r"\1s", one)
        kind, test = f"a nonempty list of {plural}", lambda v: (
            isinstance(v, (list, tuple)) and v and all(map(of, v)))
    else:
        raise TypeError(f"bind knows no annotation {annotation!r}")
    return kind, lambda v: bool(name != annotation and v is None or test(v))


@functools.cache
def parameters(fn, skip=()) -> MappingProxyType:
    """The named parameters of ``fn`` outside ``skip``, by name; read once
    per function, so a config binds in microseconds."""
    return MappingProxyType({
        name: p for name, p in inspect.signature(fn).parameters.items()
        if name not in skip and p.kind not in (p.VAR_POSITIONAL,
                                               p.VAR_KEYWORD)})


def bind(named: dict, params, what: str, error=ValueError, show=repr,
         required=True):
    """Raise ``error`` unless the dict ``params`` binds to the parameters
    ``named``: each key names one, each one without a default is given
    (if ``required``), and each value passes the ``rule`` of its annotation."""
    if not isinstance(params, dict):
        raise error(f"{what} must be an object, got {params!r}")
    unknown = sorted(set(params) - set(named))
    if unknown:
        raise error(f"unknown {what} keys: {unknown}")
    missing = [name for name, p in named.items()
               if required and p.default is p.empty and name not in params]
    if missing:
        raise error(f"{what} needs {', '.join(map(show, missing))}")
    for name, value in params.items():
        kind, ok = rule(str(named[name].annotation))
        if not ok(value):
            raise error(f"{what} needs {kind} {show(name)}, got {value!r}")


class MetricMeasureSpace:
    """Finite point set with a metric, positive measure, nearest neighbour
    edges, and a designated truncation boundary.  The metric must be 0 on
    the diagonal, positive off it (+inf between disconnected points) and
    exactly symmetric; the triangle inequality is not checked.

    The space holds u, the K sorted distinct distances (u[0] = 0, the
    diagonal's), the n x n ranks R with u[R] the metric, in the least
    unsigned type that holds K, and the ball table C of ``_ball_table``."""

    def __init__(self, metric, mu, edges=None, coords=None, boundary=None,
                 interior_margin=0.0):
        metric = np.asarray(metric, dtype=float)
        if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
            raise SpaceError("metric must be a square matrix")
        _check_size(len(metric))
        self._hold(*_ranks(metric), mu, edges, coords, boundary,
                   interior_margin)

    @classmethod
    def _from_ranks(cls, u, R, mu, **kw):
        """A builder's space of metric u[R] (u increasing, R < len(u))."""
        space = cls.__new__(cls)
        space._hold(u, R, mu, **kw)
        return space

    def _hold(self, u, R, mu, edges, coords, boundary, interior_margin):
        n = len(R)
        _check_size(n)
        _check_metric(u, R)
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (n,) or np.any(mu <= 0.0):
            raise SpaceError("mu must be positive with one entry per point")
        self.n = n
        self.u, self.R = u, R
        self.C = _ball_table(R, mu, len(u))
        self.mu = mu
        self.coords = None if coords is None else np.asarray(coords)
        self.edges = (np.zeros((0, 2), dtype=int) if edges is None
                      else np.asarray(edges, dtype=int))
        self.boundary = bnd = (np.zeros(n, dtype=bool) if boundary is None
                               else np.asarray(boundary))
        self.interior_margin = float(interior_margin)
        self.dist_to_boundary = (u[R[:, bnd].min(axis=1)] if bnd.any()
                                 else np.full(n, np.inf))

    @property
    def metric(self) -> np.ndarray:
        """The n x n float metric u[R], computed on each read."""
        return self.u[self.R]

    # -- queries ----------------------------------------------------------

    def dist(self, x, y=slice(None)):
        """d(x, y) = u[R[x, y]], indexed as the metric is."""
        return self.u[self.R[x, y]]

    def radial(self, f, elsewhere, where=slice(1, None)):
        """A function of the distance on u, to be gathered per pair by R:
        f(u[where]) at ``where`` (every positive distance by default) and
        ``elsewhere`` at the other distances."""
        f_u = np.full(len(self.u), float(elsewhere))
        f_u[where] = f(self.u[where])
        return f_u

    def beyond(self, r, at=..., closed=False):
        """The mask d(x, y) > r (>= r if ``closed``) over the pairs R[at],
        by default every pair, broadcast against an array r."""
        k = self.u.searchsorted(r, "left" if closed else "right")
        return self.R[at] >= k.astype(self.R.dtype)   # intp would widen R

    def ball(self, x: int, r: float) -> np.ndarray:
        """Indices of B(x, r) = {y : d(x, y) < r}.  Raises SpaceError on a
        NaN radius."""
        if np.isnan(r):
            raise SpaceError("ball radius is NaN")
        return np.nonzero(self.R[x] < int(self.u.searchsorted(r)))[0]

    def volume(self, x, r):
        """V(x, r): a float for one centre, an array for an index array."""
        v = self.volumes(x, r)
        return float(v) if v.ndim == 0 else v

    def volumes(self, x, radii) -> np.ndarray:
        """V(x, r) for centres ``x`` broadcast against ``radii``, by one
        gather from the ball table C: ``volumes(xs[:, None], d)`` reads
        row i of ``d`` at centre xs[i].  Raises SpaceError on a NaN
        radius."""
        r = np.asarray(radii, dtype=float)
        if np.isnan(r).any():
            raise SpaceError("volume radius is NaN")
        return self.C[x, self.u.searchsorted(r)]

    def interior(self, margin=None) -> np.ndarray:
        """Centers whose ball of radius ``margin`` (default
        ``interior_margin``) avoids the truncation set."""
        m = self.interior_margin if margin is None else margin
        return np.nonzero(self.dist_to_boundary >= m)[0]

    def spread_centers(self, reach: float, count: int) -> np.ndarray:
        """At most ``count`` centers whose closed ball of radius ``reach``
        avoids the truncation set, spread evenly over the usable ones by a
        rounded linspace of their positions (each taken once)."""
        centers = self.interior(reach + 1e-9)
        take = np.linspace(0, len(centers) - 1, min(count, len(centers)))
        return centers[np.unique(take.round().astype(int))]

    def export_points_csv(self, path):
        """Write id, coords, mu rows for external plotting."""
        with open(path, "w") as fh:
            dim = 0 if self.coords is None else self.coords.shape[1]
            header = ["id"] + [f"x{i}" for i in range(dim)] + ["mu"]
            fh.write(",".join(header) + "\n")
            for i in range(self.n):
                row = [str(i)]
                if dim:
                    row += [repr(float(v)) for v in self.coords[i]]
                row.append(repr(float(self.mu[i])))
                fh.write(",".join(row) + "\n")


def _ball_table(R, mu, K):
    """The n x (K + 1) cumulative ball masses C[x, j] = mu{y : d(x, y) <
    u[j]} of a space with ranks R into its K distinct distances u, with
    C[x, K] = mu(X), so that V(x, r) = C[x, searchsorted(u, r)].  Built in
    blocks of rows; raises SpaceError when C would hold more entries than
    on a 1-d lattice at ``MAX_POINTS``."""
    n = len(R)
    if n * (K + 1) > MAX_POINTS * (MAX_POINTS + 1):
        raise SpaceError(f"capacity exceeded: the ball-volume table of {n} "
                         f"points would hold {n} x {K + 1} entries")
    C = np.zeros((n, K + 1))
    for i in range(0, n, _ROWS):
        b = min(_ROWS, n - i)
        # the mass at distance u[j] from row x of the block, in bin x K + j
        k = R[i:i + b] + (K * np.arange(b))[:, None]
        mass = np.bincount(k.ravel(), np.broadcast_to(mu, (b, n)).ravel(),
                           b * K)
        np.cumsum(mass.reshape(b, K), axis=1, out=C[i:i + b, 1:])
    return C


# -- builders --------------------------------------------------------------


def _lattice(dim: int, side: int, metric: str, margin, cut):
    """The lattice box {0, ..., side - 1}^dim with its l1 or l2 metric and
    the truncation set ``cut(coords)``.  Point i has the coordinates of i
    in base ``side``, so a pair of points (i, j) splits into 2 dim
    coordinates, axis a's at positions a and dim + a; the per-axis terms
    |x_a - y_a| (squared for l2) add into the pair's integer sum one axis
    at a time, in axis order.  An l1 sum is the rank of the distance
    itself, as u = 0, 1, ..., dim (side - 1); an l2 distance is the root of
    its sum, and its rank is read from a table over the sums."""
    n = side ** dim
    coords = np.indices((side,) * dim).reshape(dim, -1).T.astype(int)
    power = 1 if metric == "l1" else 2
    top = dim * (side - 1) ** power
    # one axis's |x_a - y_a| (squared for l2): row i reads a window sliding
    # over the terms of side - 1 - i, ..., 1, 0, 1, ..., i
    terms = np.abs(np.arange(1 - side, side)) ** power
    step = np.lib.stride_tricks.sliding_window_view(
        terms.astype(np.min_scalar_type(top + 1)), side)[::-1]
    sums = np.zeros((n, n), step.dtype)
    pairs = sums.reshape((side,) * (2 * dim))
    for a in range(dim):
        shape = [1] * (2 * dim)
        shape[a] = shape[dim + a] = side
        pairs += step.reshape(shape)
    # point i and its successor along an axis, in order of i, then axis
    i, ax = np.nonzero(coords < side - 1)
    edges = np.column_stack([i, i + side ** (dim - 1 - ax)])
    kw = dict(mu=np.ones(n), edges=edges, coords=coords, boundary=cut(coords),
              interior_margin=side / 8.0 if margin is None else margin)
    if metric == "l2":
        # corner 0's row meets every offset, so every sum the pairs meet
        met = np.bincount(sums[0], minlength=top + 1) > 0
        u = np.sqrt(np.flatnonzero(met), dtype=float)
        rank = (np.cumsum(met) - 1).astype(np.min_scalar_type(len(u)))
        return MetricMeasureSpace._from_ranks(u, rank[sums], **kw)
    return MetricMeasureSpace._from_ranks(np.arange(top + 1.0), sums, **kw)


def _lattice_box(dim: Dim, side: Count, metric: Metric = "l1",
                 margin: NonNegative | None = None):
    return _lattice(dim, side, metric, margin,
                    lambda c: ((c == 0) | (c == side - 1)).any(axis=1))


def _halfspace_lattice(side: Count, metric: Metric = "l1",
                       margin: NonNegative | None = None):
    """2-d box whose bottom edge y = 0 is a genuine reflecting boundary; only
    the three cut faces count as truncation."""
    return _lattice(2, side, metric, margin,
                    lambda c: (c[:, 0] == 0) | (c[:, 0] == side - 1)
                    | (c[:, 1] == side - 1))


def _gasket(level: Count, margin: NonNegative | None = None):
    scale = 2 ** level
    tris = [((0, 0), (scale, 0), (0, scale))]
    for _ in range(level):
        nxt = []
        for a, b, c in tris:
            ab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            bc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            ac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            nxt += [(a, ab, ac), (ab, b, bc), (ac, bc, c)]
        tris = nxt
    verts = sorted({p for t in tris for p in t})
    index = {p: i for i, p in enumerate(verts)}
    n = len(verts)
    edge_set = set()
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (a, c)):
            iu, iv = index[u], index[v]
            edge_set.add((min(iu, iv), max(iu, iv)))
    edges = np.array(sorted(edge_set))
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    # the hop counts, which take every value from 0 to the diameter, are
    # the ranks of the distances
    hops = shortest_path(adj, method="D", unweighted=True)
    K = int(hops.max()) + 1
    lattice = np.array(verts, dtype=float)
    coords = np.column_stack(
        [lattice[:, 0] + 0.5 * lattice[:, 1], lattice[:, 1] * (math.sqrt(3) / 2)]
    )
    boundary = np.zeros(n, dtype=bool)
    for corner in ((0, 0), (scale, 0), (0, scale)):
        boundary[index[corner]] = True
    return MetricMeasureSpace._from_ranks(
        np.arange(K, dtype=float), hops.astype(np.min_scalar_type(K)),
        np.ones(n), edges=edges, coords=coords, boundary=boundary,
        interior_margin=scale / 8.0 if margin is None else margin)


# space kind -> builder; a space config sets exactly its parameters
SPACES = {"lattice_box": _lattice_box, "gasket": _gasket,
          "halfspace_lattice": _halfspace_lattice}


def build_space(kind: str, **params) -> MetricMeasureSpace:
    """Construct one of the bundled geometries: ``SPACES[kind](**params)``."""
    space_size(kind, **params)
    return SPACES[kind](**params)


def space_size(kind: str | None = None, **params) -> int:
    """Point count of ``build_space(kind, **params)``, found without
    building anything.  SpaceError on a missing or unknown kind, params
    that do not ``bind`` to its builder, and a count over ``MAX_POINTS``."""
    if kind is None:
        raise SpaceError("space needs 'kind'")
    if not isinstance(kind, str) or kind not in SPACES:
        raise SpaceError(f"unknown space kind {kind!r}")
    bind(parameters(SPACES[kind]), params, f"{kind} space", SpaceError)
    if kind == "gasket":   # 3 ** level itself takes long for a huge level
        n = 3 * (3 ** params["level"] + 1) // 2 if params["level"] <= 40 else math.inf
    else:
        n = params["side"] ** params.get("dim", 2)
    _check_size(n)
    return n


# -- volume regularity ------------------------------------------------------


@dataclass
class VolumeReport:
    """Fitted volume-regularity constants over a restricted radius range."""

    C_mu: float                    # doubling: V(x, 2r) <= C_mu V(x, r)
    l_mu: float                    # reverse doubling: V(x, l r) >= c_mu V(x, r)
    c_mu: float
    rvd_passes: bool
    d1: float                      # exponent sandwich of the volume ratio
    d2: float
    c_tilde: float
    C_tilde: float
    radius_range: tuple[float, float]
    n_centers: int


def volume_report(space: MetricMeasureSpace,
                  radii: list[Positive] | None = None) -> VolumeReport:
    """Fit doubling / reverse-doubling constants and the exponent sandwich
    over interior centers.

    On a finite space RVD is only meaningful on the restricted range; the
    verdict refers to that range and never to a global statement.
    """
    if radii is None:
        top = max(space.interior_margin, 2.0)
        radii = np.unique(np.geomspace(1.0, top, 6).round(3)) + 0.5
    radii = np.asarray(sorted(radii), dtype=float)
    rmax = radii.max()

    centers = space.interior(2.0 * rmax)
    if len(centers) < 2:
        centers = space.interior()
    if len(centers) < 1:
        raise SpaceError("no interior points at the configured margin")

    vols = space.volumes(centers[:, None], radii)
    C_mu = float(np.max(space.volumes(centers[:, None], 2.0 * radii) / vols))

    best_l, best_c = 2.0, 0.0
    for l in (2.0, 3.0, 4.0):
        c = float(np.min(space.volumes(centers[:, None], l * radii) / vols))
        if c > best_c:
            best_l, best_c = l, c

    # pooled least-squares exponent (lattice oscillations go into the
    # certified envelope constants, not the exponent)
    logs_r = np.log(radii)
    mean_logv = np.log(np.maximum(vols, 1e-300)).mean(axis=0)
    A = np.column_stack([logs_r, np.ones_like(logs_r)])
    sol, *_ = np.linalg.lstsq(A, mean_logv, rcond=None)
    d1 = d2 = float(sol[0])
    # per radius pair over all centres; fmin/fmax skip a nan as min() does
    c_t, C_t = np.inf, 0.0
    for i in range(len(radii)):
        for j in range(i + 1, len(radii)):
            q = vols[:, j] / vols[:, i] / (radii[j] / radii[i]) ** d1
            c_t, C_t = min(c_t, np.fmin.reduce(q)), max(C_t, np.fmax.reduce(q))
    return VolumeReport(
        C_mu=C_mu, l_mu=best_l, c_mu=best_c, rvd_passes=bool(best_c > 1.0),
        d1=d1, d2=d2, c_tilde=float(c_t), C_tilde=float(C_t),
        radius_range=(float(radii.min()), float(rmax)), n_centers=len(centers),
    )


# -- chain condition ---------------------------------------------------------


@dataclass
class ChainReport:
    constant: float
    samples: int
    witness: tuple | None   # (x, y) of a disconnected pair, if any


def _min_max_steps(space, x, y, max_n):
    """Exact minimal max-step over n-step chains x -> y inside the metric
    ellipse around the pair, for n = 1..max_n (entry n - 1).

    The chains meet in the middle: F[a](z) is the least max-step of a-step
    chains from x to z, G[b](z) that of b-step chains from z into y (both
    inf off the ellipse), and the best (a + b)-step chain has max-step
    min_z max(F[a](z), G[b](z)).  One sweep over blocks of rows of the
    ranks takes F and G one step further, so ``max_n`` = 6 needs two sweeps
    and ``max_n`` <= 2 none.  Only min and max are taken, which commute
    with the increasing map from rank to distance, so the programme runs
    on ranks, with K standing for inf, and every entry equals that of the
    forward programme f <- min_z max(f(z), d(z, .)) exactly."""
    R, u = space.R, space.u
    K = len(u)
    inside = u[R[x]] + u[R[y]] <= 3.0 * u[R[x, y]] + 1e-9
    sel, outside = np.nonzero(inside)[0], ~inside
    G0 = np.full(space.n, K, R.dtype)
    G0[y] = 0
    F = [None, R[x].copy()]
    G = [G0, R[:, y].copy()]
    F[1][outside] = G[1][outside] = K
    buf = np.empty((_ROWS, space.n), R.dtype)
    for a in range(2, (max_n + 1) // 2 + 1):
        f, g = F[-1], G[-1]
        F.append(np.full(space.n, K, R.dtype))
        if 2 * a <= max_n:
            G.append(np.full(space.n, K, R.dtype))
        for i in range(0, len(sel), _ROWS):
            z = sel[i:i + _ROWS]
            rows = R[z]
            step = np.maximum(rows, f[z, None], out=buf[:len(z)])
            np.minimum(F[a], step.min(axis=0), out=F[a])
            if len(G) > a:
                G[a][z] = np.maximum(rows, g, out=step).min(axis=1)
        F[a][outside] = K
    u_inf = np.append(u, np.inf)
    return [float(u_inf[np.maximum(F[(k + 1) // 2], G[k // 2]).min()])
            for k in range(1, max_n + 1)]


def chain_check(space: MetricMeasureSpace, samples: Count = 31,
                seed: int = 0x5EED, max_n: Count = 6) -> ChainReport:
    """Fit the chain-condition constant: the smallest C found such that every
    sampled (x, y, n) admits a chain with steps <= C d(x, y) / n."""
    if np.isinf(space.u[-1]):
        x, y = np.argwhere(space.R == len(space.u) - 1)[0]
        return ChainReport(math.inf, 0, (int(x), int(y)))
    rng = np.random.RandomState(seed)
    pts = space.interior()
    if len(pts) < 2:
        pts = np.arange(space.n)
    worst = 1.0
    count = 0
    for _ in range(samples):
        x, y = rng.choice(pts, size=2, replace=False)
        d = space.dist(x, y)
        top = min(max_n, int(d))
        if top < 2:
            continue
        steps = _min_max_steps(space, int(x), int(y), top)
        for n in range(2, top + 1):
            worst = max(worst, steps[n - 1] * n / d)
            count += 1
    return ChainReport(float(worst), count, None)
