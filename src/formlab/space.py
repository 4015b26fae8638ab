"""Finite metric measure spaces with ball indexing and volume diagnostics.

The spaces are finite truncations of unbounded model geometries (lattice
boxes, the Sierpinski gasket graph, a reflected half-space lattice).  Every
condition downstream is asserted only on balls staying clear of the
truncation boundary, controlled by ``interior_margin``: a point is usable at
enlargement radius R when its distance to the truncation set is at least R.
Ball membership is strict: B(x, r) = {y : d(x, y) < r}.  Every volume
V(x, r) = mu(B(x, r)) is one lookup in a table built once per space.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import threading
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

# the point cap: dense n x n metric, jump matrix, form and eigenbasis
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


def _check_metric(metric):
    """Raise SpaceError, naming a pair, unless ``metric`` is 0 on the
    diagonal, > 0 off it (+inf allowed) and exactly symmetric."""
    n = len(metric)
    zero = np.diagonal(metric) == 0.0
    if not zero.all():
        i = int(np.argmin(zero))
        raise SpaceError(f"metric is not 0 on the diagonal: d({i}, {i}) = "
                         f"{float(metric[i, i])!r}")
    for i in range(0, n, _ROWS):
        pos = metric[i:i + _ROWS] > 0.0
        # the diagonal is 0, so a row holds n - 1 positive entries at most
        if np.count_nonzero(pos) < len(pos) * (n - 1):
            pos[np.arange(len(pos)), np.arange(i, i + len(pos))] = True
            x, y = (int(v) for v in np.argwhere(~pos)[0])
            x += i
            raise SpaceError(f"metric is not positive off the diagonal: "
                             f"d({x}, {y}) = {float(metric[x, y])!r}")
    # a row meeting two infinite distances reads NaN (inf - inf), so only
    # the rows that read 0 are known to be symmetric
    with np.errstate(invalid="ignore"):
        asym = _row_asymmetry(metric)
    for x in np.flatnonzero(asym != 0.0):
        differ = np.flatnonzero(metric[x] != metric[:, x])
        if differ.size:
            x, y = int(x), int(differ[0])
            raise SpaceError(f"metric is not symmetric: d({x}, {y}) = "
                             f"{float(metric[x, y])!r}, d({y}, {x}) = "
                             f"{float(metric[y, x])!r}")


# -- config binding ----------------------------------------------------------


def _real(v):
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and -math.inf < v < math.inf)


# annotation -> (what a value must be, test); a default of None takes None too;
# a JSON list sets a tuple-valued parameter
_REALS = ("a nonempty list of finite reals",
          lambda v: isinstance(v, list) and v and all(map(_real, v)))
_TYPES = {"int": ("an integer", lambda v: _real(v) and isinstance(v, int)),
          "float": ("a finite real", _real),
          "str": ("a string", lambda v: isinstance(v, str)),
          "dict": ("an object", lambda v: isinstance(v, dict)),
          "list[float]": _REALS,
          "tuple[float, ...]": _REALS,
          "list[str]": ("a list of strings", lambda v: isinstance(v, list)
                        and all(isinstance(x, str) for x in v))}


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
    (if ``required``), and each value has the type its annotation names."""
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
        p = named[name]
        kind, ok = _TYPES.get(str(p.annotation).removesuffix(" | None"),
                              ("", None))
        if ok and not ok(value) and not (value is None and p.default is None):
            raise error(f"{what} needs {kind} {show(name)}, got {value!r}")


class MetricMeasureSpace:
    """Finite point set with a metric, positive measure, nearest neighbour
    edges, and a designated truncation boundary.  The metric must be 0 on
    the diagonal, positive off it (+inf between disconnected points) and
    exactly symmetric; the triangle inequality is not checked."""

    def __init__(self, metric, mu, edges=None, coords=None, boundary=None,
                 interior_margin=0.0):
        metric = np.asarray(metric, dtype=float)
        if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
            raise SpaceError("metric must be a square matrix")
        n = metric.shape[0]
        _check_size(n)
        _check_metric(metric)
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (n,) or np.any(mu <= 0.0):
            raise SpaceError("mu must be positive with one entry per point")
        self.n = n
        self.metric = metric
        self.mu = mu
        self.coords = None if coords is None else np.asarray(coords)
        self.edges = (np.zeros((0, 2), dtype=int) if edges is None
                      else np.asarray(edges, dtype=int))
        self.boundary = bnd = (np.zeros(n, dtype=bool) if boundary is None
                               else np.asarray(boundary))
        self.interior_margin = float(interior_margin)
        self.dist_to_boundary = (metric[:, bnd].min(axis=1) if bnd.any()
                                 else np.full(n, np.inf))
        self._balls = None
        self._balls_lock = threading.Lock()

    # -- queries ----------------------------------------------------------

    def ball(self, x: int, r: float) -> np.ndarray:
        """Indices of B(x, r) = {y : d(x, y) < r}."""
        return np.nonzero(self.metric[x] < r)[0]

    def volume(self, x, r):
        """V(x, r): a float for one centre, an array for an index array."""
        v = self.volumes(x, r)
        return float(v) if v.ndim == 0 else v

    def volumes(self, x, radii) -> np.ndarray:
        """V(x, r) for centres ``x`` broadcast against ``radii``, by one
        gather from the space's ball-volume table (``ball_table``):
        ``volumes(xs[:, None], d)`` reads row i of ``d`` at centre xs[i].
        Raises SpaceError on a NaN radius."""
        r = np.asarray(radii, dtype=float)
        if np.isnan(r).any():
            raise SpaceError("volume radius is NaN")
        u, C = self.ball_table()
        return C[x, np.searchsorted(u, r, side="left")]

    def ball_table(self):
        """The space's ball-volume table (u, C) of ``_ball_table``, built on
        the first call; safe from several threads."""
        with self._balls_lock:
            if self._balls is None:
                self._balls = _ball_table(self.metric, self.mu)
        return self._balls

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


def _ball_table(metric, mu):
    """(u, C): the sorted distinct distances u (K of them) and the n x
    (K + 1) cumulative ball masses C[x, j] = mu{y : d(x, y) < u[j]}, with
    C[x, K] = mu(X), so that V(x, r) = C[x, searchsorted(u, r)].  As u
    holds every distance (u[0] = 0, the diagonal's), a factor of the
    distance alone needs evaluating on u only, and a radius d(x, y) + h
    only once per entry of u (``JumpKernel.stable_like``).  Built in blocks
    of rows; raises SpaceError when C would hold more entries than on a 1-d
    lattice at ``MAX_POINTS``."""
    n = len(metric)
    u = functools.reduce(np.union1d, (metric[i:i + _ROWS]
                                      for i in range(0, n, _ROWS)), ())
    K = len(u)
    if n * (K + 1) > MAX_POINTS * (MAX_POINTS + 1):
        raise SpaceError(f"capacity exceeded: the ball-volume table of {n} "
                         f"points would hold {n} x {K + 1} entries")
    C = np.zeros((n, K + 1))
    for i in range(0, n, _ROWS):
        b = min(_ROWS, n - i)
        # the mass at distance u[j] from row x of the block, in bin x K + j
        k = np.searchsorted(u, metric[i:i + b])
        k += (K * np.arange(b))[:, None]
        mass = np.bincount(k.ravel(), np.broadcast_to(mu, (b, n)).ravel(),
                           b * K)
        np.cumsum(mass.reshape(b, K), axis=1, out=C[i:i + b, 1:])
    return u, C


# -- builders --------------------------------------------------------------


def _lattice(dim: int, side: int, metric: str):
    """(metric, coords, edges) of the lattice box {0, ..., side - 1}^dim
    with its l1 or l2 metric.  Point i has the coordinates of i in base
    ``side``, so a pair of points (i, j) splits into 2 dim coordinates, axis
    a's at positions a and dim + a; the per-axis terms |x_a - y_a| (squared
    for l2) add into the metric one axis at a time, in axis order."""
    n = side ** dim
    coords = np.indices((side,) * dim).reshape(dim, -1).T.astype(int)
    x = np.arange(side, dtype=float)
    dist = np.empty((n, n))
    # one axis's |x_a - y_a|, which is the metric itself when dim is 1
    step = dist if dim == 1 else np.empty((side, side))
    np.abs(np.subtract.outer(x, x, out=step), out=step)
    if dim > 1:
        if metric == "l2":
            step *= step
        pairs = dist.reshape((side,) * (2 * dim))
        for a in range(dim):
            shape = [1] * (2 * dim)
            shape[a] = shape[dim + a] = side
            if a == 0:
                pairs[...] = step.reshape(shape)
            else:
                pairs += step.reshape(shape)
        if metric == "l2":
            np.sqrt(dist, out=dist)
    # point i and its successor along an axis, in order of i, then axis
    i, ax = np.nonzero(coords < side - 1)
    edges = np.column_stack([i, i + side ** (dim - 1 - ax)])
    return dist, coords, edges


def _lattice_box(dim: int, side: int, metric: str = "l1",
                 margin: float | None = None):
    dist, coords, edges = _lattice(dim, side, metric)
    boundary = ((coords == 0) | (coords == side - 1)).any(axis=1)
    if margin is None:
        margin = side / 8.0
    return MetricMeasureSpace(dist, np.ones(len(dist)), edges=edges,
                              coords=coords, boundary=boundary,
                              interior_margin=margin)


def _halfspace_lattice(side: int, metric: str = "l1",
                       margin: float | None = None):
    """2-d box whose bottom edge y = 0 is a genuine reflecting boundary; only
    the three cut faces count as truncation."""
    dist, coords, edges = _lattice(2, side, metric)
    boundary = (
        (coords[:, 0] == 0)
        | (coords[:, 0] == side - 1)
        | (coords[:, 1] == side - 1)
    )
    if margin is None:
        margin = side / 8.0
    return MetricMeasureSpace(dist, np.ones(len(dist)), edges=edges,
                              coords=coords, boundary=boundary,
                              interior_margin=margin)


def _gasket(level: int, margin: float | None = None):
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
    dist = shortest_path(adj, method="D", unweighted=True)
    lattice = np.array(verts, dtype=float)
    coords = np.column_stack(
        [lattice[:, 0] + 0.5 * lattice[:, 1], lattice[:, 1] * (math.sqrt(3) / 2)]
    )
    boundary = np.zeros(n, dtype=bool)
    for corner in ((0, 0), (scale, 0), (0, scale)):
        boundary[index[corner]] = True
    if margin is None:
        margin = scale / 8.0
    return MetricMeasureSpace(dist, np.ones(n), edges=edges, coords=coords,
                              boundary=boundary, interior_margin=margin)


# space kind -> builder; a space config sets exactly its parameters
SPACES = {"lattice_box": _lattice_box, "gasket": _gasket,
          "halfspace_lattice": _halfspace_lattice}


def build_space(kind: str, **params) -> MetricMeasureSpace:
    """Construct one of the bundled geometries: ``SPACES[kind](**params)``."""
    space_size(kind, **params)
    return SPACES[kind](**params)


def space_size(kind: str | None = None, **params) -> int:
    """Point count of ``build_space(kind, **params)``, found without
    building anything.  Raises SpaceError on a missing or unknown kind,
    params that do not ``bind`` to the kind's builder, a lattice dim outside
    {1, 2, 3}, a side below 1, a level below 0, a lattice metric other than
    l1 or l2, and a count over ``MAX_POINTS``."""
    if kind is None:
        raise SpaceError("space needs 'kind'")
    if not isinstance(kind, str) or kind not in SPACES:
        raise SpaceError(f"unknown space kind {kind!r}")
    bind(parameters(SPACES[kind]), params, f"{kind} space", SpaceError)
    if kind == "gasket":
        level = params["level"]
        if level < 0:
            raise SpaceError(f"gasket level must be at least 0, got {level}")
        # 3 ** level itself takes long to compute for a huge level
        n = 3 * (3 ** level + 1) // 2 if level <= 40 else math.inf
    else:
        dim, side = params.get("dim", 2), params["side"]
        if dim not in (1, 2, 3):
            raise SpaceError("lattice_box supports dim in {1, 2, 3}")
        if side < 1:
            raise SpaceError(f"lattice side must be at least 1, got {side}")
        if params.get("metric", "l1") not in ("l1", "l2"):
            raise SpaceError("lattice metric must be 'l1' or 'l2'")
        n = side ** dim
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
                  radii: list[float] | None = None) -> VolumeReport:
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
    min_z max(F[a](z), G[b](z)).  One sweep over blocks of metric rows
    takes F and G one step further, so ``max_n`` = 6 needs two sweeps and
    ``max_n`` <= 2 none.  Only min and max are taken, so every entry equals
    that of the forward programme f <- min_z max(f(z), d(z, .)) exactly."""
    D = space.metric
    inside = D[x] + D[y] <= 3.0 * D[x, y] + 1e-9
    sel, outside = np.nonzero(inside)[0], ~inside
    G0 = np.full(space.n, np.inf)
    G0[y] = 0.0
    F = [None, np.maximum(0.0, D[x])]
    G = [G0, np.maximum(D[:, y], 0.0)]
    F[1][outside] = G[1][outside] = np.inf
    buf = np.empty((_ROWS, space.n))
    for a in range(2, (max_n + 1) // 2 + 1):
        f, g = F[-1], G[-1]
        F.append(np.full(space.n, np.inf))
        if 2 * a <= max_n:
            G.append(np.full(space.n, np.inf))
        for i in range(0, len(sel), _ROWS):
            z = sel[i:i + _ROWS]
            rows = D[z]
            step = np.maximum(rows, f[z, None], out=buf[:len(z)])
            np.minimum(F[a], step.min(axis=0), out=F[a])
            if len(G) > a:
                G[a][z] = np.maximum(rows, g, out=step).min(axis=1)
        F[a][outside] = np.inf
    return [float(np.maximum(F[(k + 1) // 2], G[k // 2]).min())
            for k in range(1, max_n + 1)]


def chain_check(space: MetricMeasureSpace, samples: int = 40,
                seed: int = 0x5EED, max_n: int = 6) -> ChainReport:
    """Fit the chain-condition constant: the smallest C found such that every
    sampled (x, y, n) admits a chain with steps <= C d(x, y) / n."""
    finite = np.isfinite(space.metric)
    if not finite.all():
        bad = np.argwhere(~finite)
        return ChainReport(math.inf, 0, (int(bad[0, 0]), int(bad[0, 1])))
    rng = np.random.RandomState(seed)
    pts = space.interior()
    if len(pts) < 2:
        pts = np.arange(space.n)
    worst = 1.0
    count = 0
    for _ in range(samples):
        x, y = rng.choice(pts, size=2, replace=False)
        d = space.metric[x, y]
        if d <= 0.0:
            continue
        top = min(max_n, int(d))
        if top < 2:
            continue
        steps = _min_max_steps(space, int(x), int(y), top)
        for n in range(2, top + 1):
            worst = max(worst, steps[n - 1] * n / d)
            count += 1
    return ChainReport(float(worst), count, None)
