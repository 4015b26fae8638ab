"""The ball-volume table: every V(x, r) is one lookup in a table built once
per space.  The two formulas it replaced (a masked sum per (x, r) and a
stable-argsort cumulative sum per row) are kept here as the oracles: on the
counting measure of every shipped space the table is bit-equal to both, and
on a random positive measure it agrees within the rounding of an n-term
sum."""

import math
import tracemalloc

import numpy as np
import pytest

import formlab.space as space_mod
from formlab.cli import load_config
from formlab.space import MetricMeasureSpace, SpaceError, build_space

BUNDLED = ("z1_alpha1", "phi_counterexample", "z1_mini",
           "gasket_subordination", "gasket_walk", "z2_alpha1", "halfspace")


def old_volume(mu, row, r):
    """The masked sum over one metric row."""
    return float(mu[row < r].sum())


def old_volumes(mu, row, radii):
    """The sorted sweep of one metric row."""
    order = np.argsort(row, kind="stable")
    c_sorted = np.concatenate([[0.0], np.cumsum(mu[order])])
    k = np.searchsorted(row[order], np.asarray(radii, dtype=float),
                        side="left")
    return c_sorted[k]


def shipped_spaces():
    for name in BUNDLED:
        yield name, build_space(**load_config(name).space)
    yield "z1_alpha1@512", build_space("lattice_box", dim=1, side=512,
                                       metric="l1")


@pytest.mark.parametrize("name,space", list(shipped_spaces()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_table_bit_equal_to_both_formulas_on_shipped_spaces(name, space):
    n = space.n
    everyone = np.arange(n)[:, None]
    d = space.metric
    # the pair volumes, open and closed, as fit_hk and stable_like read them
    for radii in (d, d + 1e-9):
        want = np.array([old_volumes(space.mu, d[x], radii[x])
                         for x in range(n)])
        assert np.array_equal(space.volumes(everyone, radii), want)
    # scalar radii between and at the distances, per centre
    radii = np.unique(np.concatenate([[0.5, 1.5, 2.5, 4.0, 8.5, 1e9],
                                      d[0, :20]]))
    xs = np.unique(np.linspace(0, n - 1, 25).round().astype(int))
    got = space.volumes(xs[:, None], radii)
    for i, x in enumerate(xs):
        assert np.array_equal(got[i], old_volumes(space.mu, d[x], radii))
        for j, r in enumerate(radii):
            v = space.volume(int(x), float(r))
            assert type(v) is float and v == old_volume(space.mu, d[x], r)
            assert v == got[i, j]
    assert np.array_equal(space.volume(xs, 2.5),
                          [old_volume(space.mu, d[x], 2.5) for x in xs])


def test_random_measure_within_n_eps():
    # different summation orders: each sum of n positive terms is within
    # (n - 1) eps of the exact sum, so the two agree within 2 n eps
    rng = np.random.RandomState(7)
    pts = rng.uniform(0.0, 10.0, size=(150, 2))
    metric = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    mu = rng.uniform(0.01, 100.0, size=150)
    sp = MetricMeasureSpace(metric, mu)
    n = sp.n
    bound = 2 * n * np.finfo(float).eps
    got = sp.volumes(np.arange(n)[:, None], metric + 1e-9)
    for x in range(n):
        want = old_volumes(mu, metric[x], metric[x] + 1e-9)
        assert np.all(np.abs(got[x] - want) <= bound * want)
        for r in (0.7, 3.3, 12.0):
            want = old_volume(mu, metric[x], r)
            assert abs(sp.volume(x, r) - want) <= bound * want


def test_nonpositive_infinite_and_nan_radii():
    sp = build_space("lattice_box", dim=1, side=16)
    assert np.array_equal(sp.volumes(3, [0.0, -1.0, -np.inf]), [0, 0, 0])
    assert sp.volume(3, 0.0) == 0.0
    assert sp.volume(3, np.inf) == 16.0
    # two components at infinite distance: an inf radius still excludes
    # the other one
    metric = np.full((5, 5), np.inf)
    metric[:3, :3] = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    metric[3:, 3:] = [[0, 1], [1, 0]]
    mu = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    split = MetricMeasureSpace(metric, mu)
    assert split.volume(0, np.inf) == 6.0
    assert split.volume(4, np.inf) == 9.0
    assert np.array_equal(split.volumes(np.arange(5), np.inf),
                          [6, 6, 6, 9, 9])
    for bad in (math.nan, [1.0, math.nan]):
        with pytest.raises(SpaceError, match="NaN"):
            sp.volumes(3, bad)
    with pytest.raises(SpaceError, match="NaN"):
        sp.volume(3, math.nan)


def test_table_over_the_cap_refused(monkeypatch):
    monkeypatch.setattr(space_mod, "MAX_POINTS", 12)
    rng = np.random.RandomState(0)
    pts = rng.uniform(size=(10, 2))
    metric = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    with pytest.raises(SpaceError, match="capacity exceeded"):
        MetricMeasureSpace(metric, np.ones(10))   # 46 distinct distances


@pytest.mark.parametrize("kind,params", [
    ("lattice_box", {"dim": 1, "side": 512}),    # K = n
    ("lattice_box", {"dim": 2, "side": 32}),     # K = 63
])
def test_table_memory(kind, params):
    # a space keeps its ranks, distances and ball table beside its O(n)
    # arrays, and builds them with no n x n float temporary
    build_space(kind, **params)   # the binding caches, filled once
    tracemalloc.start()
    try:
        sp = build_space(kind, **params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sp.n
    assert sp.R.dtype == np.min_scalar_type(len(sp.u))
    assert not [name for name, a in vars(sp).items()
                if np.ndim(a) == 2 and a.shape == (n, n) and a.dtype == float]
    held = sum(a.nbytes for a in (sp.u, sp.R, sp.C, sp.mu, sp.coords,
                                  sp.edges, sp.boundary, sp.dist_to_boundary))
    assert kept <= held + 4096
    assert peak <= held + 4 * n * n
