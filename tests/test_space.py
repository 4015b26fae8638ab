import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab.envelopes import _EnvelopeGrid, chain_lower_check
from formlab.form import JumpKernel, assemble, heat_kernel
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import (MAX_POINTS, MetricMeasureSpace, SpaceError,
                           _ranks, _row_asymmetry, build_space, chain_check,
                           space_size, volume_report)


def old_lattice_metric(dim, side, metric, rows=slice(None)):
    """Rows of the whole-array lattice metric: integer differences, one
    axis at a time."""
    coords = np.indices((side,) * dim).reshape(dim, -1).T.astype(int)
    diff = [coords[rows, a, None] - coords[None, :, a] for a in range(dim)]
    if metric == "l1":
        return sum(map(np.abs, diff)).astype(float)
    return np.sqrt(sum(d.astype(float) ** 2 for d in diff))


def old_row_asymmetry(M):
    """Row maxima of |M - M^T| over blocks of whole rows."""
    out = np.empty(len(M))
    for i in range(0, len(M), 32):
        d = M[i:i + 32] - M[:, i:i + 32].T
        np.abs(d, out=d).max(axis=1, out=out[i:i + 32])
    return out


class TestBuilders:
    def test_lattice_count_and_ball(self):
        sp = build_space("lattice_box", dim=1, side=101)
        assert sp.n == 101
        # direct count oracle: {y : |y - 50| < 2.5} has 5 points
        assert sp.volume(50, 2.5) == 5.0
        assert set(sp.ball(50, 0.5)) == {50}
        assert len(sp.ball(50, sp.metric.max() + 1.0)) == sp.n

    def test_lattice_2d(self):
        sp = build_space("lattice_box", dim=2, side=9)
        assert sp.n == 81
        center = 40
        assert sp.volume(center, 1.5) == 5.0   # von Neumann neighbourhood

    def test_lattice_l2_metric_is_euclidean(self):
        # the same points and edges as l1, at Euclidean distances
        sp = build_space("lattice_box", dim=2, side=5, metric="l2")
        l1 = build_space("lattice_box", dim=2, side=5)
        diff = sp.coords[:, None, :] - sp.coords[None, :, :]
        assert np.array_equal(sp.metric, np.sqrt((diff ** 2).sum(axis=2)))
        assert sp.metric[0, 3 * 5 + 4] == 5.0   # (0, 0) to (3, 4)
        assert np.array_equal(sp.edges, l1.edges)
        assert (sp.metric <= l1.metric).all()
        assert sp.volume(12, 1.5) == 9.0   # the 3 x 3 block around (2, 2)
        line = build_space("lattice_box", dim=1, side=9, metric="l2")
        assert np.array_equal(line.metric,
                              build_space("lattice_box", dim=1, side=9).metric)

    def test_lattice_edges_and_a_single_point(self):
        # each point joined to its successor along each axis, in order of
        # point, then axis; a one-point box has no edge and assembles
        sp = build_space("lattice_box", dim=2, side=3)
        assert sp.edges.tolist() == [[0, 3], [0, 1], [1, 4], [1, 2], [2, 5],
                                     [3, 6], [3, 4], [4, 7], [4, 5], [5, 8],
                                     [6, 7], [7, 8]]
        for dim in (1, 2, 3):
            one = build_space("lattice_box", dim=dim, side=1)
            assert one.edges.shape == (0, 2)
            assert assemble(one, 1.0, None).A.tolist() == [[0.0]]

    def test_gasket_vertex_counts(self):
        # recursion-count oracle: 3 (3^l + 1) / 2
        for lev in (1, 2, 3, 4, 5):
            g = build_space("gasket", level=lev)
            assert g.n == 3 * (3 ** lev + 1) // 2

    def test_gasket_volume_exponent(self):
        # log-log fit oracle against d = log 3 / log 2
        g = build_space("gasket", level=5)
        centers = g.interior(16.0)
        assert len(centers) > 10
        radii = np.array([2.5, 4.5, 8.5])
        logs = np.array([np.log(g.volumes(int(x), radii)) for x in centers])
        A = np.column_stack([np.log(radii), np.ones(3)])
        slope = np.linalg.lstsq(A, logs.mean(axis=0), rcond=None)[0][0]
        assert slope == pytest.approx(math.log(3) / math.log(2), abs=0.1)

    def test_capacity_refusal(self):
        with pytest.raises(SpaceError, match="capacity|capped"):
            build_space("lattice_box", dim=3, side=1024)
        with pytest.raises(SpaceError):
            build_space("gasket", level=9)

    def test_point_count_is_the_only_cap(self):
        # no per-side or per-level cap of its own: a 1-d side of 2000 fits
        # MAX_POINTS and builds; gasket level 8 has 9843 points and does not
        assert space_size("lattice_box", dim=1, side=2000) == 2000
        assert build_space("lattice_box", dim=1, side=2000).n == 2000
        assert space_size("gasket", level=7) == 3282
        with pytest.raises(SpaceError, match="9843"):
            space_size("gasket", level=8)

    def test_one_size_cap_at_construction(self):
        # the cap the form, its eigenbasis and validate_config share
        assert MAX_POINTS == 4096
        for n in (MAX_POINTS, MAX_POINTS + 1):
            metric = np.ones((n, n))
            np.fill_diagonal(metric, 0.0)
            if n > MAX_POINTS:
                with pytest.raises(SpaceError, match="capacity"):
                    MetricMeasureSpace(metric, np.ones(n))
            else:
                assert MetricMeasureSpace(metric, np.ones(n)).n == n

    # sides at the bounds of the rank types: K = 255 and 256 in 1-d
    @pytest.mark.parametrize("dim,side", [
        (1, 1), (1, 128), (1, 129), (1, 255), (1, 256), (1, 257), (1, 300),
        (2, 1), (2, 7), (2, 33), (2, 64), (3, 2), (3, 9), (3, 16)])
    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_lattice_metric_equals_whole_array_formula(self, dim, side,
                                                       metric):
        sp = build_space("lattice_box", dim=dim, side=side, metric=metric)
        assert sp.R.dtype == np.min_scalar_type(len(sp.u))
        assert np.all(np.diff(sp.u) > 0.0) and not np.signbit(sp.u).any()
        # every row, in blocks of 256 that bound the formula's memory
        for i in range(0, sp.n, 256):
            rows = slice(i, i + 256)
            assert np.array_equal(sp.dist(rows),
                                  old_lattice_metric(dim, side, metric, rows))

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_tiled_row_asymmetry_equals_row_blocks(self, n):
        rng = np.random.RandomState(n)
        M = rng.standard_normal((n, n))
        assert np.array_equal(_row_asymmetry(M), old_row_asymmetry(M))
        M = 0.5 * (M + M.T)
        M[n // 2, n // 3] += 1.0
        assert np.array_equal(_row_asymmetry(M), old_row_asymmetry(M))
        M[n - 1, n // 4] = np.nan
        with np.errstate(invalid="ignore"):
            got = _row_asymmetry(M)
        assert np.array_equal(got, old_row_asymmetry(M), equal_nan=True)
        assert np.isnan(got[n - 1]) and np.isnan(got[n // 4])

    def test_halfspace_boundary(self):
        sp = build_space("halfspace_lattice", side=16)
        coords = sp.coords
        bottom = (coords[:, 1] == 0) & (coords[:, 0] > 0) & (
            coords[:, 0] < 15
        )
        assert not sp.boundary[bottom].any()
        assert sp.boundary[coords[:, 1] == 15].all()

    def test_metric_axioms_sampled(self):
        rng = np.random.RandomState(3)
        for sp in (build_space("lattice_box", dim=2, side=12),
                   build_space("gasket", level=4)):
            d = sp.metric
            assert np.abs(d - d.T).max() == 0.0
            assert np.all(np.diag(d) == 0.0)
            idx = rng.randint(0, sp.n, size=(10_000, 3))
            x, y, z = idx[:, 0], idx[:, 1], idx[:, 2]
            assert np.all(d[x, z] <= d[x, y] + d[y, z] + 1e-12)

    def test_ball_monotone(self):
        sp = build_space("gasket", level=4)
        rng = np.random.RandomState(4)
        for _ in range(50):
            x = rng.randint(sp.n)
            r1, r2 = sorted(rng.uniform(0.5, 10.0, size=2))
            assert set(sp.ball(x, r1)) <= set(sp.ball(x, r2))

    def test_spread_centers(self):
        sp = build_space("lattice_box", dim=1, side=21)
        # usable at reach 4: dist to {0, 20} > 4, i.e. x = 5..15
        assert list(sp.spread_centers(4.0, 3)) == [5, 10, 15]
        assert list(sp.spread_centers(4.0, 50)) == list(range(5, 16))
        assert list(sp.spread_centers(9.5, 4)) == [10]
        assert len(sp.spread_centers(10.0, 4)) == 0

    def test_points_csv(self, tmp_path):
        sp = build_space("lattice_box", dim=2, side=5)
        path = tmp_path / "pts.csv"
        sp.export_points_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == sp.n + 1
        assert lines[0] == "id,x0,x1,mu"


class TestMetricRefusals:
    """A space refuses a matrix that is not a metric on its face, naming
    a pair; +inf (disconnected points) is allowed."""

    def refuse(self, metric, match):
        with pytest.raises(SpaceError, match=match):
            MetricMeasureSpace(metric, np.ones(len(metric)))

    def test_asymmetric(self):
        self.refuse([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]],
                    r"not symmetric: d\(0, 2\) = 2.0, d\(2, 0\) = 2.5")

    def test_asymmetric_beside_infinite_pairs(self):
        # rows meeting inf - inf read NaN in the tiled asymmetry
        inf = np.inf
        self.refuse([[0.0, inf, 1.0], [inf, 0.0, 2.0], [1.0, 3.0, 0.0]],
                    r"not symmetric: d\(1, 2\) = 2.0, d\(2, 1\) = 3.0")
        self.refuse([[0.0, inf, 1.0], [2.0, 0.0, inf], [1.0, inf, 0.0]],
                    r"not symmetric: d\(0, 1\) = inf, d\(1, 0\) = 2.0")

    def test_nonzero_diagonal(self):
        self.refuse([[0.0, 1.0], [1.0, 0.5]],
                    r"not 0 on the diagonal: d\(1, 1\) = 0.5")
        self.refuse([[np.nan, 1.0], [1.0, 0.0]],
                    r"not 0 on the diagonal: d\(0, 0\) = nan")

    def test_zero_off_diagonal(self):
        # two points at distance 0, where stable_like divides by zero
        self.refuse([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                    r"not positive off the diagonal: d\(0, 1\) = 0.0")

    def test_negative_off_diagonal(self):
        self.refuse([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]],
                    r"not positive off the diagonal: d\(0, 2\) = -1.0")

    def test_nan_off_diagonal(self):
        n = 40   # the bad pair sits in the second block of rows
        metric = np.ones((n, n))
        np.fill_diagonal(metric, 0.0)
        metric[38, 35] = metric[35, 38] = np.nan
        self.refuse(metric, r"not positive off the diagonal: "
                            r"d\(35, 38\) = nan")
        metric[38, 35] = metric[35, 38] = -np.inf
        self.refuse(metric, r"d\(35, 38\) = -inf")


@st.composite
def ranked_matrices(draw):
    # ties from a few repeated values, +inf, and neither symmetry nor a zero
    # diagonal
    n = draw(st.integers(1, 9))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.5, np.inf]),
                      st.floats(0.0, 10.0))
    return np.array(draw(st.lists(value, min_size=n * n, max_size=n * n)),
                    dtype=float).reshape(n, n) + 0.0   # no -0.0


@settings(deadline=None)
@given(ranked_matrices())
def test_ranks_index_the_distinct_distances(metric):
    u, R = _ranks(metric)
    assert np.all(np.diff(u) > 0.0)
    assert R.dtype == np.min_scalar_type(len(u))
    assert np.array_equal(u[R], metric)


def test_nan_radius_refused():
    sp = build_space("lattice_box", dim=1, side=16)
    for query in (sp.ball, sp.volume):
        with pytest.raises(SpaceError, match="NaN"):
            query(3, math.nan)


def two_paths():
    """Paths of 6 and 5 points, at infinite distance from each other."""
    a, b = np.arange(6.0), np.arange(5.0)
    metric = np.full((11, 11), np.inf)
    metric[:6, :6] = np.abs(a[:, None] - a)
    metric[6:, 6:] = np.abs(b[:, None] - b)
    edges = [(i, i + 1) for i in (0, 1, 2, 3, 4, 6, 7, 8, 9)]
    return metric, MetricMeasureSpace(metric, np.ones(11), edges=edges)


def gasket_3():
    sp = build_space("gasket", level=3)
    return sp.metric, sp


@pytest.mark.parametrize("build", [two_paths, gasket_3],
                         ids=["two_paths", "gasket_3"])
def test_beyond_and_radial_equal_the_metric_formulas(build):
    metric, sp = build()
    ix = np.ix_([0, 2, 7], [1, 3, 6, 9])
    for r in (-1.0, 0.0, 1.0, 1.5, 2.0, 4.0, 100.0, math.inf):
        assert np.array_equal(sp.beyond(r), metric > r)
        assert np.array_equal(sp.beyond(r, closed=True), metric >= r)
        assert np.array_equal(sp.beyond(r, 3), metric[3] > r)
        assert np.array_equal(sp.beyond(r, ix, closed=True), metric[ix] >= r)
    radii = np.array([[0.5], [1.0], [3.0], [math.inf]])
    assert np.array_equal(sp.beyond(radii, 7, closed=True), metric[7] >= radii)
    with np.errstate(divide="ignore"):
        f = sp.radial(np.reciprocal, 7.0)
        assert np.array_equal(f[sp.R], np.where(metric > 0, 1.0 / metric,
                                                7.0))
    met = np.zeros(len(sp.u), bool)
    met[1::2] = True
    g = sp.radial(np.sqrt, -1.0, met)
    assert np.array_equal(g[met], np.sqrt(sp.u[met]))
    assert (g[~met] == -1.0).all()


def test_two_components():
    metric, sp = two_paths()
    assert np.isinf(sp.u[-1]) and np.array_equal(sp.metric, metric)
    # the chain condition names the first disconnected pair
    rep = chain_check(sp)
    assert (rep.constant, rep.samples, rep.witness) == (math.inf, 0, (0, 6))
    # no jump crosses between the components
    psi = ScaleFunction.single_power(1.0)
    for kern in (JumpKernel.power_law(sp, alpha=1.0),
                 JumpKernel.stable_like(sp, psi)):
        assert not kern.matrix[:6, 6:].any()
        assert (kern.matrix[:6, :6][~np.eye(6, dtype=bool)] > 0.0).all()
    # a profile with its centres in one component meets no inf
    scales = ScaleTriple(ScaleFunction.single_power(2.0), psi)
    grid = _EnvelopeGrid(scales, sp, np.arange(1, 5), np.arange(6))
    t = 2.0
    Vc, pc = grid.local_profile(t)
    want = np.array([[math.exp(-min(scales.m(t, d), 700.0)) for d in row]
                     for row in metric[1:5, :6]]) / Vc[:, None]
    assert np.array_equal(pc, want)
    # the chained lower bound skips a disconnected space
    table = heat_kernel(assemble(sp, 1.0, None), [0.5, 1.0])
    rep = chain_lower_check(table, scales, sp)
    assert rep.verdict == "failed" and "disconnected" in rep.notes


class TestVolumeReport:
    def test_z1_doubling(self):
        sp = build_space("lattice_box", dim=1, side=101)
        vr = volume_report(sp, radii=[1.5, 2.5, 4.5, 8.5])
        # (4r+1)/(2r+1) maximised at the smallest radius
        assert vr.C_mu <= 3.0
        assert vr.rvd_passes and vr.c_mu > 1.0
        assert abs(vr.d1 - 1.0) < 0.1

    def test_gasket_exponent_sandwich(self):
        g = build_space("gasket", level=5)
        vr = volume_report(g, radii=[2.5, 4.5, 8.5])
        d = math.log(3) / math.log(2)
        assert vr.d1 >= d - 0.15 and vr.d2 <= d + 0.15
        assert vr.c_tilde <= 1.0 + 1e-9 <= vr.C_tilde + 1e-9

    def test_two_point_rvd_fails(self):
        sp = MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], np.ones(2),
                                edges=[(0, 1)])
        vr = volume_report(sp, radii=[0.5, 1.5])
        assert vr.c_mu <= 1.0
        assert not vr.rvd_passes

    def test_doubling_scale_consistency(self):
        radii = [1.5, 2.5, 4.5]
        v4 = volume_report(build_space("gasket", level=4), radii=radii)
        v5 = volume_report(build_space("gasket", level=5), radii=radii)
        rel = abs(v4.C_mu - v5.C_mu) / max(v4.C_mu, v5.C_mu)
        assert rel <= 0.2

    def test_empty_interior_error(self):
        sp = MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], np.ones(2),
                                boundary=[True, True], interior_margin=5.0)
        with pytest.raises(SpaceError):
            volume_report(sp, radii=[0.5])


class TestChain:
    def test_z1_constant(self):
        sp = build_space("lattice_box", dim=1, side=65)
        rep = chain_check(sp, samples=25)
        assert rep.witness is None
        # equal-spacing construction gives C <= 2 for n <= d
        assert rep.constant <= 2.0 + 1e-12

    def test_gasket_finite(self):
        g = build_space("gasket", level=4)
        rep = chain_check(g, samples=15)
        assert np.isfinite(rep.constant)
        assert rep.constant <= 4.0

    def test_disconnected_witness(self):
        inf = np.inf
        sp = MetricMeasureSpace(
            [[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]], np.ones(3)
        )
        rep = chain_check(sp, samples=3)
        assert rep.constant == np.inf
        assert rep.witness is not None
