"""The blocks primitive of the kernel engine and the packed global table:
bit-equal slices of the full kernels through ``kernel_blocks`` and through
the table's accessors, an in-place symmetrisation bit-equal to the
two-temporary one, and traced memory bounds for the consumers that stream
through them.  The set-up constructors (jump kernel, form, spectrum,
truncation) run in place; they are held bit-equal to in-test copies of the
whole-matrix formulas and to traced memory bounds of their own."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import eigh

import formlab.form as form_mod
from formlab.cli import (SuiteContext, _chk_cs, _chk_diag, _chk_kernel,
                         _chk_meyer, _chk_subordination, load_config,
                         validate_config)
from formlab.envelopes import fit_hk
from formlab.form import (FormError, JumpKernel, _abs_max, _global_kernel,
                          _symmetrise, assemble, build_jump, heat_kernel,
                          kernel_blocks, kernel_certificates, meyer_check)
from formlab.harnack import CylinderSpec, check_phi, check_regularity
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import _row_asymmetry, build_space
from conftest import traced, traced_peak, whole_jump
from test_energy_oracles import context


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


def z1(side, margin=None):
    sp = build_space("lattice_box", dim=1, side=side, margin=margin)
    return sp, assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=1.0))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 366])
def test_tiled_symmetrise_equals_two_temporaries(n):
    K = np.random.RandomState(n).standard_normal((n, n))
    want = 0.5 * (K + K.T)
    got = _symmetrise(K.copy())
    assert np.array_equal(got, want)


def test_kernel_blocks_equal_slices_of_full_kernels():
    sp, form = z1(side=65, margin=8)
    times = [0.25, 1.0, 3.0]
    n = sp.n
    rng = np.random.RandomState(3)
    blocks = [(np.arange(n), np.arange(n)),
              (np.array([4, 0, 7]), np.arange(0, n, 3)),
              (rng.choice(n, 9, replace=False), rng.choice(n, 5, replace=False)),
              (np.array([2]), np.array([2]))]
    got = kernel_blocks(form, times, blocks)
    full = [_global_kernel(form, t) for t in times]
    assert len(got) == len(blocks)
    for slabs, (rows, cols) in zip(got, blocks):
        assert len(slabs) == len(times)
        for slab, K in zip(slabs, full):
            assert np.array_equal(slab, K[np.ix_(rows, cols)])


def gasket_form():
    sp = build_space("gasket", level=5)
    return sp, assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=1.0))


def gasket_blocks(sp):
    # square blocks given as one array (rows is cols) and as two equal
    # arrays, unsorted rows, a repeated row and rectangular blocks
    rng = np.random.RandomState(11)
    ball = sp.ball(40, 3.0)
    mixed = rng.permutation(sp.n)[:50]
    repeated = np.array([9, 3, 9, 200])
    return [(ball, ball), (mixed, mixed), (mixed, mixed.copy()),
            (repeated, repeated), (mixed, np.arange(sp.n)),
            (np.arange(sp.n)[::-1], mixed[:7])]


def test_kernel_blocks_equal_slices_on_the_gasket():
    sp, form = gasket_form()
    assert sp.n == 366
    times = [0.5, 2.0, 9.0]
    blocks = gasket_blocks(sp)
    got = kernel_blocks(form, times, blocks)
    full = [_global_kernel(form, t) for t in times]
    for slabs, (rows, cols) in zip(got, blocks):
        for slab, K in zip(slabs, full):
            assert np.array_equal(slab, K[np.ix_(rows, cols)])


def unkept_form(name):
    """(form, times) of a bundled config with no check, so nothing kept."""
    ctx = SuiteContext(replace(load_config(name), checks=[]))
    return ctx.form, ctx.times


@pytest.mark.parametrize("name", ["z1_mini", "gasket_walk"])
def test_kept_blocks_equal_the_product_path(name):
    # at a kept time every block is gathered from the kept kernel, which
    # must give the bits the product path symmetrises block by block
    form, times = unkept_form(name)
    sp = form.space
    times = times[:3]
    rng = np.random.RandomState(5)
    interior = sp.interior()
    blocks = [(interior, interior),
              (rng.permutation(sp.n)[:40], rng.permutation(sp.n)[:25]),
              (np.arange(sp.n), interior[::3])]
    if name == "gasket_walk":
        assert sp.n == 366
        blocks += gasket_blocks(sp)
    want = kernel_blocks(form, times, blocks)
    assert form._kept == {}
    form.keep(times)
    got = kernel_blocks(form, times, blocks)
    assert sorted(form._kept) == sorted(map(float, times))
    for got_slabs, want_slabs in zip(got, want):
        for g, w in zip(got_slabs, want_slabs):
            assert g.flags.writeable
            assert np.array_equal(g, w)
            assert g.tobytes() == w.tobytes()


def test_table_kernels_are_read_only_and_shared(monkeypatch):
    # each kept kernel is one read-only packed upper triangle of
    # n(n+1)/2 doubles, the array every reader of its time reads
    ctx = SuiteContext(load_config("z1_mini"))
    n, t0 = ctx.space.n, ctx.times[0]
    K = ctx.table.upper(0)
    assert K.shape == (n * (n + 1) // 2,)
    with pytest.raises(ValueError):
        K[0] = 1.0
    with pytest.raises(ValueError):
        K *= 2.0
    assert all(k is ctx.form._kept[t]
               for k, t in zip(ctx.table.kernels, ctx.table.times))
    # every later reader of a table time gets the one kept array: the
    # table, the kernel check and kernel_blocks compute nothing more
    assert heat_kernel(ctx.form, [t0]).upper(0) is K
    computed = []
    engine = form_mod._global_kernel
    monkeypatch.setattr(form_mod, "_global_kernel",
                        lambda form, t: computed.append(t) or engine(form, t))
    kernel_certificates(ctx.form, [t0])
    kernel_blocks(ctx.form, [t0], [(np.arange(3), np.arange(n))])
    assert computed == [t0 / 2.0]
    assert ctx.form._kept[t0] is K
    # a time the form does not keep is packed for its caller alone
    half = heat_kernel(ctx.form, [t0 / 2.0]).upper(0)
    assert half.flags.writeable and t0 / 2.0 not in ctx.form._kept


def same_bytes(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("name", ["z1_mini", "gasket_walk",
                                  "weighted_z1_mini"])
def test_packed_accessors_equal_slices_of_the_full_kernel(name):
    # blocks, rows, diagonals, scattered pairs and max() read through the
    # table equal the slices of the whole symmetrised kernel bit for bit,
    # on a kept table (z1_mini, and the gasket at n = 366, where smaller
    # products lost bits) and a table packed per call on a non-uniform mu
    ctx = context(name)
    sp, n = ctx.space, ctx.space.n
    table = ctx.table
    assert bool(ctx.form._kept) == (name != "weighted_z1_mini")
    rng = np.random.RandomState(7)
    interior = sp.interior()
    mixed, other = rng.permutation(n)[:40], rng.permutation(n)[:25]
    xs, ys = rng.randint(0, n, 300), rng.randint(0, n, 300)
    reads = [
        (table.block(*np.ix_(interior, interior)),
         lambda K: K[np.ix_(interior, interior)]),
        (table.block(*np.ix_(mixed, other)), lambda K: K[np.ix_(mixed, other)]),
        (table.block(*np.ix_([9, 3, 9], [n - 1, 0])),
         lambda K: K[np.ix_([9, 3, 9], [n - 1, 0])]),
        (table.rows(mixed), lambda K: K[mixed]),
        (table.rows(np.arange(n)), lambda K: K),
        (table.diag(interior), lambda K: K[interior, interior]),
        (table.block(xs, ys), lambda K: K[xs, ys]),
    ]
    for i, t in enumerate(table.times):
        K = _global_kernel(ctx.form, t)
        for read, want in reads:
            assert same_bytes(read(i), want(K))
        assert table.max(i).hex() == float(K.max()).hex()
        # the kept triangle is read-only and the one array of its time
        P = table.upper(i)
        assert P.shape == (n * (n + 1) // 2,)
        if t in ctx.form._kept:
            assert P is ctx.form._kept[t] and not P.flags.writeable


def test_table_accessors_take_single_entries():
    # a 0-d row and column broadcast to one entry, as numpy's indexing
    # gives it: the numpy scalar of that slice of the whole kernel
    ctx = context("z1_mini")
    table, n = ctx.table, ctx.space.n
    for i, t in enumerate(table.times):
        K = _global_kernel(ctx.form, t)
        for got, want in ((table.block(2, 0)(i), K[2, 0]),
                          (table.block(0, 2)(i), K[0, 2]),
                          (table.diag(1)(i), K[1, 1]),
                          (table.block(n - 1, [0, n - 1])(i),
                           K[n - 1, [0, n - 1]])):
            assert type(got) is type(want)
            assert same_bytes(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("name", ["z1_mini", "halfspace_11",
                                  "weighted_z1_mini", "explicit"])
def test_jump_accessors_equal_slices_of_the_whole_matrix(name):
    # blocks, rows, scattered pairs and single entries read through the
    # kernel equal the slices of the whole J bit for bit: a power law, a
    # stable-like kernel with a random c field, a power law on a
    # non-uniform mu, and a whole matrix packed by the constructor
    if name == "halfspace_11":
        sp = build_space("halfspace_lattice", side=11)
        kern = JumpKernel.stable_like(sp, ScaleFunction.single_power(1.5),
                                      coeff=1.3, cmin=0.5, cmax=2.5)
    elif name == "explicit":
        J = np.random.RandomState(11).uniform(0.0, 2.0, size=(90, 90))
        kern = JumpKernel(J + J.T)
    else:
        kern = context(name).jump
    n = kern.n
    J = whole_jump(kern)
    rng = np.random.RandomState(7)
    mixed, other = rng.permutation(n)[:40], rng.permutation(n)[:25]
    xs, ys = rng.randint(0, n, 300), rng.randint(0, n, 300)
    reads = [
        (kern.block(*np.ix_(mixed, other)), J[np.ix_(mixed, other)]),
        (kern.block(*np.ix_([9, 3, 9], [n - 1, 0])),
         J[np.ix_([9, 3, 9], [n - 1, 0])]),
        (kern.rows(mixed), J[mixed]),
        (kern.rows(np.arange(n)), J),
        (kern.rows([]), J[[]]),
        (kern.rows(5), J[5]),
        (kern.block(xs, ys), J[xs, ys]),
        (kern.block(xs[0], ys[:7]), J[xs[0], ys[:7]]),
    ]
    for got, want in reads:
        assert same_bytes(got, want)
    for x, y in ((2, 0), (0, 2), (n - 1, n - 1), (xs[1], ys[1])):
        got = kern.block(x, y)
        assert type(got) is type(J[x, y])
        assert got.hex() == J[x, y].hex()


def test_kept_table_holds_packed_triangles_only():
    # at n = 256 with 8 table times the kept arrays are 8 upper triangles
    n = 256
    ctx = SuiteContext(validate_config({
        "name": "z1_256", "jump": {"kind": "power_law", "alpha": 1.0},
        "space": {"kind": "lattice_box", "dim": 1, "side": n, "margin": 32},
        "scales": {"phi_c": [{"break": 0, "coeff": 1, "exp": 2}],
                   "phi_j": [{"break": 0, "coeff": 1, "exp": 1}]},
        "grids": {"n_times": 8}, "checks": ["hk", "kernel", "meyer"]}))
    _chk_kernel(ctx)
    ctx.table
    _chk_meyer(ctx)
    assert len(ctx.form._kept) == 8
    assert sum(K.nbytes for K in ctx.form._kept.values()) == (
        8 * n * (n + 1) // 2 * 8)


def test_stable_like_constant_field_equals_full_field():
    sp = build_space("lattice_box", dim=1, side=40, margin=4)
    psi = ScaleFunction.single_power(1.0)
    got = JumpKernel.stable_like(sp, psi, coeff=1.7, cmin=0.3, cmax=0.3)
    n = sp.n
    off = ~np.eye(n, dtype=bool)
    d = sp.metric
    V = np.array([sp.volumes(x, d[x] + 1e-9) for x in range(n)])
    psid = np.ones_like(d)
    psid[off] = psi(d[off])
    want = np.zeros((n, n))
    want[off] = (1.7 * np.full((n, n), 0.3)[off]
                 / (np.sqrt(V[off] * V.T[off]) * psid[off]))
    assert np.array_equal(whole_jump(got), 0.5 * (want + want.T))


def old_stable_like(space, psi, coeff, cmin, cmax, seed=0x5EED):
    n = space.n
    d = space.metric
    off = ~np.eye(n, dtype=bool)
    V = np.array([space.volumes(x, d[x] + 1e-9) for x in range(n)])
    if cmin == cmax:
        c = cmin
    else:
        c_field = np.random.RandomState(seed).uniform(cmin, cmax, size=(n, n))
        iu = np.triu_indices(n, k=1)
        c_field[(iu[1], iu[0])] = c_field[iu]
        c = c_field[off]
    J = np.zeros((n, n))
    psid = np.ones_like(d)
    psid[off] = psi(d[off])
    J[off] = coeff * c / (np.sqrt(V[off] * V.T[off]) * psid[off])
    return J


def old_jump_matrix(J):
    asym = np.abs(J - J.T)
    if asym.max() > 1e-12 * max(float(np.abs(J).max()), 1e-300):
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        return (f"jump kernel not symmetric: worst witness ({i}, {j}) with "
                f"J[i,j]={J[i, j]!r}, J[j,i]={J[j, i]!r}")
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return J


def old_energy_matrix(space, w, J):
    n = space.n
    K = J * np.outer(space.mu, space.mu)
    A = -(2.0 * K)
    i, j = space.edges[:, 0], space.edges[:, 1]
    A[i, j] = A[j, i] = -(w + 2.0 * K[i, j])
    np.fill_diagonal(A, 0.0)
    A[np.diag_indices(n)] = -A.sum(axis=1)
    return A, float(np.abs(A - A.T).max())


@pytest.mark.parametrize("side,cmax", [(2, 2.5), (45, 1.0), (45, 2.5),
                                       (300, 2.5)])
def test_setup_constructors_equal_whole_matrix_formulas(side, cmax):
    # 300 points span several row blocks and mirror tiles
    sp = build_space("lattice_box", dim=1, side=side, margin=0)
    psi = ScaleFunction.single_power(1.5)
    kern = JumpKernel.stable_like(sp, psi, coeff=1.3, cmin=0.5, cmax=cmax)
    J = old_stable_like(sp, psi, 1.3, 0.5, cmax)
    assert np.array_equal(whole_jump(kern), old_jump_matrix(J))
    form = assemble(sp, 0.7, kern)
    A, sym_err = old_energy_matrix(sp, np.full(len(sp.edges), 0.7),
                                   whole_jump(kern))
    assert np.array_equal(form.A, A)
    # the defect the form's mu-symmetry check reads
    assert float(_row_asymmetry(form.A).max()) == sym_err
    lam, Q = eigh(A / np.outer(form._sqmu, form._sqmu))
    got_lam, got_B = form.spectral()
    assert np.array_equal(got_lam, np.maximum(lam, 0.0))
    assert np.array_equal(got_B, Q / form._sqmu[:, None])


@pytest.mark.parametrize("kind,params,cmax", [
    ("lattice_box", {"dim": 2, "side": 13}, 2.5),
    ("lattice_box", {"dim": 2, "side": 9, "metric": "l2"}, 0.5),
    ("halfspace_lattice", {"side": 11}, 2.5),
    ("gasket", {"level": 4}, 0.5),
    ("gasket", {"level": 3}, 2.5)])
def test_stable_like_equals_whole_matrix_formula(kind, params, cmax):
    # many pairs at each distance, a two-piece psi, and the c field
    sp = build_space(kind, **params)
    psi = ScaleFunction([(0.0, 1.0, 1.5), (4.0, 4.0, 0.5)])
    kern = JumpKernel.stable_like(sp, psi, coeff=1.3, cmin=0.5, cmax=cmax)
    J = old_stable_like(sp, psi, 1.3, 0.5, cmax)
    assert np.array_equal(whole_jump(kern), old_jump_matrix(J))


def old_power_law(space, alpha, coeff):
    d = space.metric
    off = ~np.eye(space.n, dtype=bool)
    J = np.zeros_like(d)
    J[off] = coeff * d[off] ** (-(1.0 + alpha))
    return J


def old_two_regime(space, alpha, beta, regime_break, coeff):
    d = space.metric
    off = ~np.eye(space.n, dtype=bool)
    J = np.zeros_like(d)
    small = off & (d <= regime_break)
    large = off & (d > regime_break)
    J[small] = coeff * d[small] ** (-(1.0 + alpha))
    J[large] = (coeff * regime_break ** (beta - alpha)
                * d[large] ** (-(1.0 + beta)))
    return J


@pytest.mark.parametrize("kind,params", [
    ("lattice_box", {"dim": 1, "side": 300}),
    ("lattice_box", {"dim": 2, "side": 13}),
    ("lattice_box", {"dim": 2, "side": 9, "metric": "l2"}),
    ("gasket", {"level": 4})])
def test_power_laws_equal_whole_matrix_formulas(kind, params):
    # f taken on the distinct distances and gathered by rank, against the
    # pow over every pair
    sp = build_space(kind, **params)
    for alpha, coeff in ((1.0, 1.0), (0.5, 2.5)):
        got = whole_jump(JumpKernel.power_law(sp, alpha, coeff))
        assert np.array_equal(got, old_power_law(sp, alpha, coeff))
    for brk in (1.0, 2.5, 4.0):
        got = whole_jump(JumpKernel.two_regime(sp, 0.5, 1.5, brk, 1.3))
        assert np.array_equal(got, old_two_regime(sp, 0.5, 1.5, brk, 1.3))


def test_jump_kernel_symmetrises_only_an_asymmetric_input():
    # an exactly symmetric J is packed as it is, in an array of its own;
    # one within the tolerance is symmetrised
    rng = np.random.RandomState(5)
    J = rng.uniform(0.5, 1.0, size=(150, 150))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    kern = JumpKernel(J)
    assert np.array_equal(whole_jump(kern), J)
    assert not np.shares_memory(kern.packed, J)
    J[3, 140] *= 1.0 + 1e-14
    kern = JumpKernel(J)
    assert np.array_equal(whole_jump(kern), old_jump_matrix(J))
    assert whole_jump(kern)[3, 140] == whole_jump(kern)[140, 3] != J[3, 140]


def test_asymmetric_jump_names_the_first_worst_pair():
    rng = np.random.RandomState(2)
    J = rng.uniform(0.5, 1.0, size=(70, 70))
    J = 0.5 * (J + J.T)
    # equal worst defects at (3, 60), (60, 3), (40, 9) and (9, 40):
    # row-major order puts (3, 60) first
    for i, j in ((40, 9), (3, 60)):
        J[i, j] += 0.25
    with pytest.raises(FormError) as err:
        JumpKernel(J.copy())
    assert str(err.value) == old_jump_matrix(J)
    assert "(3, 60)" in str(err.value)
    neg = np.ones((40, 40))
    neg[39, 38] = neg[38, 39] = -1.0
    with pytest.raises(FormError, match="nonnegative"):
        JumpKernel(neg)
    # a negative entry below the diagonal, within the symmetry tolerance
    # of its mirror, is refused before the mean of the two would hide it
    neg = np.ones((40, 40))
    neg[38, 39], neg[39, 38] = 1e-300, -1e-300
    with pytest.raises(FormError, match="nonnegative"):
        JumpKernel(neg)
    # a builder's packed entries are checked as well
    sp = build_space("lattice_box", dim=1, side=20, margin=0)
    for build in (lambda: JumpKernel.power_law(sp, 1.0, coeff=-1.0),
                  lambda: JumpKernel.two_regime(sp, 0.5, 1.5, 4.0, -1.0),
                  lambda: JumpKernel.stable_like(
                      sp, ScaleFunction.single_power(1.0), coeff=-1.0)):
        with pytest.raises(FormError, match="nonnegative"):
            build()


def test_jump_kernels_hold_their_packed_triangle_only():
    # every builder and the constructor keep one read-only array of
    # exactly n(n+1)/2 doubles that owns its data, and nothing else
    sp = build_space("lattice_box", dim=1, side=100, margin=0)
    n = sp.n
    psi = ScaleFunction.single_power(1.0)
    power = JumpKernel.power_law(sp, 1.0)
    for kern in (JumpKernel.stable_like(sp, psi, cmin=0.5, cmax=2.0), power,
                 JumpKernel.two_regime(sp, 0.5, 1.5, 4.0),
                 JumpKernel(whole_jump(power))):
        P = kern.packed
        assert sorted(vars(kern)) == ["n", "packed"] and kern.n == n
        assert P.dtype == np.float64 and P.shape == (n * (n + 1) // 2,)
        assert P.nbytes == n * (n + 1) // 2 * 8 and P.base is None
        with pytest.raises(ValueError):
            P[0] = 1.0


# -- traced memory -------------------------------------------------------------


def test_kernel_blocks_hold_one_product_at_a_time():
    # the product and its GEMM operand are the only n x n arrays: a
    # symmetrised whole kernel or the previous time's product adds an n^2
    sp, form = gasket_form()
    form.spectral()
    n = sp.n
    times = [0.5, 2.0, 9.0]
    blocks = gasket_blocks(sp)
    slabs = sum(len(r) * len(c) for r, c in blocks) * len(times) * 8
    peak = traced_peak(lambda: kernel_blocks(form, times, blocks))
    assert peak <= 2.2 * n * n * 8 + slabs


def test_check_phi_holds_one_transient_kernel():
    # 3 equal-R cylinders share 10 window times; keeping their 10 kernels
    # alive would need more than 10 n^2 doubles
    n = 256
    sp, form = z1(side=n, margin=16)
    form.spectral()
    cyls = [CylinderSpec(x0=x, R=2.0) for x in (n // 4, n // 2, 3 * n // 4)]
    peak = traced_peak(lambda: check_phi(form, alpha1_triple(), cyls,
                                         n_window_times=5))
    assert peak <= 4 * n * n * 8


def test_check_regularity_reads_columns_not_kernels():
    # one product and its GEMM operand (2 n^2) and the n x 8 columns of
    # each centre measure about 2.3 n^2 doubles; the 4 window kernels of a
    # whole table are 4 n^2.  The pair lists grow with the core ball, so
    # the radius is small
    n = 256
    sp, form = z1(side=n, margin=64)
    form.spectral()
    reps = []
    peak = traced_peak(lambda: reps.append(
        check_regularity(form, alpha1_triple(), radii=[8.0])))
    assert len(reps[0].rows) == 2
    assert peak <= 3 * n * n * 8


def test_kernel_certificates_drop_each_temporary():
    # a half-time kernel, its mu-scaled copy and their product, then the
    # product beside the kernel, whose masses are summed a block of rows
    # at a time, measure 3.00 (3.13 with K * mu whole): keeping the half
    # kernel, the last product, K or |K - K^T| alive into the next step or
    # time adds an n^2
    n = 256
    sp, form = z1(side=n, margin=16)
    form.spectral()
    peak = traced_peak(lambda: kernel_certificates(form, [0.5, 1.0, 2.0]))
    assert peak <= 3.5 * n * n * 8


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


@pytest.mark.parametrize("n", [1, 5, 127, 129, 300])
def test_certificate_maxima_equal_whole_matrix_ones(n):
    # kernel_certificates reads symmetry and CK through these two: on a
    # random, a nearly symmetric and a NaN-holding matrix they give
    # np.abs(M - M.T).max() and np.abs(M).max() bit for bit, NaN for NaN
    M = np.random.RandomState(n).standard_normal((n, n))
    near = 0.5 * (M + M.T)
    near[n // 2, n // 3] += 1e-13
    holed = M.copy()
    holed[n - 1, n // 4] = np.nan
    for A in (M, near, holed):
        with np.errstate(invalid="ignore"):
            got = (float(_row_asymmetry(A).max()), _abs_max(A))
            want = (np.abs(A - A.T).max(), np.abs(A).max())
        assert all(map(same_bits, got, want)), (got, want)
    assert math.isnan(_abs_max(holed)) and math.isnan(_row_asymmetry(holed).max())


def test_check_cs_fills_two_product_arrays_per_family():
    # traced peak above base in n^2 doubles on z1_alpha1 (n = 256), whose
    # largest family has |B3| = 127 and |B2| = 95: dphi^2, J and mu x mu
    # on B3 x X (3 x 0.50), J and mu x mu on B2 x B3 (2 x 0.18), the two
    # product arrays the functions share (0.50 + 0.18), the truncation
    # masks (0.17) and the rows measure 3.12.  A fresh array per product
    # and the distances beside them measured 4.55
    ctx = SuiteContext(load_config("z1_alpha1"))
    n = ctx.space.n
    ctx.family
    peak = traced_peak(lambda: _chk_cs(ctx))
    assert peak <= 3.5 * n * n * 8


@pytest.fixture(scope="module")
def alpha1():
    """z1_alpha1 (n = 256, 192 interior points) as a check after
    ``kernel`` finds it: its packed table kept and filled, its spectrum
    built.  The kept triangles lie below each traced base."""
    ctx = SuiteContext(load_config("z1_alpha1"))
    ctx.table
    ctx.form.spectral()
    return ctx


def test_fit_hk_builds_each_sandwich_in_place(alpha1):
    # traced peak above base in interior^2 doubles on z1_alpha1, reading
    # the packed table: the pair ranks (0.25), the int32 index map of the
    # interior block, built once for every time (0.5), the jump
    # denominator, K gathered through it, the jump profile and one
    # dilation's sandwich P, which then holds K / P and is masked in place
    # by the extreme search (4), the masks (3 x 0.125) and the thinned
    # ratios of the six fits (0.3) measure 5.67; the excluded triples are
    # counted without an inverse mask.  The ratio rows of RATIO_ROWS
    # (2000) entries (1.6) are built after the sweep's arrays are gone.
    # With a whole kept kernel and no map it measured 5.26; the float
    # distances, the masked copy, the previous dilation's sandwich and the
    # rows stacked on the last time's arrays measured 8.57
    m = len(alpha1.space.interior())
    peak = traced_peak(lambda: fit_hk(alpha1.table, alpha1.scales,
                                      alpha1.space, mode="HK"))
    assert peak <= 5.75 * m * m * 8


def test_fit_hk_minus_builds_its_profile_in_the_jump_profile(alpha1):
    # traced peak above base in interior^2 doubles on z1_alpha1, reading
    # the packed table: the pair ranks (0.25), the index map of the
    # interior block (0.5), the jump denominator, K and the jump profile,
    # which then holds the indicator profile and K / L (3), and the masks
    # measure 4.16 (3.88 from a whole kept kernel).  A fresh indicator
    # profile beside the jump profile, the float distances and the extreme
    # search's masked copy measured 7.10
    m = len(alpha1.space.interior())
    peak = traced_peak(lambda: fit_hk(alpha1.table, alpha1.scales,
                                      alpha1.space, mode="HK_minus"))
    assert peak <= 4.5 * m * m * 8


def test_diag_checks_drop_the_nl_sweep_before_the_ndl_products(alpha1):
    # traced peak above base in n^2 doubles on z1_alpha1, reading the
    # packed table: an NDL product and its GEMM operand (2) beside the NDL
    # blocks and Dirichlet kernels (0.3) measure 2.33; the NL sweep's K,
    # its index map, mask and pair ranks are gone by then.  The float
    # distances, K[near], and the last K and mask alive through the NDL
    # products measured 3.67
    n = alpha1.space.n
    peak = traced_peak(lambda: _chk_diag(alpha1))
    assert peak <= 2.75 * n * n * 8


def test_meyer_gathers_kept_blocks_after_each_product(alpha1):
    # traced peak above base in n^2 doubles on z1_alpha1, every time kept:
    # the truncated spectrum's B (1) beside one product and its GEMM
    # operand (2), then the q block with its mirrored gather (0.4),
    # measure 3.40; the p block, gathered from the kept triangle through
    # an index map once the product is gone, raises no peak.  The three interior blocks of p
    # held across every rho (3 x 0.56) measured 5.09
    n = alpha1.space.n
    assert set(alpha1.times[:3]) <= alpha1.form._keep
    peak = traced_peak(lambda: _chk_meyer(alpha1))
    assert peak <= 3.75 * n * n * 8


def test_subordination_drops_the_intensity(alpha1):
    # traced peak above base in n^2 doubles on z1_alpha1: the intensity
    # and its GEMM operand (2), the intensity dropped once its pair
    # values are read, then the identity case's kernel and its GEMM
    # operand (2), packed in its own buffer, whose |ident - base| against
    # the kept triangle is taken there, measure 2.03; no unpacked copy of
    # the base is formed.  The intensity alive beside the
    # identity case and ident - base with its absolute value measured 4.02
    n = alpha1.space.n
    assert alpha1.times[0] in alpha1.form._keep
    peak = traced_peak(lambda: _chk_subordination(alpha1))
    assert peak <= 2.5 * n * n * 8


def test_kernel_check_peak_does_not_grow_with_n_times():
    # the kernel check certifies one time at a time, so its traced peak at
    # 24 table times is that at 4; a 24-time table alone is 24 n^2 doubles
    n = 256
    peaks = []
    for n_times in (4, 24):
        ctx = SuiteContext(validate_config({
            "name": "z1_256", "jump": {"kind": "power_law", "alpha": 1.0},
            "space": {"kind": "lattice_box", "dim": 1, "side": n,
                      "margin": 16},
            "scales": {"phi_c": [{"break": 0, "coeff": 1, "exp": 2}],
                       "phi_j": [{"break": 0, "coeff": 1, "exp": 1}]},
            "grids": {"n_times": n_times}}))
        assert len(ctx.times) == n_times
        ctx.form.spectral()
        peaks.append(traced_peak(lambda: _chk_kernel(ctx)))
    assert abs(peaks[1] - peaks[0]) <= 0.5 * n * n * 8


def test_setup_constructors_hold_no_whole_matrix_temporaries():
    # traced peak above base in n^2 doubles at n = 256; the whole-matrix
    # formulas measure 8.1 (stable_like), 2.1 (jump kernel), 4.0 (form),
    # 3.2 (spectrum) and 5.0 (truncation).  A truncated form reassembled
    # from a cut copy of J measures 2.39; the truncated generator cut in
    # place from one copy of A, beside the cut mask, 1.13.  stable_like
    # holds the ball table and writes its packed J: 1.26 (1.39 with a c
    # field); a whole J and the kernel's copy of it measured 3.04, and
    # 4.15 with its n x n volume and psi(d) temporaries.  The constructor
    # packs an exactly symmetric J (0.53) or a symmetrised copy of it
    # (1.76); the form fills A from the packed rows and mirrors it by
    # tiles (1.56).  A 2-d lattice space holds its metric: 1.42, and 4.0
    # with the n x n x dim integer differences.
    n = 256
    sp = build_space("lattice_box", dim=1, side=n, margin=16)
    psi = ScaleFunction.single_power(1.0)
    unit = n * n * 8
    assert traced_peak(lambda: build_space("lattice_box", dim=2,
                                           side=16)) <= 1.75 * unit
    assert traced_peak(lambda: JumpKernel.stable_like(sp, psi)) <= 3.25 * unit
    kern = JumpKernel.stable_like(sp, psi)
    J = whole_jump(kern)
    assert traced_peak(lambda: JumpKernel(J)) <= 2.0 * unit
    assert traced_peak(lambda: assemble(sp, 1.0, kern)) <= 2.0 * unit
    form = assemble(sp, 1.0, kern)
    assert traced_peak(form.spectral) <= 2.5 * unit
    assert traced_peak(lambda: form.truncated(8.0)) <= 1.5 * unit


def test_assembled_form_keeps_no_whole_jump():
    # z1_alpha1 (n = 256): the kernel and the form it is assembled into
    # keep A (n^2 doubles) and the packed J (n(n+1)/2), 1.50 n^2 with the
    # edge and mass vectors; a whole J beside A is 2.0
    ctx = SuiteContext(load_config("z1_alpha1"))
    sp, cfg, n = ctx.space, ctx.cfg, ctx.space.n
    form, kept, _ = traced(lambda: assemble(
        sp, cfg.local_weight,
        build_jump(cfg.jump, sp, ctx.scales.phi_j, cfg.seed)))
    assert form.jump.packed.nbytes == n * (n + 1) // 2 * 8
    assert kept <= 1.55 * n * n * 8


def test_meyer_check_holds_one_transient_kernel():
    # traced peak above base in n^2 doubles at n = 256: the interior blocks
    # of p (3 x 0.25) beside one product's B, its scaled copy and the
    # product measure 3.78; A^(rho) is gone before the eigh of S.  A
    # truncated form's J and A beside the two n x n arrays of its eigh
    # measured 4.94, A^(rho) held through the eigh 3.94, and a truncated
    # form held through the products, with its three p - q blocks, 6.3
    n = 256
    sp, form = z1(side=n, margin=64)
    form.spectral()
    times = [0.5, 1.0, 2.0]
    peak = traced_peak(lambda: meyer_check(form, alpha1_triple(),
                                           [4.0, 8.0, 16.0], times))
    assert peak <= 4.25 * n * n * 8
