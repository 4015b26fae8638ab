"""The form's energy primitives (``local_champ``, ``local_laplacian``,
``jump_laplacian``, ``sym_generator(idx)``, ``truncated``) against in-test
copies of the hand-written code they replaced: the dense conductance matrix
W, the ``poincare`` edge loop and restricted jump block, the per-call
truncations and Gamma_c copies, the
full-then-sliced symmetrised generator, and the truncated form assembled
anew from a cut copy of J.  On the bundled configs outputs must
be equal, not close; on random small spaces the energy identities must hold
to rounding."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh

from formlab.cli import SuiteContext, _gcap_families, load_config
from formlab.form import JumpKernel, assemble, build_jump
from formlab.functionals import (ball_family, check_cs, function_family,
                                 poincare)
from formlab.space import MetricMeasureSpace
from conftest import whole_jump


BUNDLED = ("z1_alpha1", "phi_counterexample", "z1_mini",
           "gasket_subordination", "gasket_walk", "z2_alpha1", "halfspace")


@pytest.fixture(scope="module", params=["z1_mini", "gasket_walk"])
def ctx(request):
    return SuiteContext(load_config(request.param))


def context(name):
    """The SuiteContext of a bundled config; ``weighted_<config>`` moves it
    to the same points, edges and boundary with mu(i) = 1 + 0.5 sin^2(i).
    Every bundled measure is uniform, and a product by mu = 1 is exact in
    any order; on this measure it is not, so only such a space shows that
    a sweep keeps its products' order."""
    base = name.removeprefix("weighted_")
    if base == name:
        return SuiteContext(load_config(name))
    ctx = SuiteContext(replace(load_config(base), checks=[]))
    sp, cfg = ctx.space, ctx.cfg
    mu = 1.0 + 0.5 * np.sin(np.arange(sp.n)) ** 2
    ctx.space = MetricMeasureSpace(sp.metric, mu, edges=sp.edges,
                                   coords=sp.coords, boundary=sp.boundary,
                                   interior_margin=sp.interior_margin)
    ctx.jump = build_jump(cfg.jump, ctx.space, ctx.scales.phi_j, cfg.seed)
    ctx.form = assemble(ctx.space, cfg.local_weight, ctx.jump)
    return ctx


# -- the replaced code ----------------------------------------------------------


def old_W(form):
    n, e = form.n, form.space.edges
    W = np.zeros((n, n))
    if len(e):
        W[e[:, 0], e[:, 1]] = form.w_edges
        W[e[:, 1], e[:, 0]] = form.w_edges
    return W


def old_A(form):
    n = form.n
    K = np.zeros((n, n))
    if form.jump is not None:
        K = whole_jump(form) * np.outer(form.mu, form.mu)
    A = -(old_W(form) + 2.0 * K)
    np.fill_diagonal(A, 0.0)
    A[np.diag_indices(n)] = -A.sum(axis=1)
    return A


def old_loop_laplacian(form, Bk):
    m = len(Bk)
    pos = {int(p): i for i, p in enumerate(Bk)}
    D = np.zeros((m, m))
    e = form.space.edges
    if len(e):
        inBk = np.isin(e, Bk).all(axis=1)
        for (a, b), w in zip(e[inBk], form.w_edges[inBk]):
            ia, ib = pos[int(a)], pos[int(b)]
            D[ia, ia] += w
            D[ib, ib] += w
            D[ia, ib] -= w
            D[ib, ia] -= w
    return D


def old_jump_laplacian(form, Bk):
    """``poincare``'s hand-built restricted jump Laplacian."""
    space = form.space
    m = len(Bk)
    K = whole_jump(form)[np.ix_(Bk, Bk)] * np.outer(space.mu[Bk], space.mu[Bk])
    Kl = -2.0 * K
    Kl[np.diag_indices(m)] = 2.0 * K.sum(axis=1)
    return Kl


def old_poincare(form, scales, x0, r, kappa=1.0):
    space = form.space
    B = space.ball(x0, r)
    Bk = space.ball(x0, kappa * r)
    m = len(Bk)
    if m < 2:
        return 0.0, None
    pos = {int(p): i for i, p in enumerate(Bk)}
    sel = np.array([pos[int(p)] for p in B])
    muB = space.mu[B]
    N = np.zeros((m, m))
    N[np.ix_(sel, sel)] = np.diag(muB) - np.outer(muB, muB) / muB.sum()
    D = old_loop_laplacian(form, Bk)
    if form.jump is not None:
        K = whole_jump(form)[np.ix_(Bk, Bk)] * np.outer(space.mu[Bk], space.mu[Bk])
        Kl = -2.0 * K
        Kl[np.diag_indices(m)] = 2.0 * K.sum(axis=1)
        D += Kl
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


def old_function_family(form, count_random=4, n_eigs=8, seed=0x5EED):
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
        fns.append(np.maximum(0.0, 1.0 - space.metric[x] / r_tent))
    W_lap = -old_W(form)
    np.fill_diagonal(W_lap, 0.0)
    W_lap[np.diag_indices(n)] = -W_lap.sum(axis=1)
    sq = np.sqrt(space.mu)
    S_loc = W_lap / np.outer(sq, sq)
    k = min(n_eigs + 1, n)
    _, vecs = eigh(S_loc, subset_by_index=[0, k - 1])
    for j in range(1, k):
        fns.append(vecs[:, j] / sq)
    for _ in range(count_random):
        fns.append(rng.standard_normal(n))
    return fns


def old_gamma_c(form, f):
    gamma_c = np.zeros(form.n)
    e = form.space.edges
    if len(e):
        df2 = (f[e[:, 0]] - f[e[:, 1]]) ** 2 * form.w_edges
        np.add.at(gamma_c, e[:, 0], 0.5 * df2)
        np.add.at(gamma_c, e[:, 1], 0.5 * df2)
    return gamma_c


def truncated_jump(form, rho):
    """J with the jumps of range > rho removed, the jump kernel of the
    rho-truncated form; None without a jump part."""
    if form.jump is None:
        return None
    Jr = whole_jump(form).copy()
    Jr[form.space.metric > rho] = 0.0
    return Jr


def truncated_form(form, rho):
    """The rho-truncated form assembled anew, a second validated form with
    the jump kernel ``truncated_jump``."""
    Jr = truncated_jump(form, rho)
    return assemble(form.space, form.w_edges,
                    None if Jr is None else JumpKernel(Jr))


def jump_champ(form, f, rho=None):
    """The jump energy measure Gamma_j(f, f) as a density against mu,
    sum_y (f(x) - f(y))^2 J(x, y) mu(y), with J cut at range rho if given;
    zero without a jump part."""
    if form.jump is None:
        return np.zeros(form.n)
    J = whole_jump(form) if rho is None else truncated_jump(form, rho)
    diff2 = (f[:, None] - f[None, :]) ** 2
    return (diff2 * J * form.mu[None, :]).sum(axis=1)


def old_cs_terms(form, x0, R, r, C0, f, rho=None):
    space = form.space
    d0 = space.metric[x0]
    B2 = space.ball(x0, R + r)
    B3 = space.ball(x0, R + (1.0 + C0) * r)
    ramp = np.clip((R + r - d0) / r, 0.0, 1.0)
    ramp[d0 >= R + r] = 0.0
    f = np.asarray(f, dtype=float)
    Jm = None
    if form.jump is not None:
        Jm = whole_jump(form)
        if rho is not None:
            Jm = Jm.copy()
            Jm[space.metric > rho] = 0.0
    gamma_c = old_gamma_c(form, ramp)
    lhs = float(np.sum(f[B3] ** 2 * gamma_c[B3]))
    if Jm is not None:
        dphi2 = (ramp[B3][:, None] - ramp[None, :]) ** 2
        lhs += float(np.sum(
            f[B3][:, None] ** 2 * dphi2 * Jm[B3]
            * np.outer(space.mu[B3], space.mu)
        ))
    gcf = old_gamma_c(form, f)
    rt1 = float(np.sum(ramp[B2] ** 2 * gcf[B2]))
    if Jm is not None:
        dfb = (f[B2][:, None] - f[B3][None, :]) ** 2
        rt1 += float(np.sum(
            ramp[B2][:, None] ** 2 * dfb * Jm[np.ix_(B2, B3)]
            * np.outer(space.mu[B2], space.mu[B3])
        ))
    mass = float(np.sum(f[B3] ** 2 * space.mu[B3]))
    return lhs, rt1, mass


def old_cs_constants(form, scales, families, test_fns, rho_grid, C0=1.0):
    fitted = {0.0: 0.0, 1.0: 0.0}
    for x0, R, r in families:
        phi_r = scales.phi(r)
        for f in test_fns:
            lhs, rt1, mass = old_cs_terms(form, x0, R, r, C0, f)
            if mass <= 0.0:
                continue
            for c1 in (0.0, 1.0):
                fitted[c1] = max(fitted[c1],
                                 max(0.0, (lhs - c1 * rt1) * phi_r / mass))
    out = {"C0": C0, "C1": 1.0, "C2": fitted[1.0], "C2(C1=0)": fitted[0.0]}
    for rho in rho_grid:
        worst = 0.0
        for x0, R, r in families:
            phi_rr = scales.phi(min(r, rho))
            for f in test_fns:
                lhs, rt1, mass = old_cs_terms(form, x0, R, r, C0, f, rho=rho)
                if mass > 0.0:
                    worst = max(worst, (lhs - rt1) * phi_rr / mass)
        out[f"C2(rho={rho:g})"] = max(0.0, worst)
    return out


def per_rho_cs_terms(form, x0, R, r, C0, fns, Jm):
    """``_cs_terms`` as it was: every truncation radius recomputes the
    local terms and both jump products from a truncated copy of J."""
    space = form.space
    mu = space.mu
    d0 = space.metric[x0]
    B2 = space.ball(x0, R + r)
    B3 = space.ball(x0, R + (1.0 + C0) * r)
    ramp = np.clip((R + r - d0) / r, 0.0, 1.0)
    ramp[d0 >= R + r] = 0.0
    gamma_ramp = form.local_champ(ramp)[B3]
    ramp2 = ramp[B2] ** 2
    if Jm is not None:
        dphi2 = (ramp[B3][:, None] - ramp[None, :]) ** 2
        J3, mu3 = Jm[B3], np.outer(mu[B3], mu)
        J23, mu23 = Jm[np.ix_(B2, B3)], np.outer(mu[B2], mu[B3])
    out = []
    for f in fns:
        f = np.asarray(f, dtype=float)
        fsq = f[B3] ** 2
        lhs = float(np.sum(fsq * gamma_ramp))
        rt1 = float(np.sum(ramp2 * form.local_champ(f)[B2]))
        if Jm is not None:
            lhs += float(np.sum(fsq[:, None] * dphi2 * J3 * mu3))
            dfb = (f[B2][:, None] - f[B3][None, :]) ** 2
            rt1 += float(np.sum(ramp2[:, None] * dfb * J23 * mu23))
        out.append((lhs, rt1, float(np.sum(fsq * mu[B3]))))
    return out


def per_rho_check_cs(form, scales, families, test_fns, C0, rho_grid):
    """(constants, rows, witness) of ``check_cs`` as it was, one pass of
    ``per_rho_cs_terms`` per truncation radius."""
    rows = []
    fitted = {0.0: 0.0, 1.0: 0.0}
    witness = {}
    Jm = None if form.jump is None else whole_jump(form)
    for x0, R, r in families:
        phi_r = scales.phi(r)
        terms = per_rho_cs_terms(form, x0, R, r, C0, test_fns, Jm)
        for fi, (lhs, rt1, mass) in enumerate(terms):
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
    trunc = {}
    for rho in rho_grid:
        Jr = truncated_jump(form, rho)
        worst = 0.0
        for x0, R, r in families:
            phi_rr = scales.phi(min(r, rho))
            for lhs, rt1, mass in per_rho_cs_terms(form, x0, R, r, C0,
                                                   test_fns, Jr):
                if mass > 0.0:
                    worst = max(worst, (lhs - rt1) * phi_rr / mass)
        trunc[f"C2(rho={rho:g})"] = max(0.0, worst)
    constants = {"C0": C0, "C1": 1.0, "C2": fitted[1.0],
                 "C2(C1=0)": fitted[0.0], **trunc}
    return constants, rows, witness


def old_local_energy_within(form, f, idx):
    mask = np.zeros(form.n, dtype=bool)
    mask[idx] = True
    e = form.space.edges
    if not len(e):
        return 0.0
    sel = mask[e[:, 0]] & mask[e[:, 1]]
    df = np.asarray(f)[e[sel, 0]] - np.asarray(f)[e[sel, 1]]
    return float(np.sum(form.w_edges[sel] * df ** 2))


# -- bit equality on the bundled configs ---------------------------------------


def test_energy_matrix_from_edge_list(ctx):
    assert np.array_equal(ctx.form.A, old_A(ctx.form))


def test_local_laplacian_keeps_edge_loop_order(ctx):
    form = ctx.form
    for x0, r in ball_family(form.space, ctx.radii, reach_factor=2.0):
        Bk = form.space.ball(x0, 2.0 * r)
        assert np.array_equal(form.local_laplacian(Bk),
                              old_loop_laplacian(form, Bk))


@pytest.mark.parametrize("name", ["z1_mini", "weighted_z1_mini", "halfspace",
                                  "gasket_walk"])
def test_jump_laplacian_equals_hand_built_block(name):
    # gasket_walk has no jump part, and its block is zero
    form = context(name).form
    for x0, r in ball_family(form.space, [4.0, 8.0], reach_factor=2.0):
        Bk = form.space.ball(x0, 2.0 * r)
        want = (np.zeros((len(Bk), len(Bk))) if form.jump is None
                else old_jump_laplacian(form, Bk))
        assert form.jump_laplacian(Bk).tobytes() == want.tobytes()


def test_poincare(ctx):
    form = ctx.form
    for kappa in (1.0, 2.0):
        for x0, r in ball_family(form.space, ctx.radii, reach_factor=kappa):
            assert (poincare(form, ctx.scales, x0, r, kappa)
                    == old_poincare(form, ctx.scales, x0, r, kappa))


def test_function_family(ctx):
    new = function_family(ctx.form, seed=ctx.cfg.seed)
    old = old_function_family(ctx.form, seed=ctx.cfg.seed)
    assert len(new) == len(old)
    assert all(np.array_equal(a, b) for a, b in zip(new, old))


def test_local_champ(ctx):
    form = ctx.form
    for f in function_family(form, seed=ctx.cfg.seed):
        assert np.array_equal(form.local_champ(f), old_gamma_c(form, f))


def test_check_cs_constants(ctx):
    form = ctx.form
    fns = function_family(form, seed=ctx.cfg.seed)
    fams = _gcap_families(ctx)
    rho_grid = [max(ctx.radii), 2.0 * max(ctx.radii)]
    rep = check_cs(form, ctx.scales, fams, fns, rho_grid=rho_grid)
    assert rep.constants == old_cs_constants(form, ctx.scales, fams, fns,
                                             rho_grid)


@pytest.mark.parametrize("name", ["z1_mini", "z1_alpha1", "weighted_z1_mini"])
def test_check_cs_shares_jump_products_across_radii(name):
    # an unsorted grid with a repeated radius, with and without jumps; the
    # products formed once and cut radius by radius give the same bits
    ctx = context(name)
    fns = function_family(ctx.form, seed=ctx.cfg.seed)
    fams = _gcap_families(ctx)
    top = max(ctx.radii)
    rho_grid = [top, 0.5 * top, 3.0, 2.0 * top, top, 1.0]
    no_jump = assemble(ctx.space, ctx.cfg.local_weight, None)
    for form in (ctx.form, no_jump):
        rep = check_cs(form, ctx.scales, fams, fns, C0=1.5,
                       rho_grid=rho_grid)
        constants, rows, witness = per_rho_check_cs(
            form, ctx.scales, fams, fns, 1.5, rho_grid)
        assert list(rep.constants.items()) == list(constants.items())
        assert rep.rows == rows
        assert rep.witness == witness
        assert rep.ranges == {"instances": len(rows)}


@pytest.mark.parametrize("name", BUNDLED)
def test_truncated_form_jump(name):
    # the generator cut in place from A is the reassembled form's, to the
    # sign of every zero, at the config's radii, below its edges' length
    # and past its diameter
    ctx = SuiteContext(load_config(name))
    for rho in [*ctx.radii, 0.5, 1.0, 1e9]:
        assert (ctx.form.truncated(rho).tobytes()
                == truncated_form(ctx.form, rho).A.tobytes()), rho


# -- identities on random small spaces -----------------------------------------


@st.composite
def small_forms(draw):
    n = draw(st.integers(3, 9))
    coords = np.cumsum(draw(st.lists(st.floats(0.5, 3.0), min_size=n,
                                     max_size=n)))
    metric = np.abs(coords[:, None] - coords[None, :])
    mu = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = np.array([p for p, k in zip(pairs, keep) if k],
                     dtype=int).reshape(-1, 2)
    w = draw(st.lists(st.floats(0.0, 5.0), min_size=len(edges),
                      max_size=len(edges)))
    space = MetricMeasureSpace(metric, mu, edges=edges)
    jump = None
    if draw(st.booleans()):
        jump = JumpKernel.power_law(space, alpha=draw(st.floats(0.2, 1.8)))
    form = assemble(space, np.array(w, dtype=float), jump)
    f = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    rho = draw(st.floats(0.1, float(metric.max()) + 1.0))
    return form, f, idx, rho


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_energy_measure_sums_to_energy(case):
    form, f, _, rho = case
    e, gc = form.energy(f), form.local_champ(f)
    # rounding bound of f @ A @ f, whose terms may cancel
    tol = 1e-12 * (np.abs(f) @ np.abs(form.A) @ np.abs(f)) + 1e-300
    jump = (jump_champ(form, f) * form.mu).sum()
    assert gc.sum() + jump == pytest.approx(e, abs=tol)
    # the truncated generator is the reassembled cut form's, bit for bit,
    # and the rho-truncated measure sums to its energy
    A_rho = form.truncated(rho)
    assert A_rho.tobytes() == truncated_form(form, rho).A.tobytes()
    te = float(f @ A_rho @ f)
    jump_rho = (jump_champ(form, f, rho) * form.mu).sum()
    assert gc.sum() + jump_rho == pytest.approx(te, abs=tol)


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_local_laplacian_is_restricted_energy(case):
    form, f, idx, _ = case
    L = form.local_laplacian(idx)
    assert np.array_equal(L, old_loop_laplacian(form, idx))
    fi = f[idx]
    tol = 1e-12 * (np.abs(fi) @ np.abs(L) @ np.abs(fi)) + 1e-300
    assert fi @ L @ fi == pytest.approx(old_local_energy_within(form, f, idx),
                                        abs=tol)


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_jump_laplacian_is_restricted_energy(case):
    # f @ L @ f is the jump energy of f over the ordered pairs inside idx
    form, f, idx, _ = case
    L = form.jump_laplacian(idx)
    fi = f[idx]
    if form.jump is None:
        assert np.array_equal(L, np.zeros((len(idx), len(idx))))
        return
    assert L.tobytes() == old_jump_laplacian(form, idx).tobytes()
    K = whole_jump(form)[np.ix_(idx, idx)] * np.outer(form.mu[idx],
                                                      form.mu[idx])
    want = float((K * (fi[:, None] - fi[None, :]) ** 2).sum())
    tol = 1e-12 * (np.abs(fi) @ np.abs(L) @ np.abs(fi)) + 1e-300
    assert fi @ L @ fi == pytest.approx(want, abs=tol)


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_sym_generator_block(case):
    form, _, idx, _ = case
    assert np.array_equal(form.sym_generator(idx),
                          form.sym_generator()[np.ix_(idx, idx)])
