import functools
import math

import numpy as np
import pytest

from formlab.cli import SuiteContext, load_config
from formlab.form import (FormError, JumpKernel, assemble, build_jump,
                          exit_stats, gap_check, heat_kernel,
                          kernel_certificates, meyer_check, subordinate,
                          subordinate_intensity,
                          subordinate_intensity_quadrature)
from formlab.functionals import fit_jpsi
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import build_space
from conftest import whole, whole_jump
from test_energy_oracles import truncated_form


def z1(side=65, margin=None, alpha=1.0, with_jump=True):
    sp = build_space("lattice_box", dim=1, side=side, margin=margin)
    jump = JumpKernel.power_law(sp, alpha=alpha) if with_jump else None
    return sp, assemble(sp, 1.0, jump)


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


class TestAssembly:
    def test_path_laplacian_stencil(self):
        sp = build_space("lattice_box", dim=1, side=3, margin=0)
        form = assemble(sp, 1.0, None)
        L = -(form.A / form.mu[:, None])
        assert np.allclose(L.sum(axis=1), 0.0)
        assert L[1, 1] == pytest.approx(-2.0)

    def test_delta_energy_direct_sum(self):
        sp, form = z1(side=33, margin=0)
        x = 16
        delta = np.zeros(sp.n)
        delta[x] = 1.0
        J = whole_jump(form)
        # direct summation oracle: edges at x plus ordered jump pairs
        w_sum = 2.0      # two unit edges at an interior point
        expect = w_sum + 2.0 * J[x].sum()
        assert form.energy(delta) == pytest.approx(expect, rel=1e-12)

    def test_no_killing(self):
        _, form = z1(side=17, margin=0)
        assert abs(form.energy(np.ones(form.n))) < 1e-12

    def test_asymmetric_jump_rejected(self):
        J = np.zeros((4, 4))
        J[0, 1] = 1.0   # no symmetric partner
        with pytest.raises(FormError, match="witness"):
            JumpKernel(J)

    def test_stable_like_comparability_band(self):
        sp = build_space("lattice_box", dim=1, side=33, margin=0)
        psi = ScaleFunction.single_power(1.0)
        kern = JumpKernel.stable_like(sp, psi, cmin=0.5, cmax=2.0)
        c1, c2, _ = fit_jpsi(assemble(sp, 1.0, kern), psi)
        # c(x,y) in [0.5, 2] times the volume symmetrisation spread
        assert 0.2 <= c1 <= 1.0 <= c2 <= 5.0
        assert np.abs(whole_jump(kern) - whole_jump(kern).T).max() == 0.0

    def test_two_regime_joins_two_power_laws_at_the_break(self):
        # coeff d^-(1+alpha) up to the break, coeff b^(beta-alpha)
        # d^-(1+beta) above it: the two agree at d = b
        sp = build_space("lattice_box", dim=1, side=33, margin=0)
        kern = JumpKernel.two_regime(sp, alpha=1.0, beta=0.5,
                                     regime_break=8.0, coeff=2.0)
        d = sp.metric[0, 1:]
        want = np.where(d <= 8.0, 2.0 * d ** -2.0,
                        2.0 * 8.0 ** -0.5 * d ** -1.5)
        assert np.allclose(whole_jump(kern)[0, 1:], want, rtol=1e-14, atol=0.0)
        assert 2.0 * 8.0 ** -0.5 * 8.0 ** -1.5 == pytest.approx(
            whole_jump(kern)[0, 8], rel=1e-14)
        assert np.diag(whole_jump(kern)).max() == 0.0
        assert np.array_equal(whole_jump(kern), whole_jump(kern).T)
        built = build_jump({"kind": "two_regime", "alpha": 1.0, "beta": 0.5,
                            "regime_break": 8.0, "coeff": 2.0}, sp,
                           ScaleFunction.single_power(1.0), 7)
        assert np.array_equal(whole_jump(built), whole_jump(kern))

    def test_build_jump_calls_the_builder_on_the_class(self, monkeypatch):
        # a wrapper installed on JumpKernel after import, as a tracer
        # installs one, is the builder that build_jump calls
        for name in ("stable_like", "power_law", "two_regime"):
            assert isinstance(vars(JumpKernel)[name], classmethod)
        real = vars(JumpKernel)["stable_like"].__func__
        calls = []

        @functools.wraps(real)
        def traced(cls, *args, **kwargs):
            calls.append(kwargs)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(JumpKernel, "stable_like", classmethod(traced))
        sp = build_space("lattice_box", dim=1, side=17, margin=0)
        psi = ScaleFunction.single_power(1.0)
        jump = build_jump({"kind": "stable_like", "cmin": 0.5}, sp, psi, 7)
        assert [sorted(kw) for kw in calls] == [["cmin", "psi", "seed",
                                                 "space"]]
        want = real(JumpKernel, sp, psi, cmin=0.5, seed=7)
        assert np.array_equal(whole_jump(jump), whole_jump(want))

    def test_generator_mu_symmetry(self):
        sp = build_space("gasket", level=3)
        mu = 1.0 + 0.5 * np.sin(np.arange(sp.n))**2
        sp.mu = mu
        form = assemble(sp, 1.0, JumpKernel.power_law(sp, alpha=0.8))
        rng = np.random.RandomState(5)
        L = -(form.A / form.mu[:, None])
        for _ in range(20):
            f, g = rng.standard_normal((2, sp.n))
            lhs = np.sum((L @ f) * g * mu)
            rhs = np.sum(f * (L @ g) * mu)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestHeatKernel:
    def test_identity_limit(self):
        _, form = z1(side=33, margin=0)
        (K,) = whole(heat_kernel(form, [1e-6]))
        defect = np.abs(K * form.mu[None, :] - np.eye(form.n)).max()
        assert defect < 1e-4

    def test_dirichlet_midpoint(self):
        sp = build_space("lattice_box", dim=1, side=3, margin=0)
        form = assemble(sp, 1.0, None)
        for t in (0.3, 1.0, 2.0):
            KD = heat_kernel(form, [t], domain=[1]).kernels[0]
            assert KD[0, 0] == pytest.approx(math.exp(-2.0 * t), rel=1e-12)

    def test_certificates(self):
        _, form = z1(side=49, margin=0)
        certs = kernel_certificates(form, [0.5, 1.0, 3.0])
        assert certs["symmetry"] < 1e-12
        assert certs["chapman_kolmogorov"] < 1e-10
        assert certs["unit_mass"] < 1e-10

    def test_spectral_vs_expm(self, expm_kernels):
        _, form = z1(side=64, margin=0)
        ts = [0.5, 2.0]
        spec = heat_kernel(form, ts)
        for A, B in zip(whole(spec), expm_kernels(form, ts)):
            assert np.abs(A - B).max() < 1e-8

    def test_domain_monotonicity(self):
        sp, form = z1(side=33, margin=0)
        rng = np.random.RandomState(6)
        (full,) = whole(heat_kernel(form, [1.0]))
        for _ in range(5):
            D = np.sort(rng.choice(sp.n, size=rng.randint(5, 20),
                                   replace=False))
            KD = heat_kernel(form, [1.0], domain=D).kernels[0]
            assert np.all(KD <= full[np.ix_(D, D)] + 1e-12)


class TestTruncation:
    def test_full_range_no_gap(self):
        sp, form = z1(side=33, margin=0)
        tr = alpha1_triple()
        rho = sp.metric.max() + 1.0
        fns = [np.sin(np.arange(sp.n) / 3.0)]
        assert gap_check(form, tr, rho, fns) == pytest.approx(0.0, abs=1e-15)

    def test_delta_gap_integral_comparison(self):
        # gap(delta_x) = 2 sum_{|k| > rho} |k|^{-1-a} <= (4/a) rho^{-a}
        alpha = 1.0
        sp, form = z1(side=129, margin=0, alpha=alpha)
        x = 64
        delta = np.zeros(sp.n)
        delta[x] = 1.0
        for rho in (4.0, 8.0, 16.0):
            gap = form.energy(delta) - float(
                delta @ form.truncated(rho) @ delta)
            direct = 2.0 * sum(
                abs(k - x) ** (-1 - alpha) for k in range(sp.n)
                if abs(k - x) > rho
            )
            assert gap == pytest.approx(direct, rel=1e-12)
            assert gap <= (4.0 / alpha) * rho ** (-alpha)

    def test_gap_monotone_in_rho(self):
        sp, form = z1(side=65, margin=0)
        u = np.cos(np.arange(sp.n) / 5.0)
        gaps = [form.energy(u) - float(u @ form.truncated(rho) @ u)
                for rho in (2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestMeyer:
    def test_no_jump_fits_zero(self):
        _, form = z1(side=33, with_jump=False)
        out = meyer_check(form, alpha1_triple(), rhos=[4.0, 8.0],
                          times=[0.5, 1.0])
        assert out == [0.0, 0.0]

    def test_alpha1_stable_across_rho(self):
        # fit at times matched to the truncation scale: t in phi(rho)/{8, 4}
        sp, form = z1(side=129, margin=16)
        tr = alpha1_triple()
        fits = []
        for rho in (4.0, 8.0, 16.0):
            phir = tr.phi(rho)
            fits += meyer_check(form, tr, rhos=[rho],
                                times=[phir / 8.0, phir / 4.0])
        assert all(np.isfinite(c) and c > 0.0 for c in fits)
        assert max(fits) / min(fits) <= 3.0

    def test_small_time_linearised_bound(self):
        sp, form = z1(side=65, margin=8)
        tr = alpha1_triple()
        rho = 8.0
        t = 0.05   # t << phi(rho): exp factor within 20% of 1
        (c1,) = meyer_check(form, tr, rhos=[rho], times=[t])
        (P,) = whole(heat_kernel(form, [t]))
        (Q,) = whole(heat_kernel(truncated_form(form, rho), [t]))
        interior = sp.interior()
        for x in interior[::4]:
            V = sp.volume(int(x), rho)
            bound = 1.2 * c1 * t / (V * tr.phi_j(rho))
            assert np.all((P - Q)[x][interior] <= bound + 1e-15)


class TestSubordination:
    def test_identity_case(self):
        g = build_space("gasket", level=3)
        form = assemble(g, 1.0, None)
        out = subordinate(form, b=0.0, gamma=1.0 - 1e-12, times=[0.7])
        (base,) = whole(heat_kernel(form, [0.7]))
        assert np.abs(out.kernels[0] - base).max() < 1e-8

    def test_semigroup_property(self):
        g = build_space("gasket", level=3)
        form = assemble(g, 1.0, None)
        out = subordinate(form, b=1.0, gamma=0.5, times=[0.5, 1.0])
        K, K2 = out.kernels
        comp = (K * form.mu[None, :]) @ K
        assert np.abs(comp - K2).max() < 1e-10

    def test_intensity_matches_quadrature(self):
        # oracle: direct quadrature of int q(u,x,y) nu(u) du
        sp = build_space("lattice_box", dim=1, side=33, margin=0)
        form = assemble(sp, 1.0, None)
        intensity = subordinate_intensity(form, 0.5)
        pairs = [(5, 9), (10, 20), (16, 17), (3, 30)]
        quad = subordinate_intensity_quadrature(form, 0.5, pairs)
        spec = np.array([intensity[x, y] for x, y in pairs])
        assert np.max(np.abs(quad - spec) / spec) < 1e-4

    def test_walk_intensity_power_law_shape(self):
        # drift + 1/2-stable subordination of the nearest-neighbour walk on Z
        # has jump intensity ~ c / d^2 at mid-range distances
        sp = build_space("lattice_box", dim=1, side=65, margin=0)
        form = assemble(sp, 1.0, None)
        intensity = subordinate_intensity(form, 0.5)
        x = 32
        ds = np.array([2, 3, 4, 6, 8, 12])
        vals = np.array([intensity[x, x + d] for d in ds])
        fitted = vals * ds ** 2.0
        assert fitted.max() / fitted.min() < 10.0

    def test_gamma_domain(self):
        sp = build_space("lattice_box", dim=1, side=9, margin=0)
        form = assemble(sp, 1.0, None)
        with pytest.raises(FormError):
            subordinate(form, b=1.0, gamma=1.5, times=[1.0])
        with pytest.raises(FormError):
            subordinate(form, b=1.0, gamma=0.0, times=[1.0])
        with pytest.raises(FormError):
            subordinate_intensity(form, gamma=1.5)

    def test_subordinating_a_jump_form(self):
        # subordination applies to any mu-symmetric form, including one
        # that already jumps; the result stays a semigroup with a
        # symmetric nonnegative intensity
        sp, form = z1(side=33, margin=0)
        K, K2 = subordinate(form, b=0.5, gamma=0.7, times=[0.5, 1.0]).kernels
        intensity = subordinate_intensity(form, 0.7)
        assert np.abs((K * form.mu[None, :]) @ K - K2).max() < 1e-10
        assert np.abs(intensity - intensity.T).max() == 0.0
        assert intensity.min() >= 0.0

    @pytest.mark.parametrize("config", ["gasket_subordination", "z1_mini"])
    def test_intensity_equals_two_temporary_expression(self, config):
        # the in-place body against the expression it replaced, which
        # allocated intensity.T + intensity and half of it
        form = SuiteContext(load_config(config)).form
        lam, B = form.spectral()
        for gamma in (0.3, 0.5, 1.0 - 1e-12):
            old = -((B * lam ** gamma) @ B.T)
            np.fill_diagonal(old, 0.0)
            old = np.maximum(0.5 * (old + old.T), 0.0)
            got = subordinate_intensity(form, gamma)
            assert got.tobytes() == old.tobytes()


class TestExitStats:
    def test_tridiagonal_oracle(self):
        sp, form = z1(side=65, margin=0, with_jump=False)
        r = 8.0
        B = sp.ball(32, r)
        st_ = exit_stats(form, B, [0.0, 1.0, 5.0])
        c = int(np.nonzero(B == 32)[0][0])
        assert st_.mean[c] == pytest.approx(r * r / 2.0, rel=1e-12)
        # independent tridiagonal solve
        m = len(B)
        T = np.zeros((m, m))
        for i in range(m):
            T[i, i] = 2.0
            if i > 0:
                T[i, i - 1] = -1.0
            if i + 1 < m:
                T[i, i + 1] = -1.0
        oracle = np.linalg.solve(T, np.ones(m))
        assert np.allclose(st_.mean, oracle)

    def test_survival_curve(self):
        sp, form = z1(side=33, margin=0)
        B = sp.ball(16, 4.0)
        st_ = exit_stats(form, B, [0.0, 0.5, 1.0, 2.0])
        assert np.all(st_.survival[0] == 1.0)
        diffs = np.diff(st_.survival, axis=0)
        assert np.all(diffs <= 1e-12)

    def test_empty_ball_rejected(self):
        sp, form = z1(side=9, margin=0)
        with pytest.raises(FormError):
            exit_stats(form, [], [1.0])

    def test_nonpositive_time_rejected(self):
        sp, form = z1(side=9, margin=0)
        with pytest.raises(FormError):
            heat_kernel(form, [1.0, -0.5])


def jump_champ(form, f):
    """Gamma_j(f, f) as a density against mu:
    sum_y (f(x) - f(y))^2 J(x, y) mu(y)."""
    return ((f[:, None] - f[None, :]) ** 2 * whole_jump(form)
            * form.mu[None, :]).sum(axis=1)


class TestEnergyMeasures:
    def test_constant_vanishes(self):
        _, form = z1(side=17, margin=0)
        f = np.full(form.n, 3.7)
        e, gc, gj = form.energy(f), form.local_champ(f), jump_champ(form, f)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert np.abs(gc).max() == 0.0
        assert np.abs(gj).max() < 1e-15

    def test_delta_total_matches_energy(self):
        sp, form = z1(side=17, margin=0)
        delta = np.zeros(sp.n)
        delta[8] = 1.0
        e = form.energy(delta)
        gc, gj = form.local_champ(delta), jump_champ(form, delta)
        assert gc.sum() + (gj * sp.mu).sum() == pytest.approx(e, rel=1e-12)
        # local part concentrates on the point and its neighbours
        assert set(np.nonzero(gc)[0]) == {7, 8, 9}

    def test_cauchy_schwarz_random_trials(self):
        sp, form = z1(side=21, margin=0)
        rng = np.random.RandomState(7)
        J = whole_jump(form)
        edges = sp.edges

        def gamma_pointwise(u, v):
            out = np.zeros(sp.n)
            du = (u[edges[:, 0]] - u[edges[:, 1]])
            dv = (v[edges[:, 0]] - v[edges[:, 1]])
            np.add.at(out, edges[:, 0], 0.5 * form.w_edges * du * dv)
            np.add.at(out, edges[:, 1], 0.5 * form.w_edges * du * dv)
            dU = u[:, None] - u[None, :]
            dV = v[:, None] - v[None, :]
            out += (dU * dV * J * sp.mu[None, :]).sum(axis=1) * sp.mu
            return out

        for _ in range(25):
            u, v, f, g = rng.standard_normal((4, sp.n))
            lam = 10 ** rng.uniform(-1, 1)
            lhs = abs(np.sum(f * g * gamma_pointwise(u, v)))
            rhs = (np.sum(f * f * gamma_pointwise(u, u)) / (2 * lam)
                   + lam / 2 * np.sum(g * g * gamma_pointwise(v, v)))
            assert lhs <= rhs + 1e-9
