import math

import numpy as np
import pytest

from formlab.form import JumpKernel, assemble, exit_stats
from formlab.functionals import (ball_family, capacity, check_cs, check_exit,
                                 check_fk, check_gcap, check_pi,
                                 generalized_capacity, lambda1, poincare,
                                 tail_and_ujs, function_family)
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import MetricMeasureSpace, build_space
from conftest import whole_jump


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


def diffusion_triple():
    p = ScaleFunction.single_power(2.0)
    return ScaleTriple(p, p)


def z1(side=65, margin=None, with_jump=True, alpha=1.0):
    sp = build_space("lattice_box", dim=1, side=side, margin=margin)
    jump = JumpKernel.power_law(sp, alpha=alpha) if with_jump else None
    return sp, assemble(sp, 1.0, jump)


class TestLambda1:
    def test_single_interior_node(self):
        sp, form = z1(side=3, margin=0, with_jump=False)
        assert lambda1(form, [1]) == pytest.approx(2.0)

    def test_path_eigenvalue_formula(self):
        n = 7
        sp, form = z1(side=n + 2, margin=0, with_jump=False)
        lam = lambda1(form, list(range(1, n + 1)))
        assert lam == pytest.approx(4 * math.sin(math.pi / (2 * (n + 1))) ** 2,
                                    rel=1e-12)

    def test_domain_monotonicity(self):
        sp, form = z1(side=33, margin=0)
        D2 = sp.ball(16, 8.0)
        D1 = sp.ball(16, 4.0)
        assert lambda1(form, D1) >= lambda1(form, D2) - 1e-12

    def test_spectral_exit_duality(self):
        # lambda1(D) >= 1 / max_x E^x tau_D, exactly testable
        sp, form = z1(side=33, margin=0)
        rng = np.random.RandomState(8)
        for _ in range(10):
            D = np.sort(rng.choice(sp.n, size=rng.randint(3, 12),
                                   replace=False))
            lam = lambda1(form, D)
            mean = exit_stats(form, D, [1.0]).mean
            assert lam >= 1.0 / mean.max() - 1e-10


class TestFK:
    def test_report_and_monotone_nu(self):
        sp, form = z1(side=65)
        rep = check_fk(form, alpha1_triple(), [4.0, 8.0])
        assert rep.verdict == "certified"
        cs = [rep.constants[f"C(nu={nu})"] for nu in (0.25, 0.5, 0.75, 1.0)]
        # if FK holds for nu it holds for every smaller nu with the same C
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))


class TestPoincare:
    def test_two_point_closed_form(self):
        sp = MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], np.ones(2),
                                edges=[(0, 1)])
        w = 2.5
        form = assemble(sp, w, None)
        tr = alpha1_triple()
        c, bad = poincare(form, tr, 0, 1.5, 1.0)
        assert bad is None
        assert c == pytest.approx(1.0 / (2 * w * tr.phi(1.5)), rel=1e-9)

    def test_constant_functions_handled(self):
        # centering removes constants; the eigenproblem stays finite
        sp, form = z1(side=33, margin=4)
        c, bad = poincare(form, alpha1_triple(), 16, 4.0, 1.0)
        assert bad is None and np.isfinite(c) and c > 0.0

    def test_diffusion_only_stability(self):
        sp, form = z1(side=129, margin=0, with_jump=False)
        tr = diffusion_triple()
        vals = []
        for r in (8.0, 16.0, 32.0):
            c, _ = poincare(form, tr, 64, r, 1.0)
            vals.append(c)
        assert max(vals) / min(vals) <= 1.3

    def test_disconnected_dilated_ball(self):
        inf = 10.0   # two clusters, no edges/jumps across
        metric = np.array([[0.0, 1.0, inf], [1.0, 0.0, inf],
                           [inf, inf, 0.0]])
        sp = MetricMeasureSpace(metric, np.ones(3), edges=[(0, 1)])
        form = assemble(sp, 1.0, None)
        c, bad = poincare(form, alpha1_triple(), 0, 2.0, 6.0)
        assert c == np.inf and bad is not None

    def test_check_pi_fails_on_a_disconnected_dilated_ball(self):
        # B(0, 2) = {0, 1} is connected; its 6-fold dilation takes in the
        # unreachable point 2, so the kappa = 6 constant is infinite
        metric = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 10.0],
                           [10.0, 10.0, 0.0]])
        sp = MetricMeasureSpace(metric, np.ones(3), edges=[(0, 1)])
        form = assemble(sp, 1.0, None)
        rep = check_pi(form, alpha1_triple(), [2.0], kappas=(1.0, 6.0),
                       max_centers=1)
        assert rep.verdict == "failed"
        assert rep.constants == {"C": math.inf}
        assert rep.witness == {"x0": 0, "r": 2.0,
                               "reason": "disconnected dilated ball"}
        assert [(r["kappa"], math.isfinite(r["C"])) for r in rep.rows] == [
            (1.0, True), (6.0, False)]
        # the swept radii and kappas are reported, as on a certified run
        assert rep.ranges == {"radii": [2.0], "kappas": [1.0, 6.0]}

    def test_shrinking_dilation_rejected(self):
        # the energy ball must contain the mass ball
        sp, form = z1(side=33, margin=4)
        with pytest.raises(ValueError):
            poincare(form, alpha1_triple(), 16, 4.0, 0.5)

    def test_scalar_invariance(self):
        # scaling (mu -> s mu, w -> s w, J -> J / s) leaves C_PI unchanged
        sp, form = z1(side=33, margin=4)
        tr = alpha1_triple()
        c0, _ = poincare(form, tr, 16, 4.0, 2.0)
        s = 3.7
        sp2, _ = z1(side=33, margin=4)
        sp2.mu = sp2.mu * s
        form2 = assemble(sp2, s, JumpKernel(whole_jump(form) / s))
        c1, _ = poincare(form2, tr, 16, 4.0, 2.0)
        assert c1 == pytest.approx(c0, rel=1e-9)

    def test_check_pi_report(self):
        sp, form = z1(side=65)
        rep = check_pi(form, alpha1_triple(), [4.0, 8.0], kappas=(1.0, 2.0))
        assert rep.verdict == "certified"
        assert rep.constants["C"] > 0.0


class TestCapacity:
    def test_series_resistance(self):
        sp, form = z1(side=21, margin=0, with_jump=False)
        b = 6
        val, pot = capacity(form, [10], sp.ball(10, float(b)))
        assert val == pytest.approx(2.0 / b, rel=1e-12)
        assert pot[10] == 1.0
        assert form.energy(pot) == pytest.approx(val, rel=1e-10)

    def test_no_free_nodes(self):
        sp, form = z1(side=9, margin=0, with_jump=False)
        ind = np.zeros(sp.n)
        ind[[3, 4]] = 1.0
        val, pot = capacity(form, [3, 4], [3, 4])
        assert val == pytest.approx(form.energy(ind))

    def test_monotone_in_inner_set(self):
        sp, form = z1(side=33, margin=0)
        B = sp.ball(16, 8.0)
        v1, _ = capacity(form, [16], B)
        v2, _ = capacity(form, [15, 16, 17], B)
        assert v2 >= v1 - 1e-12

    def test_validation(self):
        sp, form = z1(side=9, margin=0)
        with pytest.raises(ValueError):
            capacity(form, [], [1, 2])
        with pytest.raises(ValueError):
            capacity(form, [5], [1, 2])
        with pytest.raises(ValueError):
            capacity(form, [1], list(range(sp.n)))

    def test_ball_capacity_upper_bound(self):
        # cap(B(x,R), B(x,R+r)) <= c0 V(x,R+r)/phi(r) with modest c0
        sp, form = z1(side=129, margin=16)
        tr = alpha1_triple()
        for R, r in ((8.0, 4.0), (16.0, 8.0)):
            value, potential = capacity(form, sp.ball(64, R),
                                        sp.ball(64, R + r))
            assert value * tr.phi(r) / sp.volume(64, R + r) < 10.0
            assert value == pytest.approx(form.energy(potential), rel=1e-10)


class TestGeneralizedCapacity:
    def test_reduces_to_capacity(self):
        sp, form = z1(side=33, margin=0)
        A = sp.ball(16, 4.0)
        B = sp.ball(16, 8.0)
        cap_val, _ = capacity(form, A, B)
        val, _ = generalized_capacity(form, np.ones(sp.n), A, B, 1.0,
                                      x0=16, radii=(4.0, 8.0))
        assert val <= cap_val + 1e-10
        assert val == pytest.approx(cap_val, rel=1e-10)

    def test_zero_function(self):
        sp, form = z1(side=33, margin=0)
        val, _ = generalized_capacity(form, np.zeros(sp.n), sp.ball(16, 2.0),
                                      sp.ball(16, 6.0))
        assert val == 0.0

    def test_fitted_constant_across_scales(self):
        sp, form = z1(side=129, margin=0)
        tr = alpha1_triple()
        d = sp.metric[64]
        f = np.maximum(0.0, 1.0 - d / 24.0)   # distance bump
        cs = []
        for R, r in ((8.0, 4.0), (16.0, 8.0), (32.0, 16.0)):
            val, _ = generalized_capacity(form, f, sp.ball(64, R),
                                          sp.ball(64, R + r), 1.0,
                                          x0=64, radii=(R, R + r))
            mass = float(np.sum(f[sp.ball(64, R + r)] ** 2))
            cs.append(max(val, 0.0) * tr.phi(r) / mass)
        assert max(cs) / max(min(cs), 1e-12) <= 4.0 or max(cs) < 0.5

    def test_check_gcap_certificate(self):
        sp, form = z1(side=65)
        fns = function_family(form)[:6]
        rep = check_gcap(form, alpha1_triple(), [(32, 8.0, 4.0)], fns)
        assert rep.verdict == "one-sided-certificate"
        assert np.isfinite(rep.constants["C"])


class TestCS:
    def test_constant_function_reduces_to_capacity_bound(self):
        sp, form = z1(side=65)
        fns = [np.ones(sp.n)]
        rep = check_cs(form, alpha1_triple(), [(32, 8.0, 4.0)], fns)
        # right-side energy terms vanish for constants, so C2 carries it all
        assert rep.constants["C2"] == rep.constants["C2(C1=0)"]
        assert np.isfinite(rep.constants["C2"])

    def test_diffusion_ramp_slope_arithmetic(self):
        sp, form = z1(side=129, margin=0, with_jump=False)
        tr = diffusion_triple()
        fns = [np.ones(sp.n)]
        c2s = []
        for r in (4.0, 8.0, 16.0):
            rep = check_cs(form, tr, [(64, r, r)], fns)
            c2s.append(rep.constants["C2"])
        # ramp slope 1/r over ~2r points: energy ~ 2/r, times phi(r)=r^2 / mass
        assert max(c2s) / min(c2s) <= 4.0

    def test_truncated_matches_untruncated_at_full_range(self):
        sp, form = z1(side=65)
        fns = function_family(form)[:4]
        fam = [(32, 8.0, 4.0)]
        rho = sp.metric.max() + 1.0
        rep = check_cs(form, alpha1_triple(), fam, fns, rho_grid=[rho])
        assert rep.constants[f"C2(rho={rho:g})"] <= rep.constants["C2"] + 1e-9


class TestExit:
    def test_diffusion_control_exact(self):
        sp, form = z1(side=129, margin=32, with_jump=False)
        rep = check_exit(form, diffusion_triple(), [32.0])
        assert rep.constants["c1"] == pytest.approx(2.0, rel=0.01)

    def test_jump_model_certifies(self):
        sp, form = z1(side=129, margin=16)
        rep = check_exit(form, alpha1_triple(), [8.0, 16.0])
        assert rep.verdict == "certified"
        assert rep.constants["c1"] <= 20.0

    def test_jumps_shorten_exit(self):
        sp, formj = z1(side=65, margin=8)
        _, form0 = z1(side=65, margin=8, with_jump=False)
        B = sp.ball(32, 8.0)
        mj = exit_stats(formj, B, [1.0]).mean
        m0 = exit_stats(form0, B, [1.0]).mean
        assert np.all(mj <= m0 + 1e-12)

    def test_ep_trivial_at_large_time(self):
        sp, form = z1(side=65, margin=8)
        tr = alpha1_triple()
        rep = check_exit(form, tr, [8.0])
        c = rep.constants["c_EP"]
        # for t >= c_EP^-1 phi(r) the bound c t / phi(r) is >= 1: trivial
        assert c * (2.0 * tr.phi(8.0)) / tr.phi(8.0) >= 1.0


class TestTailUJS:
    def test_tail_integral_comparison(self):
        alpha = 1.0
        sp, form = z1(side=129, margin=16, alpha=alpha)
        tr = alpha1_triple()
        rep = tail_and_ujs(form, tr, [4.0, 8.0, 16.0])
        assert rep.verdict == "certified"
        # sum_{|k|>r} |k|^{-1-a} <= (2/a) r^{-a}: fitted c lands below 2/a + o(1)
        assert rep.constants["c_tail"] <= 2.0 / alpha * 1.3

    def test_ujs_convex_kernel_small_constant(self):
        sp, form = z1(side=129, margin=16)
        rep = tail_and_ujs(form, alpha1_triple(), [4.0, 8.0])
        assert rep.constants["c_UJS"] <= 4.0

    def test_ujs_sweep_ends_where_jumps_vanish_on_a_ball(self):
        # jumps of range <= 2 only: far pairs see J(., y) == 0 on B(x, r),
        # UJS fails there and no later pair is tested
        sp = build_space("lattice_box", dim=1, side=65, margin=8)
        d = sp.metric
        J = np.where((d > 0) & (d <= 2), 1.0 / np.maximum(d, 1.0) ** 2, 0.0)
        form = assemble(sp, 1.0, JumpKernel(J))
        reps = [tail_and_ujs(form, alpha1_triple(), [4.0], n_pairs=n)
                for n in (60, 600)]
        for rep in reps:
            assert rep.verdict == "failed"
            assert rep.constants["c_UJS"] == math.inf
        # the 600-pair sweep draws the same first 60 pairs, and stops
        # at the same failing pair
        assert reps[0].ranges["ujs_instances"] == reps[1].ranges["ujs_instances"]

    def test_no_jump_form(self):
        # a jump-free form has no tail to fit: the empty-sweep report
        sp, form = z1(side=33, with_jump=False)
        rep = tail_and_ujs(form, alpha1_triple(), [4])
        assert (rep.verdict, rep.constants, rep.rows) == ("failed", {}, [])
        assert rep.notes == "the form has no jump part"
        assert rep.ranges == {"radii": [4.0]}


class TestFamilies:
    def test_ball_family_respects_margin(self):
        sp = build_space("lattice_box", dim=1, side=65)
        for x0, r in ball_family(sp, [4.0, 8.0], reach_factor=2.0):
            assert sp.dist_to_boundary[x0] >= 2.0 * r

    def test_test_functions_cover_types(self):
        sp, form = z1(side=33, margin=4)
        fns = function_family(form)
        assert len(fns) >= 10
        assert all(f.shape == (sp.n,) for f in fns)
