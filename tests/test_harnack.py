import numpy as np
import pytest

import formlab.form as form_mod
import formlab.harnack as harnack
from formlab.cli import SuiteContext, load_config
from formlab.form import JumpKernel, assemble, heat_kernel
from formlab.harnack import (CylinderSpec, HarnackError, caloric_poisson,
                             check_phi, check_regularity, harmonic_solve)
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import build_space
from conftest import whole


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


def diffusion_triple():
    p = ScaleFunction.single_power(2.0)
    return ScaleTriple(p, p)


def z1(side=65, margin=None, with_jump=True):
    sp = build_space("lattice_box", dim=1, side=side, margin=margin)
    jump = JumpKernel.power_law(sp, alpha=1.0) if with_jump else None
    return sp, assemble(sp, 1.0, jump)


class TestHarmonic:
    def test_linear_data_stays_linear(self):
        sp, form = z1(side=33, margin=0, with_jump=False)
        data = np.arange(sp.n, dtype=float)
        B = sp.ball(16, 6.0)
        u = harmonic_solve(form, B, data)
        assert np.allclose(u, data)

    def test_constant_data(self):
        sp, form = z1(side=33, margin=0)
        u = harmonic_solve(form, sp.ball(16, 6.0), np.full(sp.n, 2.5))
        assert np.allclose(u, 2.5)

    def test_maximum_principle(self):
        sp, form = z1(side=33, margin=0)
        rng = np.random.RandomState(9)
        data = rng.rand(sp.n)
        B = sp.ball(16, 6.0)
        u = harmonic_solve(form, B, data)
        ext = np.setdiff1d(np.arange(sp.n), B)
        assert u[B].min() >= data[ext].min() - 1e-12
        assert u[B].max() <= data[ext].max() + 1e-12


class TestCaloric:
    def test_constant_mixture_ratio_one(self):
        # the mu-weighted mixture of the necessary family is u == 1 by
        # conservation (ratio exactly 1), so the fitted constant is >= 1
        # and the mediant bound keeps every mixture below the worst atom
        sp, form = z1(side=65, margin=8)
        tr = alpha1_triple()
        cyl = CylinderSpec(x0=32, R=2.0)
        fam = caloric_poisson(form, tr, cyl, mode="necessary")
        table = heat_kernel(form, [cyl.windows(tr)[0][0]])
        mass = whole(table)[0] @ form.mu
        assert np.abs(mass - 1.0).max() < 1e-10
        ratios = fam.ratios()
        assert np.nanmax(ratios) >= 1.0 - 1e-9

    def test_full_mode_positivity_and_caps(self):
        sp, form = z1(side=65, margin=8)
        cyl = CylinderSpec(x0=32, R=2.0)
        fam = caloric_poisson(form, alpha1_triple(), cyl, mode="full")
        assert np.all(fam.sup_minus >= 0.0)
        assert np.all(fam.inf_plus >= 0.0)

    def test_necessary_dominated_by_full(self):
        # exhaustive atom sweep on a tiny cylinder
        sp, form = z1(side=16, margin=0, with_jump=True)
        tr = alpha1_triple()
        cyl = CylinderSpec(x0=7, R=1.2)
        nec = check_phi(form, tr, [cyl], mode="necessary")
        full = check_phi(form, tr, [cyl], mode="full")
        assert nec.constants["C6"] <= full.constants["C6"] + 1e-9

    def test_stationary_exterior_matches_harmonic(self):
        # time-independent exterior data started from the harmonic profile
        # stays exactly at the harmonic solution: the atom mixture with
        # those weights reproduces it at every sampled window time
        sp, form = z1(side=33, margin=0, with_jump=False)
        tr = diffusion_triple()
        cyl = CylinderSpec(x0=16, R=2.0, constants=(1, 2, 3, 4, 2.5))
        B_cyl = sp.ball(16, cyl.ball_radius())
        data = np.arange(sp.n, dtype=float) / sp.n
        u_h = harmonic_solve(form, B_cyl, data)
        n_int = 8
        fam = caloric_poisson(form, tr, cyl, mode="full",
                              n_atom_intervals=n_int, n_window_times=3,
                              keep_samples=True)
        ext = np.setdiff1d(np.arange(sp.n), B_cyl)
        nb = len(B_cyl)
        weights = np.zeros(fam.n_atoms)
        weights[:nb] = u_h[B_cyl]
        for k in range(n_int):
            weights[nb + k * len(ext): nb + (k + 1) * len(ext)] = data[ext]
        ball_R = sp.ball(16, cyl.R)
        for sample in fam.samples_minus + fam.samples_plus:
            mix = sample @ weights
            assert np.allclose(mix, u_h[ball_R], atol=1e-9)

    def test_caloric_residual_necessary(self):
        # finite-difference consistency of the global heat flows
        sp, form = z1(side=33, margin=4)
        L = -(form.A / form.mu[:, None])
        t, h = 1.0, 1e-5
        Ks = whole(heat_kernel(form, [t - h, t, t + h]))
        z = 16
        dudt = (Ks[2][:, z] - Ks[0][:, z]) / (2 * h)
        lu = L @ Ks[1][:, z]
        assert np.abs(dudt - lu).max() < 1e-6

    def test_cylinder_validation(self):
        with pytest.raises(HarnackError):
            CylinderSpec(x0=0, R=1.0, constants=(2, 1, 3, 4, 5))
        with pytest.raises(HarnackError):
            CylinderSpec(x0=0, R=1.0, constants=(1, 2, 3, 4, 0.5))

    def test_full_mode_margin_guard(self):
        sp, form = z1(side=33, margin=8)
        cyl = CylinderSpec(x0=16, R=8.0)   # C5 R = 40 exceeds the box
        with pytest.raises(HarnackError):
            caloric_poisson(form, alpha1_triple(), cyl, mode="full")


def necessary_oracle(form, scales, cyl, n_window_times=5):
    """The NECESSARY family computed the direct way: stack every window
    kernel, then fancy-index the ball rows and atom columns."""
    (qm_lo, qm_hi), (qp_lo, qp_hi) = cyl.windows(scales)
    t_minus = list(np.linspace(qm_lo, qm_hi, n_window_times + 2)[1:-1])
    t_plus = list(np.linspace(qp_lo, qp_hi, n_window_times + 2)[1:-1])
    table = heat_kernel(form, t_minus + t_plus)
    ball_R = form.space.ball(cyl.x0, cyl.R)
    atoms = np.arange(form.n)
    nm = len(t_minus)
    kernels = whole(table)
    stack_m = np.stack(kernels[:nm])
    stack_p = np.stack(kernels[nm:])
    sup_m = (stack_m[:, :, atoms][:, ball_R, :] * form.mu[atoms]).max(axis=(0, 1))
    inf_p = (stack_p[:, :, atoms][:, ball_R, :] * form.mu[atoms]).min(axis=(0, 1))
    ratio = np.where(inf_p > 1e-300, sup_m / np.maximum(inf_p, 1e-300), -np.inf)
    k = int(np.nanargmax(ratio))
    traces = (stack_m[:, ball_R, k] * form.mu[k], stack_p[:, ball_R, k] * form.mu[k])
    return sup_m, inf_p, k, traces


@pytest.fixture(scope="module")
def mini():
    ctx = SuiteContext(load_config("z1_mini"))
    centers = ctx.space.interior(5.0 * 4.0 + 1e-9)
    cyls = [CylinderSpec(x0=int(centers[i]), R=4.0)
            for i in (0, len(centers) // 2, len(centers) - 1)]
    cyls.append(CylinderSpec(x0=int(centers[2]), R=3.0))
    return ctx.form, ctx.scales, cyls


class TestSharedFlows:
    def test_necessary_family_bit_equal_to_stacked_oracle(self, mini):
        form, scales, cyls = mini
        for cyl in cyls:
            fam = caloric_poisson(form, scales, cyl, mode="necessary")
            sup_m, inf_p, k, (tm, tp) = necessary_oracle(form, scales, cyl)
            assert np.array_equal(fam.sup_minus, sup_m)
            assert np.array_equal(fam.inf_plus, inf_p)
            assert fam.worst["atom"] == k
            assert np.array_equal(fam.worst["trace_minus"], tm)
            assert np.array_equal(fam.worst["trace_plus"], tp)

    def test_check_phi_bit_equal_to_stacked_oracle(self, mini):
        form, scales, cyls = mini
        rep = check_phi(form, scales, cyls, mode="necessary")
        for cyl, row in zip(cyls, rep.rows):
            sup_m, inf_p, _, _ = necessary_oracle(form, scales, cyl)
            ok = (inf_p > 1e-300) & (sup_m > 1e-300)
            assert row["C6"] == float((sup_m[ok] / inf_p[ok]).max())
        worst = next(c for c, row in zip(cyls, rep.rows)
                     if row["C6"] == rep.constants["C6"])
        _, _, k, (tm, tp) = necessary_oracle(form, scales, worst)
        assert rep.witness["worst"]["atom"] == k
        assert np.array_equal(rep.witness["worst"]["trace_minus"], tm)
        assert np.array_equal(rep.witness["worst"]["trace_plus"], tp)

    def test_one_kernel_table_per_window_times(self, mini, monkeypatch):
        # each window time's kernel product is computed exactly once per
        # run of consecutive cylinders with equal sample times
        form, scales, cyls = mini
        calls = []
        product = form_mod._semigroup_product

        def counting(B, rates, t):
            calls.append((t,))
            return product(B, rates, t)

        def window_times(cyl):
            t_minus, t_plus = harnack._flow_times(scales, cyl, 5)
            return [(t,) for t in t_minus + t_plus]

        monkeypatch.setattr(form_mod, "_semigroup_product", counting)
        check_phi(form, scales, cyls[:3], mode="necessary")
        assert calls == window_times(cyls[0])
        calls.clear()
        # a smaller R brings its own sample times
        check_phi(form, scales, cyls, mode="necessary")
        assert calls == window_times(cyls[0]) + window_times(cyls[3])
        calls.clear()
        check_phi(form, scales, cyls[:1], mode="full")
        assert calls == []


class TestCheckPhi:
    def test_diffusion_only_full_stability(self):
        sp, form = z1(side=256, margin=16, with_jump=False)
        tr = diffusion_triple()
        fits = {}
        for R in (8.0, 16.0):
            centers = sp.interior(5.0 * R + 1e-9)
            cyl = CylinderSpec(x0=int(centers[len(centers) // 2]), R=R)
            rep = check_phi(form, tr, [cyl], mode="full",
                            n_atom_intervals=6, n_window_times=4)
            assert rep.verdict == "certified"
            fits[R] = rep.constants["C6"]
        a, b = fits[8.0], fits[16.0]
        assert abs(a - b) / max(a, b) <= 0.5

    def test_window_monotonicity(self):
        # shrinking either window never increases the fitted constant
        sp, form = z1(side=129, margin=16)
        tr = alpha1_triple()
        base = CylinderSpec(x0=64, R=4.0, constants=(1.0, 2.0, 3.0, 4.0, 5.0))
        inner = CylinderSpec(x0=64, R=4.0,
                             constants=(1.2, 1.8, 3.0, 4.0, 5.0))
        later = CylinderSpec(x0=64, R=4.0,
                             constants=(1.0, 2.0, 3.2, 3.8, 5.0))
        (qm, qp) = base.windows(tr)
        samples = {}
        for name, cyl in (("base", base), ("inner", inner), ("later", later)):
            fam = caloric_poisson(form, tr, cyl, mode="necessary",
                                  n_window_times=7)
            ratios = fam.ratios()
            samples[name] = np.nanmax(ratios)
        assert samples["inner"] <= samples["base"] + 1e-9

    def test_mode_label(self):
        sp, form = z1(side=65, margin=8)
        cyl = CylinderSpec(x0=32, R=2.0)
        rep = check_phi(form, alpha1_triple(), [cyl], mode="necessary")
        assert rep.verdict == "certified-for-family"
        rep_f = check_phi(form, alpha1_triple(), [cyl], mode="full")
        assert rep_f.verdict == "certified"

    def test_full_mode_on_jump_model(self):
        # FULL-mode verdict on the diffusion+jump chain; the necessary
        # family stays dominated, and both constants are finite
        sp, form = z1(side=129, margin=32)
        tr = alpha1_triple()
        cyl = CylinderSpec(x0=64, R=4.0)
        nec = check_phi(form, tr, [cyl], mode="necessary")
        full = check_phi(form, tr, [cyl], mode="full")
        assert full.verdict == "certified"
        assert nec.constants["C6"] <= full.constants["C6"] + 1e-9
        assert np.isfinite(full.constants["C6"])


class TestRegularity:
    def test_linear_harmonics_theta_one(self):
        sp, form = z1(side=129, margin=16, with_jump=False)
        rep = check_regularity(form, diffusion_triple(), radii=[16.0],
                               eps=0.5, max_centers=1)
        assert rep.verdict == "certified"
        assert rep.constants["theta_EHR"] == 1.0
        assert rep.constants["c_EHR"] <= 2.0 / (1.0 - 0.5)

    def test_alpha1_some_positive_theta(self):
        sp, form = z1(side=129, margin=32)
        rep = check_regularity(form, alpha1_triple(), radii=[16.0, 32.0],
                               max_centers=1)
        assert rep.verdict == "certified"
        assert rep.constants["theta_EHR"] > 0.0
        assert rep.constants["theta_PHR"] > 0.0

    def test_constant_functions_unconstraining(self):
        # a constant member contributes zero increments at any theta
        sp, form = z1(side=33, margin=4, with_jump=False)
        from formlab.harnack import _theta_fit
        fn = (np.zeros(2), np.array([0.3, 0.7]), 1.0)
        theta, c = _theta_fit(fn, (1.0, 0.5), cap=32.0)
        assert theta == 1.0 and c == 0.0

    def test_single_usable_center_visited_once(self):
        # only x = 4 of a side-9 line keeps B(x, 3.5) clear of both ends;
        # asking for two centers must not sweep it twice with fresh picks
        sp, form = z1(side=9, margin=0, with_jump=False)
        rep = check_regularity(form, diffusion_triple(), radii=[3.5],
                               eps=0.5, max_centers=2)
        assert [row["x0"] for row in rep.rows] == [4]
        assert rep.ranges["ehr_functions"] == 2   # the two exterior atoms

    def test_empty_family_fails_cleanly(self):
        # eps * r below the lattice spacing leaves singleton cores
        sp, form = z1(side=33, margin=4, with_jump=False)
        rep = check_regularity(form, diffusion_triple(), radii=[1.5],
                               eps=0.5, max_centers=1)
        assert rep.verdict == "failed"
        assert "no usable family" in rep.notes

    def test_no_usable_center_computes_no_kernel(self, monkeypatch):
        # the heat-flow columns are computed for the usable centres only:
        # singleton cores leave none, so no kernel product runs
        sp, form = z1(side=33, margin=4, with_jump=False)
        products = []
        monkeypatch.setattr(form_mod, "_semigroup_product",
                            lambda *args: products.append(args))
        rep = check_regularity(form, diffusion_triple(), radii=[1.5],
                               eps=0.5, max_centers=1)
        assert rep.verdict == "failed" and products == []
