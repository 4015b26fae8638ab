import math

import numpy as np
import pytest

import formlab.envelopes as envelopes
from formlab.cli import SuiteContext, load_config
from formlab.envelopes import (_EnvelopeGrid, chain_lower_check,
                               check_pc_equivalence, diag_checks,
                               dominance_map, fit_hk, tail_probability_check,
                               usable_times)
from formlab.form import JumpKernel, assemble, heat_kernel
from formlab.scales import ScaleFunction, ScaleTriple, legendre_sup
from formlab.space import build_space
from conftest import whole


def alpha1_triple():
    return ScaleTriple(ScaleFunction.single_power(2.0),
                       ScaleFunction.single_power(1.0))


def diffusion_triple():
    p = ScaleFunction.single_power(2.0)
    return ScaleTriple(p, p)


def model(side=128, margin=32, with_jump=True):
    sp = build_space("lattice_box", dim=1, side=side, margin=margin)
    jump = JumpKernel.power_law(sp, alpha=1.0) if with_jump else None
    return sp, assemble(sp, 1.0, jump)


def envelope_arrays(grid, t, dilation=1.0):
    """Every envelope piece on the grid's pairs at one time: Vc, Vj, Vphi
    per x and pc, pj per pair."""
    Vc, pc = grid.local_profile(t * dilation)
    Vj, pj = grid.jump_profile(t)
    Vphi = grid.space.volumes(grid.xs, grid.scales.phi.inverse(t))
    return {"Vc": Vc, "Vj": Vj, "Vphi": Vphi, "pc": pc, "pj": pj}


def one_row(tr, sp, x, ys, t):
    """The envelope pieces from center x to each of ys at time t."""
    return envelope_arrays(_EnvelopeGrid(tr, sp, [x], list(ys)), t)


class TestEnvelopeEval:
    def test_diagonal_values(self):
        tr = alpha1_triple()
        sp, _ = model(side=33, margin=4)
        x = 16
        t = 4.0
        env = one_row(tr, sp, x, [x], t)
        assert env["pc"][0, 0] == pytest.approx(
            1.0 / sp.volume(x, tr.phi_c.inverse(t)))
        assert env["Vphi"][0] == sp.volume(x, tr.phi.inverse(t))

    def test_legendre_exponent_quadratic(self):
        # calculus oracle: exponent d^2/(4t) = 1 at d = 2, t = 1
        tr = alpha1_triple()
        assert legendre_sup(tr, 2.0, 1.0) == pytest.approx(1.0, rel=1e-9)
        # and m(t, d) = d^2 / t, four times the Legendre exponent
        assert tr.m(1.0, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_pj_near_diagonal_branch(self):
        tr = alpha1_triple()
        sp, _ = model(side=65, margin=8)
        x, t = 32, 8.0
        # d <= phi_j^{-1}(t): the min attains the diagonal branch
        env = one_row(tr, sp, x, [x, x + 1, x + 4], t)
        diag = 1.0 / sp.volume(x, tr.phi_j.inverse(t))
        assert env["pj"][0, 1:] == pytest.approx([diag, diag])
        assert env["pj"][0, 0] > 0.0

    def test_monotone_in_distance(self):
        tr = alpha1_triple()
        sp, _ = model(side=65, margin=8)
        x, t = 32, 2.0
        env = one_row(tr, sp, x, range(x + 1, x + 12), t)
        pc, pj = env["pc"][0], env["pj"][0]
        assert np.all(pc[:-1] > pc[1:])
        assert np.all(pj[:-1] >= pj[1:] - 1e-15)


class TestPcEquivalence:
    def test_quadratic_ratio_exact_quarter(self):
        out = check_pc_equivalence(alpha1_triple(), n_per_axis=12)
        assert out["ratio_min"] == pytest.approx(0.25, rel=1e-7)
        assert out["ratio_max"] == pytest.approx(0.25, rel=1e-7)

    def test_cubic_ratio_in_oracle_bracket(self):
        tr = ScaleTriple(ScaleFunction.single_power(3.0),
                         ScaleFunction.single_power(1.0))
        out = check_pc_equivalence(tr, n_per_axis=10)
        expect = (2.0 / 3.0) / math.sqrt(3.0)
        assert out["ratio_min"] == pytest.approx(expect, rel=0.05)
        assert out["ratio_max"] == pytest.approx(expect, rel=0.05)

    def test_large_time_forms_agree(self):
        # t >> phi_c(d): both exponents vanish, the two forms coincide
        tr = alpha1_triple()
        sp, _ = model(side=33, margin=4)
        x, y, t = 16, 17, 1e6
        explicit = one_row(tr, sp, x, [y], t)["pc"][0, 0]
        legendre = (math.exp(-legendre_sup(tr, 1.0, t))
                    / sp.volume(x, tr.phi_c.inverse(t)))
        assert legendre == pytest.approx(explicit, rel=1e-3)


class TestFitHK:
    def test_alpha1_certifies(self):
        sp, form = model()
        table = heat_kernel(form, list(np.geomspace(1.0, 2.5, 4)))
        rep = fit_hk(table, alpha1_triple(), sp, mode="HK")
        assert rep.verdict == "certified"
        assert rep.constants["c3"] / rep.constants["c1"] <= 200.0

    def test_no_interior_point_certifies_nothing(self):
        # a margin wider than the line leaves no interior point, so no time
        # is usable; an upper-only fit over no triple would certify c3 = 0
        sp, form = model(side=9, margin=100, with_jump=False)
        table = heat_kernel(form, [0.5, 1.0])
        assert len(sp.interior()) == 0 and usable_times(table, sp) == []
        rep = fit_hk(table, diffusion_triple(), sp, mode="UHK")
        assert (rep.verdict, rep.constants) == ("failed", {})
        assert rep.notes == envelopes.NO_TIME

    def test_posthoc_sandwich_holds(self):
        sp, form = model(side=129, margin=32)
        tr = alpha1_triple()
        times = [1.0, 1.6]
        table = heat_kernel(form, times)
        params = fit_hk(table, tr, sp, mode="HK").constants
        xs = sp.interior()
        keep = usable_times(table, sp)
        grid = _EnvelopeGrid(tr, sp, xs, xs)
        kernels = whole(table)
        for i in keep:
            t = times[i]
            K = kernels[i][np.ix_(xs, xs)]
            up = envelope_arrays(grid, t, dilation=params["c4"])
            U = np.minimum(np.minimum(1.0 / up["Vc"], 1.0 / up["Vj"])[:, None],
                           up["pc"] + up["pj"])
            assert np.all(K <= params["c3"] * U * (1 + 1e-9))
            lo = envelope_arrays(grid, t, dilation=params["c2"])
            L = np.minimum(np.minimum(1.0 / lo["Vc"], 1.0 / lo["Vj"])[:, None],
                           lo["pc"] + lo["pj"])
            floor = 1e-13 * kernels[i].max()
            ok = L > floor
            assert np.all(K[ok] >= params["c1"] * L[ok] * (1 - 1e-9))

    def test_gaussian_sandwich_diffusion_only(self):
        tr = diffusion_triple()
        fits = {}
        for side in (128, 256):
            sp, form = model(side=side, margin=32, with_jump=False)
            table = heat_kernel(form, list(np.geomspace(4.0, 64.0, 5)))
            rep = fit_hk(table, tr, sp, mode="HK_local")
            assert rep.verdict == "certified"
            fits[side] = rep.constants
        for attr in ("c1", "c3"):
            a = fits[128][attr]
            b = fits[256][attr]
            assert abs(a - b) / max(a, b) <= 0.3

    def test_uhk_weak_follows_from_hk(self):
        sp, form = model(side=129, margin=32)
        tr = alpha1_triple()
        table = heat_kernel(form, [1.0, 1.6])
        rep_hk = fit_hk(table, tr, sp, mode="HK")
        rep_w = fit_hk(table, tr, sp, mode="UHK_weak")
        assert rep_hk.verdict == "certified"
        assert rep_w.verdict == "certified"
        assert np.isfinite(rep_w.constants["c3"])

    def test_upper_only_mode_matches_full_upper(self):
        sp, form = model(side=129, margin=32)
        tr = alpha1_triple()
        table = heat_kernel(form, [1.0, 1.6])
        rep = fit_hk(table, tr, sp, mode="HK")
        rep_u = fit_hk(table, tr, sp, mode="UHK")
        assert rep_u.verdict == "certified"
        assert rep_u.constants["c3"] == pytest.approx(rep.constants["c3"],
                                                      rel=1e-12)

    @pytest.mark.parametrize("name,mode", [("z1_mini", "HK"),
                                           ("gasket_walk", "HK"),
                                           ("gasket_walk", "HK_local")])
    def test_ratio_rows_reproduce_the_fit(self, name, mode, monkeypatch):
        # at stride 1 the rows cover the fit's grid, with the sandwich of
        # the fitted mode and nan where the fit excludes a triple
        monkeypatch.setattr(envelopes, "RATIO_ROWS", 10 ** 9)
        ctx = SuiteContext(load_config(name))
        rep = fit_hk(ctx.table, ctx.scales, ctx.space, mode=mode)
        rows = rep.rows
        n_xs = len(ctx.space.interior())
        assert len(rows) == len(rep.ranges["times_used"]) * n_xs ** 2
        assert (np.nanmax([r["kernel_over_upper"] for r in rows])
                == rep.constants["c3"])
        assert (np.nanmin([r["kernel_over_lower"] for r in rows])
                == rep.constants["c1"])

    def test_envelope_time_domain(self):
        sp, _ = model(side=33, margin=4)
        with pytest.raises(ValueError):
            one_row(alpha1_triple(), sp, 1, [2], 0.0)

    def test_constants_nest_hk_hkminus_nl(self):
        sp, form = model(side=129, margin=32)
        tr = alpha1_triple()
        table = heat_kernel(form, [1.0, 1.6])
        params = fit_hk(table, tr, sp, mode="HK").constants
        params_m = fit_hk(table, tr, sp, mode="HK_minus",
                          indicator=1.0).constants
        rep_d = diag_checks(table, tr, sp, form, ndl_radii=(8.0,),
                            nl_constant=1.0)
        assert params["c1"] > 0.0
        assert params_m["c0"] > 0.0
        # NL region is the near part of the HK_minus region with the same
        # profile, so its inf cannot be smaller
        assert rep_d.constants["c_NL"] >= params_m["c0"] - 1e-12


class TestDiagChecks:
    def test_small_time_uhkd_finite(self):
        sp, form = model(side=129, margin=32)
        table = heat_kernel(form, [1.0, 2.0])
        rep = diag_checks(table, alpha1_triple(), sp, form, ndl_radii=(8.0,))
        assert rep.verdict == "certified"
        assert 0.0 < rep.constants["c_UHKD"] < np.inf

    def test_three_node_ball_equals_space(self):
        sp = build_space("lattice_box", dim=1, side=3, margin=0)
        form = assemble(sp, 1.0, None)
        table = heat_kernel(form, [0.5])
        # B = all of M: Dirichlet kernel equals the global kernel
        KB = heat_kernel(form, [0.5], domain=np.arange(3)).kernels[0]
        assert np.allclose(KB, whole(table)[0])

    def test_ndl_stability_across_radii(self):
        sp, form = model(side=256, margin=32)
        table = heat_kernel(form, list(np.geomspace(1.0, 2.5, 3)))
        tr = alpha1_triple()
        vals = [diag_checks(table, tr, sp, form,
                            ndl_radii=(r,)).constants["c_NDL"]
                for r in (16.0, 32.0, 64.0)]
        assert max(vals) / min(vals) <= 1.3
        assert all(v > 0.0 for v in vals)


class TestDominance:
    def test_large_time_jump_dominates(self):
        sp, _ = model(side=65, margin=8)
        tr = alpha1_triple()
        dm = dominance_map(tr, sp, 2.0)
        off = dm.labels[np.triu_indices_from(dm.labels, k=3)]
        assert np.all(off == 2)

    def test_near_diagonal_class(self):
        sp, _ = model(side=65, margin=8)
        tr = alpha1_triple()
        dm = dominance_map(tr, sp, 1.0)
        assert np.all(np.diag(dm.labels) == 0)

    def test_crossover_in_bracket_small_time(self):
        sp, _ = model(side=256, margin=32)
        tr = alpha1_triple()
        t = tr.phi_c(8.0) * 1e-2
        dm = dominance_map(tr, sp, t)
        assert dm.c3 is not None and np.isfinite(dm.c3)
        assert dm.c4 is not None and np.isfinite(dm.c4)
        cross = dm.crossover[np.isfinite(dm.crossover)]
        lo = dm.c3 * tr.phi_c.inverse(t) * dm.log_ratio ** 0.5
        hi = dm.c4 * tr.phi_c.inverse(t) * dm.log_ratio ** 0.5
        assert np.all(cross >= lo - 1e-9) and np.all(cross <= hi + 1e-9)


class TestTailProbability:
    def test_jump_model(self):
        sp, form = model(side=128, margin=32)
        tr = alpha1_triple()
        table = heat_kernel(form, list(np.geomspace(1.0, 2.5, 4)))
        rep = tail_probability_check(table, tr, sp, radii=[4.5, 8.5, 16.5])
        assert rep.verdict == "certified"
        assert 0.0 < rep.constants["eta"] <= 1.0
        assert np.isfinite(rep.constants["c1"])

    def test_diffusion_control_jump_coefficient_zero(self):
        sp, form = model(side=128, margin=32, with_jump=False)
        tr = diffusion_triple()
        table = heat_kernel(form, list(np.geomspace(4.0, 64.0, 5)))
        rep = tail_probability_check(table, tr, sp, radii=[4.5, 8.5, 16.5])
        assert rep.verdict == "certified"
        assert rep.constants["c_jump"] < 1e-12

    def test_trivial_inside_scale_radius(self):
        # r <= phi^{-1}(t): the tail bound holds with c = e^{a1 m}
        tr = alpha1_triple()
        sp, form = model(side=65, margin=8)
        (K,) = whole(heat_kernel(form, [4.0]))
        x = 32
        r = 2.0   # below phi^{-1}(4) = 4
        mass = K[x][sp.metric[x] >= r].sum()
        a1 = 0.25
        assert mass <= math.exp(a1) * math.exp(-a1 * min(tr.m(4.0, r), 1.0))


class TestChainLower:
    def test_single_step_reduces_to_nl(self):
        sp, form = model(side=65, margin=16, with_jump=False)
        tr = diffusion_triple()
        table = heat_kernel(form, [4.0])
        rep = chain_lower_check(table, tr, sp, c0=1.0)
        assert rep.verdict == "certified"
        assert 0.0 < rep.constants["c6"] <= 1.0

    def test_diffusion_log_ratio_regression(self):
        # oracle: regression of log(p V / c5) on m is stable in the band
        # d / phi_c^{-1}(t) in [2, 8]
        sp, form = model(side=256, margin=32, with_jump=False)
        tr = diffusion_triple()
        table = heat_kernel(form, list(np.geomspace(8.0, 64.0, 4)))
        rep = chain_lower_check(table, tr, sp, c0=2.0, m_cap=64.0)
        assert rep.verdict == "certified"
        rows = [r for r in rep.rows if 4.0 <= r["m"] <= 64.0]
        bases = np.array([r["base"] for r in rows])
        assert bases.max() / bases.min() <= 3.0
        assert 0.3 <= rep.constants["c6"] <= 1.0

    def test_gasket_walk_finite_constants(self):
        g = build_space("gasket", level=5, margin=8)
        beta = math.log(5) / math.log(2)
        tr = ScaleTriple(ScaleFunction.single_power(beta),
                         ScaleFunction.single_power(beta))
        form = assemble(g, 1.0, None)
        table = heat_kernel(form, [2.0, 4.0, 8.0])
        rep = chain_lower_check(table, tr, g, c0=1.5, m_cap=40.0)
        assert rep.verdict == "certified"
        assert 0.0 < rep.constants["c6"] < 1.0
        assert np.isfinite(rep.constants["c5"])
