import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab.scales import (CrossoverResult, ScaleError, ScaleFunction,
                            ScaleTriple, crossover_radius, legendre_sup,
                            power_bounds)


def quad():
    return ScaleFunction.single_power(2.0)


def lin():
    return ScaleFunction.single_power(1.0)


def alpha1_triple():
    return ScaleTriple(quad(), lin())


def bisect_inverse(f, v, lo=1e-12, hi=1e12):
    # independent oracle: bisection on the monotone map
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) < v:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestEvalInverse:
    def test_forward_power(self):
        assert quad()(3.0) == pytest.approx(9.0)

    def test_inverse_power(self):
        assert quad().inverse(9.0) == pytest.approx(3.0)

    def test_min_scale_inverse_jump_branch(self):
        phi = alpha1_triple().phi
        oracle = bisect_inverse(phi, 4.0)
        assert phi.inverse(4.0) == pytest.approx(4.0)
        assert oracle == pytest.approx(4.0, rel=1e-9)

    def test_nonpositive_input_rejected(self):
        with pytest.raises(ScaleError):
            quad().inverse(0.0)
        with pytest.raises(ScaleError):
            quad()(-1.0)

    def test_roundtrip_six_decades(self):
        tr = alpha1_triple()
        grid = np.geomspace(1e-3, 1e3, 200)
        for f in (tr.phi_c, tr.phi_j, tr.phi, tr.bar_phi_c):
            back = f.inverse(f(grid))
            assert np.max(np.abs(back - grid) / grid) < 1e-10

    def test_phi_inverse_is_max_of_inverses(self):
        tr = alpha1_triple()
        for t in np.geomspace(1e-3, 1e3, 50):
            expect = max(tr.phi_c.inverse(t), tr.phi_j.inverse(t))
            assert tr.phi.inverse(t) == pytest.approx(expect, rel=1e-12)


class TestEffectiveScale:
    def test_bar_phi_c_quadratic(self):
        tr = alpha1_triple()
        assert tr.bar_phi_c(5.0) == pytest.approx(5.0)
        assert tr.m(1.0, 4.0) == pytest.approx(16.0)

    def test_m_cubic_against_bisection(self):
        tr = ScaleTriple(ScaleFunction.single_power(3.0), lin())
        m = tr.m(1.0, 2.0)
        assert m == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        # oracle: root of bar_phi_c(r/m) = t/r by bisection in m
        def defect(mm):
            return tr.bar_phi_c(2.0 / mm) - 0.5
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if defect(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert m == pytest.approx(math.sqrt(lo * hi), rel=1e-9)

    def test_defining_identity_random(self):
        tr = ScaleTriple(
            ScaleFunction.from_exponents([2.0, 3.0], [0.5]), lin()
        )
        rng = np.random.RandomState(0)
        for _ in range(100):
            t = 10 ** rng.uniform(-3, 3)
            r = 10 ** rng.uniform(-3, 3)
            m = tr.m(t, r)
            assert abs(tr.bar_phi_c(r / m) - t / r) <= 1e-10 * (t / r)

    def test_low_exponent_rejected(self):
        with pytest.raises(ScaleError):
            ScaleTriple(ScaleFunction.from_exponents([2.0, 0.9], [1.0]), lin())


class TestLegendre:
    def test_quadratic_closed_form(self):
        # calculus oracle: maximizer s = 2t/r, value r^2/(4t)
        tr = alpha1_triple()
        assert legendre_sup(tr, 2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-10)
        assert legendre_sup(tr, 3.0, 2.0, 1.0) == pytest.approx(
            9.0 / 8.0, rel=1e-10
        )

    def test_r_to_zero_limit(self):
        tr = alpha1_triple()
        vals = [legendre_sup(tr, r, 1.0, 1.0) for r in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] >= 0.0
        assert vals[2] < 1e-10

    def test_ratio_bracket_quadratic_exact(self):
        tr = alpha1_triple()
        rng = np.random.RandomState(1)
        for _ in range(200):
            t = 10 ** rng.uniform(-3, 3)
            r = 10 ** rng.uniform(-3, 3)
            ratio = legendre_sup(tr, r, t, 1.0) / tr.m(t, r)
            assert ratio == pytest.approx(0.25, rel=1e-8)

    def test_ratio_bracket_cubic(self):
        # single power e: ratio = (1 - 1/e) e^{-1/(e-1)} identically
        tr = ScaleTriple(ScaleFunction.single_power(3.0), lin())
        expect = (2.0 / 3.0) / math.sqrt(3.0)
        rng = np.random.RandomState(2)
        for _ in range(100):
            t = 10 ** rng.uniform(-3, 3)
            r = 10 ** rng.uniform(-3, 3)
            ratio = legendre_sup(tr, r, t, 1.0) / tr.m(t, r)
            assert ratio == pytest.approx(expect, rel=5e-2)

    def test_ratio_bracket_piecewise(self):
        # mixed exponents: the per-exponent closed forms bracket the ratio
        def single(e):
            return (1.0 - 1.0 / e) * e ** (-1.0 / (e - 1.0))

        pc = ScaleFunction.from_exponents([2.0, 3.0], [1.0])
        tr = ScaleTriple(pc, lin())
        lo_ref, hi_ref = single(2.0), single(3.0)
        lo, hi = math.inf, 0.0
        for t in np.geomspace(1e-3, 1e3, 40):
            for r in np.geomspace(1e-3, 1e3, 40):
                q = legendre_sup(tr, r, t, 1.0) / tr.m(t, r)
                lo, hi = min(lo, q), max(hi, q)
        assert lo >= lo_ref - 1e-9
        assert hi <= hi_ref + 1e-9


class TestCrossover:
    def test_bisection_residual(self):
        tr = alpha1_triple()
        out = crossover_radius(tr, 1e-4)
        assert not out.degenerate
        assert out.residual < 1e-10
        # oracle: monotone bisection on the defining equation
        def g(r):
            return math.exp(tr.m(1e-4, r)) - r / 1e-4
        lo, hi = tr.phi_c.inverse(1e-4), 1.0
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert out.r_star == pytest.approx(math.sqrt(lo * hi), rel=1e-6)

    def test_degenerate_near_one(self):
        out = crossover_radius(alpha1_triple(), 0.999)
        assert out.degenerate
        assert "degenerate" in out.reason

    def test_bracket_exponents_symmetric_for_pure_quadratic(self):
        # beta1 = beta2 = 2 gives both log exponents 1/2
        tr = alpha1_triple()
        out = crossover_radius(tr, 1e-4)
        pb = power_bounds(tr.phi_c)
        e_lo = (pb.beta1 - 1.0) / pb.beta2
        e_hi = (pb.beta2 - 1.0) / pb.beta1
        assert e_lo == pytest.approx(0.5)
        assert e_hi == pytest.approx(0.5)
        assert out.c3 == pytest.approx(out.c4)
        lo, hi = out.bracket
        assert lo <= out.r_star * (1 + 1e-12) and out.r_star <= hi * (1 + 1e-12)


class TestPowerBounds:
    def test_min_scale(self):
        pb = power_bounds(alpha1_triple().phi)
        assert (pb.beta1, pb.beta2) == (1.0, 2.0)

    def test_single_power(self):
        pb = power_bounds(ScaleFunction.single_power(1.7))
        assert pb.beta1 == pb.beta2 == 1.7
        assert pb.c1 == pytest.approx(1.0, abs=1e-9)
        assert pb.c2 == pytest.approx(1.0, abs=1e-9)

    def test_mixed_exponents_ratio_sweep(self):
        f = ScaleFunction.from_exponents([2.0, 0.5], [1.0])
        pb = power_bounds(f)
        assert (pb.beta1, pb.beta2) == (0.5, 2.0)
        # exhaustive check on a log grid that the certified sandwich holds
        grid = np.geomspace(1e-3, 1e3, 120)
        vals = f(grid)
        for i in range(0, len(grid), 7):
            for j in range(i + 1, len(grid), 7):
                ratio = vals[j] / vals[i]
                s = grid[j] / grid[i]
                assert ratio >= pb.c1 * s ** pb.beta1 * (1 - 1e-9)
                assert ratio <= pb.c2 * s ** pb.beta2 * (1 + 1e-9)

    def test_bar_scale_exponents_shift_by_one(self):
        phi_c = ScaleFunction.from_exponents([2.0, 3.0], [2.0])
        tr = ScaleTriple(phi_c, lin())
        pb = power_bounds(tr.bar_phi_c)
        assert (pb.beta1, pb.beta2) == (1.0, 2.0)


class TestConstruction:
    def test_normalization_warning(self):
        with pytest.warns(UserWarning, match="rescaled"):
            f = ScaleFunction.from_config(
                [{"break": 0, "coeff": 2.0, "exp": 2.0}]
            )
        assert f(1.0) == pytest.approx(1.0)

    def test_triple_requires_normalization(self):
        with pytest.raises(ScaleError):
            ScaleTriple(ScaleFunction(((0.0, 2.0, 2.0),)), lin())

    def test_ordering_violation_rejected(self):
        # phi_c above phi_j on (0, 1] is not allowed
        with pytest.raises(ScaleError):
            ScaleTriple(lin(), quad())

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(ScaleError):
            ScaleFunction(((0.0, 1.0, 2.0), (1.0, 3.0, 1.0)))

    def test_config_roundtrip(self):
        f = ScaleFunction.from_exponents([0.5, 1.5], [32.0])
        spec = [{"break": b, "coeff": c, "exp": e} for b, c, e in f.pieces]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # f(1) = 1: nothing is rescaled
            g = ScaleFunction.from_config(spec)
        for r in (0.3, 1.0, 7.0, 200.0):
            assert g(r) == pytest.approx(f(r), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(1.05, 4.0), st.floats(-2.5, 2.5))
    def test_monotone_increasing(self, ej, ec, logr):
        tr = ScaleTriple(ScaleFunction.single_power(ec),
                         ScaleFunction.single_power(min(ej, ec)))
        r = 10.0 ** logr
        assert tr.phi(r * 1.01) > tr.phi(r)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.1, 4.0), st.floats(0.3, 1.0), st.floats(0.3, 1.0),
           st.floats(1.5, 10.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_random_triple_identities(self, ec, fj1, fj2, brk, logt, logr):
        # random valid pair: phi_j exponents pinned below phi_c's by the
        # fractions fj1/fj2, regime break above the crossing at 1
        phi_c = ScaleFunction.single_power(ec)
        phi_j = ScaleFunction.from_exponents(
            [fj1 * ec, fj2 * ec], [brk]
        )
        tr = ScaleTriple(phi_c, phi_j)
        t = 10.0 ** logt
        r = 10.0 ** logr
        assert tr.phi.inverse(t) == pytest.approx(
            max(tr.phi_c.inverse(t), tr.phi_j.inverse(t)), rel=1e-10
        )
        m = tr.m(t, r)
        assert tr.bar_phi_c(r / m) == pytest.approx(t / r, rel=1e-10)
        assert tr.phi.inverse(tr.phi(r)) == pytest.approx(r, rel=1e-10)
