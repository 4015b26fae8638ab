"""The blocks primitive of the kernel engine: bit-equal slices of the full
kernels, an in-place symmetrisation bit-equal to the two-temporary one, and
traced memory bounds for the consumers that stream through it."""

import tracemalloc

import numpy as np
import pytest

from formlab.form import (JumpKernel, _symmetrise, assemble, heat_kernel,
                          kernel_blocks, kernel_certificates, meyer_check)
from formlab.harnack import CylinderSpec, check_phi
from formlab.scales import ScaleFunction, ScaleTriple
from formlab.space import build_space


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
    table = heat_kernel(form, times)
    assert len(got) == len(blocks)
    for slabs, (rows, cols) in zip(got, blocks):
        assert len(slabs) == len(times)
        for slab, K in zip(slabs, table.kernels):
            assert np.array_equal(slab, K[np.ix_(rows, cols)])


def test_stable_like_constant_field_equals_full_field():
    sp = build_space("lattice_box", dim=1, side=40, margin=4)
    psi = ScaleFunction.single_power(1.0)
    got = JumpKernel.stable_like(sp, psi, coeff=1.7, cmin=0.3, cmax=0.3)
    n = sp.n
    off = ~np.eye(n, dtype=bool)
    V = np.array([sp.volumes(x, sp.metric[x] + 1e-9) for x in range(n)])
    psid = np.ones_like(sp.metric)
    psid[off] = psi(sp.metric[off])
    want = np.zeros((n, n))
    want[off] = (1.7 * np.full((n, n), 0.3)[off]
                 / (np.sqrt(V[off] * V.T[off]) * psid[off]))
    assert np.array_equal(got.matrix, 0.5 * (want + want.T))


# -- traced memory -------------------------------------------------------------


def traced_peak(fn):
    """Peak traced bytes above the level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("given", [False, True])
def test_meyer_check_holds_one_transient_kernel(given):
    # the truncated form and its basis (3 n^2), one kernel in the making
    # (2 n^2) and the interior slices measure about 6.3 n^2 doubles;
    # holding the three truncated kernels as well needs more than 9 n^2
    n = 256
    sp, form = z1(side=n, margin=64)
    form.spectral()
    times = [0.5, 1.0, 2.0]
    kernels = heat_kernel(form, times).kernels if given else None
    peak = traced_peak(lambda: meyer_check(form, alpha1_triple(), 8.0, times,
                                           kernels=kernels))
    assert peak <= 8 * n * n * 8


def test_kernel_certificates_drop_each_temporary():
    # a half-time kernel, its mu-scaled copy and their product: keeping the
    # last product or |K - K^T| alive into the next time adds an n^2
    n = 256
    sp, form = z1(side=n, margin=16)
    table = heat_kernel(form, [0.5, 1.0, 2.0])
    peak = traced_peak(lambda: kernel_certificates(form, table))
    assert peak <= 3.5 * n * n * 8
