import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from formlab.form import _unpack


def traced(fn):
    """(fn(), traced bytes it leaves, peak traced bytes while it runs), both
    above the level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
        return out, kept - base, peak - base
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    """Peak traced bytes above the level at the call."""
    return traced(fn)[2]


def whole(table):
    """The whole kernels of a global table, read row by row through its
    ``rows`` accessor: the oracles' copy of what the readers gather."""
    at = table.rows(np.arange(table.n))
    return [at(i) for i in range(len(table.times))]


def whole_jump(form):
    """The whole jump matrix J of a form, or of a jump kernel given
    itself, unpacked from its packed upper triangle: the oracles' copy,
    which reads J past the accessors the readers use."""
    jump = getattr(form, "jump", form)
    return _unpack(jump.packed)


def _expm_kernels(form, times):
    """Independent oracle for the heat kernel: p(t) = exp(t L) Mu^{-1} by
    the exponential action on the generator, symmetrised like the spectral
    tables."""
    kernels = []
    for t in times:
        K = expm_multiply(-t * (form.A / form.mu[:, None]),
                          np.diag(1.0 / form.mu))
        kernels.append(0.5 * (K + K.T))
    return kernels


@pytest.fixture
def expm_kernels():
    return _expm_kernels
