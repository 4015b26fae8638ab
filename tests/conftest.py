import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply


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
