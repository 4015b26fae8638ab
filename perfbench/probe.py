"""Reference probe: a fixed few milliseconds of work that gauges the host's
current speed.

The benchmark's host is a few cores of a shared machine whose speed drifts
by 10-40% over seconds to minutes, while neighbouring milliseconds are
alike.  An untraced pass gauges the probe right before and after every
segment it times (a config's set-up, each check, rendering), and the
benchmark divides the segment's time by the mean of the two.  The ratio says
how many probe-lengths the segment took at the speed the host had just then;
``P_REF_S`` turns it back into seconds.

The probe mixes what formlab spends its time in: a symmetric
eigendecomposition, a matrix product, a vectorised ufunc and a pure-Python
loop.  It does not use formlab, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Gauged probe time on an idle host of the reference kind (2 cores of an
# Intel Xeon with SkylakeX OpenBLAS kernels, 1 BLAS thread): the normalised
# metrics are seconds at that speed.
P_REF_S = 0.0035
# Probes per gauge; a brief stall of the host slows one of them, not all.
REPEATS = 3

_rng = np.random.default_rng(20190820)
_A = _rng.standard_normal((160, 160))
_A = _A + _A.T
_B = _rng.standard_normal((200, 200))
_V = _rng.standard_normal(100_000)


def probe() -> float:
    """Run the reference work once; returns a checksum so none of it is
    skipped."""
    w, _ = np.linalg.eigh(_A)
    c = _B @ _B
    e = np.exp(_V).sum()
    s = 0
    for i in range(8000):
        s += i
    return float(w[0] + c[0, 0] + e) + s


def gauge() -> float:
    """Least seconds of ``REPEATS`` back-to-back probes."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t0)
    return best


def warm_up() -> None:
    """Gauge once, untimed, so the first timed gauge finds the BLAS and the
    ufunc loops loaded."""
    gauge()
