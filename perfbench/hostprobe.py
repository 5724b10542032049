"""Host probes: fixed work, timed before every call, to scale call times.

The benchmark shares a small virtual machine with other tenants, and the
host's speed swings by up to 2x in spells of seconds to minutes.  A probe
is fixed numpy and pure-Python work that lives here, not in the package, so
no change to the package can change it.  A slow spell slows the probes
taken around a call as it slows the call, and dividing by the probe's
slowdown takes it out.

Two mixes, each like the work that dominates the workloads that use it:

- ``mixed``: small LAPACK ``eigvals`` (40x40), dense 400x400 matvecs, a
  pure-Python loop and small numpy updates; per-cell plumbing, small
  eigenproblems and the steppers.
- ``dense``: dense 400x400 matvecs and a 300x300 matrix product; large
  dense LAPACK, whose blocked kernels run on the BLAS threads.
"""

import statistics
import time

import numpy as np

# each call is scaled by the median probe of the 2 * NEIGHBOURS + 1 calls
# around it
NEIGHBOURS = 3

_rng = np.random.default_rng(0)
_SMALL = _rng.random((40, 40))
_DENSE = _rng.random((400, 400))
_VECTOR = _rng.random(400)
_SQUARE = _rng.random((300, 300))


def _matvecs():
    for _ in range(10):
        _DENSE @ _VECTOR


def probe_mixed():
    """Seconds taken by the ``mixed`` probe."""
    start = time.perf_counter()
    for _ in range(2):
        np.linalg.eigvals(_SMALL)
    _matvecs()
    total = 0
    for i in range(5000):
        total += i * i % 7
    x = np.zeros(200)
    for _ in range(200):
        x = x * 0.5 + 1.0
    return time.perf_counter() - start


def probe_dense():
    """Seconds taken by the ``dense`` probe."""
    start = time.perf_counter()
    _matvecs()
    _SQUARE @ _SQUARE
    return time.perf_counter() - start


# probe and its median time at the reference speed, measured on a 2-core
# x86-64 virtual machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31
PROBES = {
    "mixed": (probe_mixed, 2.8e-3),
    "dense": (probe_dense, 1.7e-3),
}


def host_factors(probes, reference_s):
    """How much slower than the reference the host was at each call.

    `probes` holds the probe's seconds taken just before each call, in call
    order; a call's factor is the median of its own and its neighbours'
    probes over `reference_s`, so that one disturbed probe does not decide it.
    """
    k = NEIGHBOURS
    return [statistics.median(probes[max(0, j - k): j + k + 1]) / reference_s
            for j in range(len(probes))]
