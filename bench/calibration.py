"""Fixed reference computations that measure how fast the machine runs at
the moment.

On a shared virtual machine the CPU speed changes by up to a factor of two
over seconds to minutes, as other tenants come and go. The benchmark times
these kernels next to the library's work, in the same process, and scales
each op's time by REFERENCE_S / (its kernel's time around the op). Every
timing is then given at one reference speed, whatever the machine's speed
was during the run. The kernels use no fsolink code, so a change to the
library cannot move them.

There are two kernels, because the machine's speed does not move all kinds
of work alike. `scalar` is scalar Python integrands driven by QUADPACK, the
work of the quadrature engine. `vector` is vectorised numpy sampling, the
work of the Monte Carlo oracle. Each op names the one that is like its own
work (`Op.kernel` in workloads.py).
"""

import math
import time

import numpy as np
from scipy import integrate

# each kernel's time at the reference speed; fixed, so that runs of any
# commit are scaled to the same speed
REFERENCE_S = {"scalar": 0.010, "vector": 0.007}


def _integrand(x):
    return math.exp(-x * x) * math.erfc(0.3 - x) / (1.0 + x * x)


def _scalar():
    for k in range(60):
        integrate.quad(_integrand, -8.0, 8.0 + k * 1e-3, epsrel=1e-13, epsabs=0.0, limit=400)


def _vector():
    x = np.random.Generator(np.random.Philox(key=1)).normal(size=200_000)
    np.count_nonzero(np.exp(x) > 1.0)


KERNELS = {"scalar": _scalar, "vector": _vector}


def kernel_times():
    """Seconds taken by one run of each reference kernel, by name."""
    out = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out
