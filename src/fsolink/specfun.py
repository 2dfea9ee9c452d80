"""Complementary error function and the two tail approximations used inside
the average error-rate integrals.

All functions are pure and accept scalars or numpy arrays. A scalar gives a
numpy.float64 (a float), an array an array, from one code path per function.
"""

from __future__ import annotations

import math
import os
import sys
import types

import numpy as np


def _scipy_ufuncs():
    """scipy.special, or where it is not imported yet its ufunc extension
    alone, imported through a bare stand-in for the package: the package's
    __init__ loads scipy's array-API layer, most of a start's time. A later
    `import scipy.special` runs the real __init__ and reuses the extension."""
    if "scipy.special" not in sys.modules:
        import scipy
        sys.modules["scipy.special"] = bare = types.ModuleType("scipy.special")
        bare.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        try:
            from scipy.special import _ufuncs
            return _ufuncs
        except ImportError:
            pass
        finally:
            del sys.modules["scipy.special"]
    from scipy import special
    return special


_special = _scipy_ufuncs()
# the ufuncs scipy.special exports: erfc(z) = (2/sqrt(pi)) * integral of
# exp(-t^2) from z to infinity, exp(z^2) erfc(z), and the confluent
# hypergeometric 1F1, regularized lower and upper incomplete gamma and
# log-gamma functions of the pointing-integrated oracle
erfc, erfcx, hyp1f1, gammainc, gammaincc, gammaln = (
    _special.erfc, _special.erfcx, _special.hyp1f1, _special.gammainc, _special.gammaincc,
    _special.gammaln)
# the approximations' constants as 0-d arrays: numpy converts a Python float
# operand on every call, which costs a small call more than the arithmetic
_ONE, _TWO, _FOUR_OVER_PI, _TWO_OVER_SQRT_PI, _NEG_BRANCH_RATE = (
    np.array(x) for x in (1.0, 2.0, 4.0 / math.pi, 2.0 / math.sqrt(math.pi),
                          2.0 * math.pi / math.sqrt(6.0)))


def erfc_piecewise_positive(z):
    """The z >= 0 branch of the two-branch erfc approximation, tight in both
    tails: (2/sqrt(pi)) exp(-z^2) / (z + sqrt(z^2 + 4/pi)), which is exp(-z^2)
    times erfcx_piecewise_approx. Both branches are exactly 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z) * erfcx_piecewise_approx(z)


def erfc_piecewise_negative(z):
    """The z < 0 branch: 1 + (e^x - 1) / (e^x + 1) at x = -2 pi z / sqrt(6), taken as
    2 / (1 + exp(2 pi z / sqrt(6))), which does not overflow at large -z; 1 at z = 0."""
    return _TWO / (_ONE + np.exp(_NEG_BRANCH_RATE * np.asarray(z, dtype=float)))


def erfcx_piecewise_approx(z):
    """exp(z^2) times erfc_piecewise_positive, for z >= 0:
    (2/sqrt(pi)) / (z + sqrt(z^2 + 4/pi)), finite where exp(-z^2) underflows."""
    z = np.asarray(z, dtype=float)
    return _TWO_OVER_SQRT_PI / (z + np.sqrt(z * z + _FOUR_OVER_PI))


def erfc_simple_tail(z):
    """One-term asymptotic erfc(z) ~ exp(-z^2) / (z sqrt(pi)), valid only for z > 0.

    Raises ValueError for z <= 0: the form diverges at 0 and is meaningless
    for negative arguments.
    """
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z) * erfcx_simple_tail(z)


def erfcx_simple_tail(z):
    """exp(z^2) times erfc_simple_tail: 1 / (z sqrt(pi)), for z > 0 only."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("erfc_simple_tail requires z > 0")
    return 1.0 / (z * math.sqrt(math.pi))
