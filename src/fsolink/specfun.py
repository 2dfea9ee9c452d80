"""Complementary error function, Q-function, and the two tail approximations
used inside the average error-rate integrals.

All functions are pure and accept scalars or numpy arrays.
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
erfcx = _special.erfcx  # exp(z^2) erfc(z), the ufunc scipy.special exports
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_NEG_BRANCH_RATE = 2.0 * math.pi / math.sqrt(6.0)


def erfc(z):
    """erfc(z) = (2/sqrt(pi)) * integral of exp(-t^2) from z to infinity."""
    if np.isscalar(z):
        return math.erfc(z)
    return _special.erfc(z)


def q_function(z):
    """Gaussian tail probability Q(z) = erfc(z / sqrt(2)) / 2."""
    if np.isscalar(z):
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    return 0.5 * _special.erfc(np.asarray(z) / math.sqrt(2.0))


def erfc_piecewise_approx(z):
    """Two-branch erfc approximation, tight in both tails.

    For z >= 0:  (2/sqrt(pi)) exp(-z^2) / (z + sqrt(z^2 + 4/pi)).
    For z < 0:   1 + (exp(-2 pi z / sqrt(6)) - 1) / (exp(-2 pi z / sqrt(6)) + 1),
    i.e. 2 / (1 + exp(2 pi z / sqrt(6))), which avoids overflow for large -z.
    Both branches evaluate to exactly 1 at z = 0.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = erfc_piecewise_positive(z[pos])
    out[~pos] = erfc_piecewise_negative(z[~pos])
    return out[0] if scalar else out


def erfc_piecewise_positive(z):
    """The z >= 0 branch of erfc_piecewise_approx."""
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z) * erfcx_piecewise_approx(z)


def erfc_piecewise_negative(z):
    """The z < 0 branch of erfc_piecewise_approx: 2 / (1 + exp(2 pi z / sqrt(6)))."""
    return 2.0 / (1.0 + np.exp(_NEG_BRANCH_RATE * np.asarray(z, dtype=float)))


def erfcx_piecewise_approx(z):
    """exp(z^2) times the positive branch of erfc_piecewise_approx, for z >= 0:
    (2/sqrt(pi)) / (z + sqrt(z^2 + 4/pi)), finite where exp(-z^2) underflows."""
    z = np.asarray(z, dtype=float)
    out = _TWO_OVER_SQRT_PI / (z + np.sqrt(z * z + 4.0 / math.pi))
    return float(out) if out.ndim == 0 else out


def erfc_simple_tail(z):
    """One-term asymptotic erfc(z) ~ exp(-z^2) / (z sqrt(pi)), valid only for z > 0.

    Raises ValueError for z <= 0: the form diverges at 0 and is meaningless
    for negative arguments.
    """
    z = np.asarray(z, dtype=float)
    out = np.exp(-z * z) * erfcx_simple_tail(z)
    return float(out) if out.ndim == 0 else out


def erfcx_simple_tail(z):
    """exp(z^2) times erfc_simple_tail: 1 / (z sqrt(pi)), for z > 0 only."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("erfc_simple_tail requires z > 0")
    out = 1.0 / (z * math.sqrt(math.pi))
    return float(out) if out.ndim == 0 else out
