"""Adaptive 1-D integration on finite and semi-infinite intervals, a batched
Gauss-Kronrod integrator for many integrals at once, and monotone-curve root
finding for one curve or many in lockstep.

`integrate` is backed by QUADPACK (scipy.integrate.quad, a Gauss-Kronrod
adaptive rule), which `quadpack` imports on its first call, and root finding
by Brent's method (Brent, Algorithms for Minimization without Derivatives,
1973), both wrapped behind error-reporting contracts. `integrate_panels`
evaluates the integrand of a whole batch of integrals as one numpy array per
round of bisection, and `brentq_lanes` the functions of a whole batch of
roots as one call per step.
"""

from __future__ import annotations

import math

import numpy as np


class QuadratureError(RuntimeError):
    """Integration did not converge; carries the best estimate so far."""

    def __init__(self, message, value=math.nan, error_estimate=math.inf):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class BracketError(ValueError):
    """The supplied interval does not bracket the target value."""


_quad = None  # scipy.integrate.quad, bound by quadpack on its first call


def quadpack(f, lo, hi, **options):
    """scipy.integrate.quad(f, lo, hi, **options).

    scipy.integrate is imported on the first call and bound once: only
    `integrate` and the nested oracle use QUADPACK, and the import costs
    about a third of a second.
    """
    global _quad
    if _quad is None:
        from scipy.integrate import quad as _quad
    return _quad(f, lo, hi, **options)


def integrate(f, lo, hi, split_points=()):
    """Integrate f over [lo, hi], hi may be +inf, by QUADPACK.

    Splits the domain at the split_points lying strictly inside (lo, hi),
    so integrand breakpoints (e.g. a piecewise kink) land on panel edges,
    and integrates each piece to epsrel 1e-11 and epsabs 1e-300 in at most
    2,000 subdivisions. Returns (value, error_estimate); raises
    QuadratureError on non-convergence or NaN.
    """
    edges = [lo, *sorted(p for p in split_points if lo < p < hi), hi]
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges, edges[1:]):
        value, err, _, *message = quadpack(f, a, b, epsabs=1e-300, epsrel=1e-11, limit=2000,
                                           full_output=True)
        if message:
            raise QuadratureError(message[0], value=value, error_estimate=err)
        if math.isnan(value):
            raise QuadratureError("integrand produced NaN", value=value, error_estimate=err)
        total += value
        total_err += err
    return total, total_err


def find_crossing(curve, target, lo, hi, tol=1e-4):
    """Locate x in [lo, hi] with curve(x) = target for a continuous monotone curve.

    tol is in the x domain. Each endpoint is evaluated once. Raises
    BracketError when curve(lo), curve(hi) are not finite or do not bracket
    the target, and QuadratureError when the root is not found to tol in
    100 steps.
    """
    if not (lo < hi):
        raise BracketError("lo must be < hi")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    f_lo = curve(lo) - target
    f_hi = curve(hi) - target
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise BracketError(
            f"curve endpoints {f_lo + target}, {f_hi + target} on [{lo}, {hi}] "
            "are not finite")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"target {target} not bracketed on [{lo}, {hi}]: "
            f"curve endpoints {f_lo + target}, {f_hi + target}"
        )
    (root,), (error,) = brentq_lanes(lambda lanes, xs: ([curve(xs[0]) - target], [None]),
                                     [(float(lo), float(hi), f_lo, f_hi, tol)])
    if error is not None:
        raise error
    return root


_RTOL = 4.0 * float(np.finfo(float).eps)
_MAXITER = 100


def brentq_lanes(f, brackets):
    """Roots of many functions at once, one lane each, by Brent's method.

    Lane i searches [xpre, xcur] of brackets[i] = (xpre, xcur, fpre, fcur,
    xtol), where its function takes the values fpre and fcur, of opposite
    signs and not zero. Every lane takes the steps of scipy.optimize.brentq
    (its brentq.c), with rtol 4 eps and at most 100 steps, so its root is
    bit-identical. Each round evaluates every unfinished lane at once:
    f(lanes, xs) returns (values, errors), errors[k] None or the exception of
    lane lanes[k] at xs[k].

    Returns (roots, errors): errors[i] is None, or the exception that
    stopped lane i alone, whose root is then nan. A lane that does not
    converge, or whose function is not finite at an iterate, fails with
    QuadratureError, value its last iterate.
    """
    roots, errors = [math.nan] * len(brackets), [None] * len(brackets)
    steps = {i: _brent_steps(*bracket) for i, bracket in enumerate(brackets)}
    iterate = {}

    def advance(i, value):
        try:
            iterate[i] = steps[i].send(value)
        except StopIteration as stop:
            roots[i] = stop.value
        except QuadratureError as exc:
            errors[i] = exc
        else:
            return
        del steps[i]

    for i in list(steps):
        advance(i, None)
    while steps:
        lanes = list(steps)
        for i, value, error in zip(lanes, *f(lanes, [iterate[i] for i in lanes])):
            if error is None:
                advance(i, value)
            else:
                errors[i] = error
                del steps[i]
    return roots, errors


def _brent_steps(xpre, xcur, fpre, fcur, xtol):
    """brentq.c as a generator: it yields each iterate, is sent the function's
    value there, and returns the root."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if not math.isfinite(fcur):
            raise QuadratureError(f"curve value at {xcur} is not finite", value=xcur)
    raise QuadratureError(f"root not found to {xtol} in {_MAXITER} steps", value=xcur)


# QUADPACK's 21-point Kronrod rule on [-1, 1]: its non-negative nodes from the
# outside in, their weights, and the weights of the embedded 10-point Gauss
# rule, which uses every second node
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_NODES = np.array([-x for x in _XK[:10]] + list(_XK[::-1]))
_KRONROD = np.array(_WK[:10] + _WK[::-1])
_WEIGHTS = np.stack([_KRONROD, np.zeros(21)])  # Kronrod and Gauss weights
_WEIGHTS[1, 1:10:2] = _WG
_WEIGHTS[1, 11:20:2] = _WG[::-1]
_ROUNDOFF = 50.0 * np.finfo(float).eps
_ROUNDOFF_MIN = np.finfo(float).tiny / _ROUNDOFF
_CHUNK = 2048  # panels per integrand call, which bounds the temporaries
_SPLIT = 8  # parts a panel that misses its tolerance is cut into
_REL_TOL = 1e-11
_ABS_TOL = 1e-319  # the relative tolerance down to the smallest normal double
_MAX_PANELS = 2000  # per integral
_FRACTIONS = (np.arange(_SPLIT + 1) / _SPLIT)[:, None]


def _gk21(f, lo, hi, owner):
    """Gauss-Kronrod value and QUADPACK's error estimate (qk21) of each panel,
    in chunks of at most _CHUNK panels."""
    value, error = np.empty(lo.size), np.empty(lo.size)
    for s in range(0, lo.size, _CHUNK):
        part = slice(s, s + _CHUNK)
        value[part], error[part] = _gk21_chunk(f, lo[part], hi[part], owner[part])
    return value, error


def _gk21_chunk(f, a, b, owner):
    half = 0.5 * (b - a)
    fx = f((0.5 * (a + b))[:, None] + half[:, None] * _NODES, owner)
    # einsum's own loops add a row's products in one order whatever the batch
    # (BLAS, by @, dot or optimize=True, does not); order "F" adds them in
    # node order, which integrates x^2 on [0, 1] to the double nearest 1/3
    resk, resg = np.einsum("kj,ij->ik", _WEIGHTS, fx, order="F").T
    resabs = np.einsum("kj,j->k", np.abs(fx), _KRONROD)
    resasc = np.einsum("kj,j->k", np.abs(fx - 0.5 * resk[:, None]), _KRONROD)
    err = np.abs(resk - resg)
    big = (resasc > 0.0) & (err > 0.0)
    err[big] = resasc[big] * np.minimum(1.0, (200.0 * err[big] / resasc[big]) ** 1.5)
    err = np.where(resabs > _ROUNDOFF_MIN, np.maximum(_ROUNDOFF * resabs, err), err)
    return half * resk, half * err


def integrate_panels(f, lo, hi, owner, n_owners):
    """Integrate n_owners integrals at once, each the sum of f over its panels.

    Panel i spans [lo[i], hi[i]] and belongs to integral owner[i]. f(x, owner)
    returns the integrand at x, an array of shape (k, 21) holding the nodes of
    k panels, where owner[j] is the integral of panel j; x[:, 10] holds their
    centres. Every panel is integrated by the 21-point Gauss-Kronrod rule, with
    the embedded 10-point Gauss rule giving QUADPACK's error estimate. While
    an integral's summed estimate exceeds rel 1e-11 of its value, each of
    its panels whose estimate exceeds an equal share of that tolerance is
    cut into eight equal parts: three levels of bisection in one round, as
    every round costs a fixed overhead.

    Returns (value, error, ok), one entry per integral. An integral fails,
    with ok False, when f gives a non-finite value on one of its panels or
    it needs more than 2,000 panels; value and error then hold the last
    estimates. An integral's result does not depend on which other integrals
    share the batch.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    val, err = _gk21(f, lo, hi, owner)
    value, error = np.zeros(n_owners), np.zeros(n_owners)
    ok = np.ones(n_owners, dtype=bool)
    while True:
        count = np.bincount(owner, minlength=n_owners)
        total = np.bincount(owner, val, n_owners)
        estimate = np.bincount(owner, err, n_owners)
        ok[owner[~np.isfinite(val + err)]] = False
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        busy = ok & (estimate > tol)
        ok[busy & (count > _MAX_PANELS)] = False
        busy &= ok
        done = (count > 0) & ~busy
        value[done], error[done] = total[done], estimate[done]
        if not busy.any():
            return value, error, ok
        busy = busy[owner]
        cut = busy & (err * count[owner] > tol[owner])
        if not cut.any():  # no panel misses its share: the sum does by rounding alone
            return value, error, ok
        edges = lo[cut] + (hi[cut] - lo[cut]) * _FRACTIONS
        parts = (edges[:-1].ravel(), edges[1:].ravel(), np.concatenate([owner[cut]] * _SPLIT))
        new = (*parts, *_gk21(f, *parts))
        # the panels kept from this round first, then the parts of those cut
        keep = busy & ~cut
        lo, hi, owner, val, err = (np.concatenate([old[keep], part]) for old, part
                                   in zip((lo, hi, owner, val, err), new))
