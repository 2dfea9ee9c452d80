"""Adaptive 1-D integration on finite and semi-infinite intervals, a batched
Gauss-Kronrod integrator for many integrals at once, and monotone-curve root
finding for one curve or many in lockstep.

`integrate` is backed by QUADPACK (scipy.integrate.quad, a Gauss-Kronrod
adaptive rule), and root finding by Brent's method (Brent, Algorithms for
Minimization without Derivatives, 1973), both wrapped behind error-reporting
contracts. `integrate_panels` evaluates the integrand of a whole batch of
integrals as one numpy array per round of bisection, and `run_lanes` the
functions of a whole batch of searches, each a generator such as
`brent_steps`, as one call per step.
"""

from __future__ import annotations

import math

import numpy as np

try:  # einsum and count_nonzero without the __array_function__ dispatch, which
    # costs up to a microsecond a call, as much as a small call's work. The
    # private module's bincount is np.bincount itself, dispatch included
    from numpy._core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero
except ImportError:  # pragma: no cover - a numpy that moves its private module
    _einsum, _count_nonzero = np.einsum, np.count_nonzero


class QuadratureError(RuntimeError):
    """Integration did not converge; carries the best estimate so far."""

    def __init__(self, message, value=math.nan, error_estimate=math.inf):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def integrate(f, lo, hi, split_points=()):
    """Integrate f over [lo, hi], hi may be +inf, by QUADPACK.

    The split_points strictly inside (lo, hi), such as a kink of f, are
    qagp's breakpoints; with an infinite end they raise ValueError. The whole
    integral is taken to epsrel 1e-11 and epsabs 1e-300 in at most 2,000
    subdivisions. Returns (value, error_estimate); raises QuadratureError on
    non-convergence or a value that is not finite. scipy.integrate (0.3 s)
    loads on the call: only the oracle calls.
    """
    from scipy.integrate import quad
    value, err, _, *message = quad(f, lo, hi, epsabs=1e-300, epsrel=1e-11, limit=2000,
                                   points=[p for p in split_points if lo < p < hi] or None,
                                   full_output=True)
    if message:
        raise QuadratureError(message[0], value=value, error_estimate=err)
    if not math.isfinite(value):
        raise QuadratureError("integrand produced a non-finite value", value=value,
                              error_estimate=err)
    return value, err


def find_crossing(curve, target, lo, hi, tol=1e-4):
    """Locate x in [lo, hi] with curve(x) = target for a continuous monotone curve.

    tol is in the x domain. Each endpoint is evaluated once, and the cell is
    refined as one brent_steps lane on curve - target, so it raises what that
    lane raises: ValueError for a cell it refuses, QuadratureError when the
    root is not found to tol in 100 steps.
    """
    if not (lo < hi):
        raise ValueError("lo must be < hi")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lane = brent_steps(float(lo), float(hi), curve(lo) - target, curve(hi) - target, tol)
    (root,), (error,) = run_lanes(lambda lanes, xs: ([curve(xs[0]) - target], [None]), [lane])
    if error is not None:
        raise error
    return root


_RTOL = 4.0 * float(np.finfo(float).eps)
_MAXITER = 100


def run_lanes(f, lanes):
    """Run many lane generators in lockstep, one call of f per round.

    A lane yields a point, is sent f's value there or thrown the error of
    that evaluation, and returns its result; brent_steps is one. Each round
    evaluates every unfinished lane at once: f(ids, xs) returns (values,
    errors), errors[k] None or the exception of lane ids[k] at xs[k].

    Returns (results, errors): errors[i] is None, or the exception that
    stopped lane i alone, whose result is then nan: the error thrown into it,
    where the lane lets it through, or a QuadratureError or ValueError the
    lane raises. Any other exception propagates.
    """
    results, errors, live, xs = [math.nan] * len(lanes), [None] * len(lanes), {}, {}

    def advance(i, lane, value=None, error=None):
        try:
            xs[i] = lane.send(value) if error is None else lane.throw(error)
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:
            if exc is not error and not isinstance(exc, (QuadratureError, ValueError)):
                raise
            errors[i] = exc
        else:
            live[i] = lane  # back in its place: every lane of a round is popped in order

    for i, lane in enumerate(lanes):
        advance(i, lane)
    while live:
        ids = list(live)
        for i, value, error in zip(ids, *f(ids, [xs[i] for i in ids])):
            advance(i, live.pop(i), value, error)
    return results, errors


def brent_steps(xpre, xcur, fpre, fcur, xtol):
    """brentq.c as a lane of run_lanes: scipy.optimize.brentq's steps on
    [xpre, xcur], whose ends' values are fpre, fcur, with rtol 4 eps, returning
    its root bit for bit. An end whose value is 0 is the root; other ends must
    have finite values of opposite signs (ValueError). It fails with
    QuadratureError, value its last iterate, after 100 steps or at a value that
    is not finite."""
    if 0.0 in (fpre, fcur):
        return xpre if fpre == 0.0 else xcur
    if not (math.isfinite(fpre) and math.isfinite(fcur) and (fpre < 0.0) != (fcur < 0.0)):
        raise ValueError(f"values {fpre}, {fcur} at the ends of [{xpre}, {xcur}] must be "
                         "finite and of opposite signs")
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
_HALF_WEIGHTS = 0.5 * _WEIGHTS
_HALF_NODES = 0.5 * _NODES
# the scalars of the per-round arithmetic as 0-d arrays: numpy converts a
# Python float operand on every call, which costs a small call more than the
# arithmetic
_HALF, _ONE, _TWO_HUNDRED, _THREE_HALVES = (np.array(x) for x in (0.5, 1.0, 200.0, 1.5))
_ROUNDOFF = np.array(50.0 * np.finfo(float).eps)
_CHUNK = 2048  # panels per integrand call, which bounds the temporaries
_SPLIT = 8  # parts a panel that misses its tolerance is cut into
_REL_TOL = np.array(1e-11)
_ABS_TOL = np.array(1e-319)  # the relative tolerance down to the smallest normal double
_MAX_PANELS = 2000  # per integral
_FRACTIONS = (np.arange(_SPLIT + 1) / _SPLIT)[:, None]


def _gk21(f, lo, hi, owner):
    """Gauss-Kronrod value and QUADPACK's error estimate (qk21) of each panel,
    in chunks of at most _CHUNK panels."""
    if lo.size <= _CHUNK:
        return _gk21_chunk(f, lo, hi, owner)
    parts = [_gk21_chunk(f, lo[s:s + _CHUNK], hi[s:s + _CHUNK], owner[s:s + _CHUNK])
             for s in range(0, lo.size, _CHUNK)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([e for _, e in parts])


def _gk21_chunk(f, a, b, owner):
    # the sums are taken with half the rule's weights and the nodes' offsets
    # with half of theirs, which halves them exactly, and scaled by the
    # panel's width b - a in place of its half
    width = b - a
    fx = f((_HALF * (a + b))[:, None] + width[:, None] * _HALF_NODES, owner)
    # einsum's own loops add a row's products in one order whatever the batch
    # (BLAS, by @, dot or optimize=True, does not); order "F" adds them in
    # node order, which integrates x^2 on [0, 1] to the double nearest 1/3
    resk, resg = _einsum("kj,ij->ik", _HALF_WEIGHTS, fx, order="F").T
    dev = np.empty((2, *fx.shape))  # |fx| and |fx - resk|, resk the rule's sum over 2
    np.abs(fx, out=dev[0])
    np.abs(np.subtract(fx, resk[:, None], out=dev[1]), out=dev[1])
    resabs, resasc = _einsum("kj,j->k", dev.reshape(-1, 21), _HALF_WEIGHTS[0]).reshape(2, -1)
    # qk21 rescales err where resasc and err are not 0; at err = 0 the
    # rescaled err is 0 too, so resasc != 0 alone selects the same values (a
    # nan resasc, from a non-finite fx, makes err nan where it was not finite)
    err = np.abs(resk - resg)
    big = resasc.astype(bool)
    ratio = _TWO_HUNDRED * err
    np.divide(ratio, resasc, out=ratio, where=big)
    np.multiply(resasc, np.minimum(_ONE, ratio ** _THREE_HALVES), out=err, where=big)
    # qk21 floors err at 50 eps resabs only where resabs exceeds the smallest
    # normal double over 50 eps, so that the floor is a normal double; the same
    # relative floor below it spares a comparison
    np.maximum(_ROUNDOFF * resabs, err, out=err)
    return width * resk, np.multiply(width, err, out=err)


def integrate_panels(f, lo, hi, owner, n_owners):
    """Integrate n_owners integrals at once, each the sum of f over its panels.

    Panel i spans [lo[i], hi[i]] and belongs to integral owner[i]. f(x, owner)
    returns the integrand at x, an array of shape (k, 21) holding the nodes of
    k panels, where owner[j] is the integral of panel j; x[:, 10] holds their
    centres; it gets the first round's panels in the order given, and later
    rounds' in ascending order of lo. Every panel is integrated by the
    21-point Gauss-Kronrod rule, with the embedded 10-point Gauss rule giving
    QUADPACK's error estimate. While an integral's summed estimate exceeds
    rel 1e-11 of its value, each of its panels whose estimate exceeds an
    equal share of that tolerance is cut into eight equal parts: three
    levels of bisection in one round, as every round costs a fixed overhead.

    Returns (value, error, ok), one entry per integral. An integral fails,
    with ok False, when its value or error is not finite, as where f gives a
    non-finite value on one of its panels, or it needs more than 2,000
    panels; value and error then hold the last estimates. An integral without
    panels is 0. Its result does not depend on which others share the batch.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not lo.size:  # np.bincount's sums of no panels would be integer zeros
        return np.zeros(n_owners), np.zeros(n_owners), np.ones(n_owners, dtype=bool)
    owner = np.asarray(owner, dtype=np.intp)
    val, err = _gk21(f, lo, hi, owner)
    while True:
        # a finished integral's panels stay, summed again in the same order
        total, estimate = np.bincount(owner, val, n_owners), np.bincount(owner, err, n_owners)
        ok = np.isfinite(total + estimate)
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        busy = ok & (estimate > tol)
        if not _count_nonzero(busy):
            return total, estimate, ok
        count = np.bincount(owner, minlength=n_owners)
        ok &= ~busy | (count <= _MAX_PANELS)
        busy = (busy & ok)[owner]
        cut = busy & (err * count[owner] > tol[owner])
        if not _count_nonzero(cut):  # no panel misses its share: the sum does by rounding alone
            return total, estimate, ok
        edges = lo[cut] + (hi[cut] - lo[cut]) * _FRACTIONS
        parts = (edges[:-1].ravel(), edges[1:].ravel(), np.concatenate([owner[cut]] * _SPLIT))
        order = np.argsort(parts[0])  # f sees them sorted; their sums are in the arrays' order
        new = np.array(_gk21(f, *(part[order] for part in parts)))[:, np.argsort(order)]
        # the panels kept from this round first, then the parts of those cut
        lo, hi, owner, val, err = (np.concatenate([old[~cut], part]) for old, part
                                   in zip((lo, hi, owner, val, err), (*parts, *new)))
