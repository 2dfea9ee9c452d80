"""Conditional and average BER/SER expressions for M-PAM over the composite
fading channel: the exact averages, the piecewise-erfc and single-tail
approximations, the dense-constellation forms, and the threshold-gap and
power-step analyses built on top of them.

All averages are one-dimensional integrals after writing the inner Gaussian
tails through erfc (an identity, not an approximation). The integrals are
evaluated in log-gain coordinates split at the breakpoint h_hat, where the
density weight becomes an exponential (below) and a Gaussian bump (above);
this keeps every integrand bounded and smooth. One engine,
channel.density_average, evaluates every average for a whole array of
transmit powers at once by batched Gauss-Kronrod quadrature; the expressions
differ only in the erfc weight and the conditional function they pass to
it, besides the h_power = -1 of dense_highpower and the cut-off of
ook_simple. A nested mode cross-validates the exact SER by an independent
oracle: the pointing factor averaged in closed form, then one QUADPACK
integral over the turbulence normal.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .channel import (EXACT_WEIGHT, OperatingPoint, dbm_to_watts, density_average,
                      flush_subnormal, power_error, single_value)
from .quadrature import QuadratureError
from .specfun import (erfc, erfc_piecewise_negative, erfc_piecewise_positive,
                      erfc_simple_tail, erfcx_piecewise_approx, erfcx_simple_tail,
                      gammainc, gammaincc, gammaln, hyp1f1)

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# the conditional BER of Gray-mapped M-PAM

@functools.cache
def _gray_ber_terms(m_order: int):
    """The nonzero c_k, and their 2k + 1, of the conditional BER of Gray-mapped M-PAM,
    sum_k c_k erfc((2k + 1) t) at the conditional SER's erfc argument t (Cho & Yoon, IEEE
    Trans. Commun. 50(7), 2002): level j is taken for i, d = |i - j| > 0 away, with probability
    (erfc((2d - 1) t) - erfc((2d + 1) t)) / 2, the second term absent at an outer i, at the
    cost of the Hamming distance of their Gray words, summed in total by d. Raises
    ValueError for an M that is not a power of two from 2 to 1024."""
    if not 2 <= m_order <= 1024 or m_order & (m_order - 1):
        raise ValueError("conditional BER needs M a power of two from 2 to 1024")
    level = np.arange(m_order)
    bits = np.bitwise_count((level ^ level >> 1) ^ (level ^ level >> 1)[:, None])
    total = np.bincount(np.abs(level - level[:, None]).ravel(), bits.ravel(), m_order + 1)
    counts = total[1:] - total[:-1] + bits[0] + bits[-1, ::-1]
    (k,) = counts.nonzero()
    return counts[k] / (2.0 * m_order * (m_order.bit_length() - 1)), 2.0 * k + 1.0


# specfun.erfc, scipy's, is exactly 0 for every x above this (from x = 26.64
# on). It must also lie past libm's last subnormal erfc (at 27.23): the tests'
# scalar reference, support.conditional_ber_exact, stops its sum of math.erfc
# terms on this constant
_ERFC_ZERO = 27.3
_GRAY_CHUNK = 1 << 15  # nodes times terms per erfc call of _gray_ber, which bounds the temporaries


def _gray_ber(terms, t):
    """sum_k c_k erfc((2k + 1) t) at each node of the array t, over the terms of
    _gray_ber_terms. The nodes are summed in chunks, also when one chunk holds
    them all, a chunk's terms in one erfc call, each node's terms in order. As
    2k + 1 ascends and erfc is an exact 0 past _ERFC_ZERO, a chunk's sum stops
    before the first multiplier that puts its smallest t past it (a nan or a
    t <= 0 takes every term): the terms left out, all of them if need be, are 0."""
    flat, step = t.ravel(), max(1, _GRAY_CHUNK // terms[1].size)
    return np.concatenate([_gray_chunk(terms, flat[s:s + step])
                           for s in range(0, flat.size, step)]).reshape(t.shape)


def _gray_chunk(terms, t):
    coeffs, mults = terms
    least = np.minimum.reduce(t)
    n = np.searchsorted(mults * least, _ERFC_ZERO, side="right") if least > 0.0 else mults.size
    # a reduction over the outer axis adds each node's terms in order, as a
    # loop over the terms does: over one term it is that term, over none zeros
    return np.add.reduce(coeffs[:n, None] * erfc(np.multiply.outer(mults[:n], t)), axis=0)


def _u(op: OperatingPoint, p_watts, scales) -> list[float]:
    """eta P / sqrt(2 sigma_n^2) / scale at each transmit power P and its
    scale: the conditional erfc argument per unit gain, scale being the
    M - 1 or M the conditional divides it by."""
    eta, sqrt_2var = op.geometry.eta, op.geometry.sqrt_2var
    return [eta * p / sqrt_2var / scale for p, scale in zip(p_watts, scales)]


# ---------------------------------------------------------------------------
# pointing-integrated oracle: the exact SER as one Gaussian integral

def _avg_ser_pointing_integrated(op: OperatingPoint) -> float:
    """Exact average SER with the pointing factor averaged in closed form.

    The gain is H = A e^(sigma Z - sigma^2) U^(1 / g2), A = h_g h_l kappa,
    with Z standard normal and U uniform on (0, 1] (the sampler model of
    Farid & Hranilovic, JLT 2007). With s = (g2 + 1) / 2, integration by
    parts gives the U-average of erfc(a U^(1 / g2)) in closed form:
    g(a) = erfc(a) + a^(-g2) Gamma(s) P(s, a^2) / sqrt(pi)
         = erfc(a) + a e^(-a^2) 1F1(1; s + 1; a^2) / (s sqrt(pi)),
    P the regularized lower incomplete gamma function. erfc(a) is taken as
    Q(1/2, a^2), the regularized upper one, so that the oracle shares no erfc
    routine with the engine. The 1F1 form is used below a^2 = 600 or s, as
    P(s, a^2) underflows at large g2, and the log of the gamma form above both,
    as 1F1 nears overflow; below s it cannot, as 1F1(1; s + 1; x) <=
    (s + 1) / (s + 1 - x) for x < s + 1. The SER is ((M - 1) / M)
    E_Z[g(u A e^(sigma Z - sigma^2))], integrated by QUADPACK over Z in
    [-40, 40], split at 0 and at -g2 sigma, where e^(-Z^2 / 2) a^(-g2) peaks.
    """
    fm, m_order = op.fading, op.modulation_order_m
    g2, sigma = fm.g2, math.sqrt(fm.sigma2)
    s = (g2 + 1.0) / 2.0
    (u,) = _u(op, [op.transmit_power_p], [m_order - 1])
    log_a0 = math.log(u * fm.hg_hl * fm.kappa) + fm.delta
    log_gamma_s = float(gammaln(s))

    def f(z):
        a = math.exp(log_a0 + sigma * z)
        a2 = a * a
        if a2 < 600.0 or a2 < s:
            tail = a * math.exp(-a2) * float(hyp1f1(1.0, s + 1.0, a2)) / s
        else:
            tail = math.exp(-g2 * math.log(a) + log_gamma_s + math.log(float(gammainc(s, a2))))
        return math.exp(-z * z / 2.0) * (float(gammaincc(0.5, a2)) + tail / _SQRT_PI)

    value, _ = quadrature.integrate(f, -40.0, 40.0, (0.0, -g2 * sigma))
    return flush_subnormal((m_order - 1) / m_order * value / math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# average expressions. Each is a one-power call op -> value at op's power and
# order, and its attribute batch(op, p_watts, orders) -> (values, errors), as
# channel.density_average returns them, evaluates entry i at power p_watts[i]
# and order orders[i] over op's channel.

# the erfc weight pairs of the approximations; see channel.EXACT_WEIGHT. The
# single tail's lower form raises below h_hat: it needs a cut-off y_lo > 0
_PIECEWISE = (erfc_piecewise_negative, erfcx_piecewise_approx)
_SIMPLE_TAIL = (erfc_simple_tail, erfcx_simple_tail)


def _one_power(batch):
    """The one-power call of batch, which carries batch as its batch, and
    batch's name without its leading underscore and batch's docstring."""
    def average(op: OperatingPoint) -> float:
        return single_value(batch(op, [op.transmit_power_p], [op.modulation_order_m]))

    average.__name__ = average.__qualname__ = batch.__name__.lstrip("_")
    average.__doc__, average.batch = batch.__doc__, batch
    return average


def _ser(op, p_watts, orders, weight, erfc_form):
    """Average SER with erfc_form in the conditional SER. Each entry's average
    of erfc_form is multiplied by its coefficient (M - 1) / M, so an entry's
    value does not depend on the orders of the others; a product below the
    smallest normal double is 0."""
    u = _u(op, p_watts, [m - 1 for m in orders])
    values, errors = density_average(op.fading, u, weight, lambda h, u: erfc_form(u * h))
    return [flush_subnormal((m - 1) / m * v) for m, v in zip(orders, values)], errors


def _require_ook(orders):
    if any(m != 2 for m in orders):
        raise ValueError("OOK expressions require M = 2")
    return orders


def _ser_exact(op, p_watts, orders):
    return _ser(op, p_watts, orders, EXACT_WEIGHT, erfc)


def avg_ser_exact(op: OperatingPoint, nested: bool = False) -> float:
    """Exact average SER for M-PAM over the composite channel.

    nested=True computes it instead by the pointing-integrated oracle, one
    QUADPACK integral over the turbulence normal with the pointing factor
    averaged in closed form: an independent check of the batched engine,
    sharing none of its log-gain split or quadrature.
    """
    if nested:
        return _avg_ser_pointing_integrated(op)
    return single_value(_ser_exact(op, [op.transmit_power_p], [op.modulation_order_m]))


avg_ser_exact.batch = _ser_exact


def _avg_ber_ook_exact(op, p_watts, orders):
    """Exact average OOK BER (the M = 2 case of the exact SER)."""
    return _ser_exact(op, p_watts, _require_ook(orders))


def _avg_ser_approx(op, p_watts, orders):
    """Piecewise-erfc approximation of the average SER (two 1-D integrals):
    the exact average with every erfc replaced by the two-branch approximation,
    erfc_piecewise_negative below 0 and erfc_piecewise_positive above it."""
    return _ser(op, p_watts, orders, _PIECEWISE, erfc_piecewise_positive)


def _avg_ber_ook_approx_piecewise(op, p_watts, orders):
    """Piecewise-erfc approximation of the average OOK BER."""
    return _avg_ser_approx(op, p_watts, _require_ook(orders))


def _avg_ser_dense(op, p_watts, orders):
    """Dense-constellation SER approximation (M - 1 replaced by M)."""
    return density_average(op.fading, _u(op, p_watts, orders), _PIECEWISE,
                           lambda h, u: erfc_piecewise_positive(u * h))


def _avg_ser_dense_highpower(op, p_watts, orders):
    """Dense-constellation SER at high transmit power (4/pi guard dropped)."""
    if op.fading.g2 <= 1.0:
        raise ValueError("high-power dense form requires gamma^2 > 1")
    # the positive erfc branch without its 4/pi guard is exp(-s^2) / (s sqrt(pi)),
    # s = u h, whose 1/h is carried as h_power = -1
    return density_average(op.fading, _u(op, p_watts, orders), _PIECEWISE,
                           lambda h, u: np.exp(-(u * h) ** 2) / (u * _SQRT_PI), h_power=-1.0)


def _avg_ber_ook_approx_simple(op, p_watts, orders):
    """Single-integral OOK BER approximation using the one-term erfc tail.

    The one-term tail replaces erfc both in the density and in the
    conditional BER; the lower piece, where its argument is negative, is
    dropped. The integrand carries a 1/ln(h/h_hat) factor, which is not
    integrable at h_hat: near y = ln(h/h_hat) = 0 it behaves as C/y, with
    C = (g2/2) e^log_amp sqrt(2 sig2)/sqrt(pi) erfc_simple_tail(u h_hat)/2.
    So the form is defined by its cut-off: integration starts at
    y = ln(1 + 1e-12), and the value holds a term C ln(1/y) from it that
    moves with the cut-off. At the command line's default channel at 0 dBm
    that term is 95 % of the value, and at -10 dBm the value is 4.49, above
    1; where log_amp <= -60 the term is at most about rel 1e-13 of it.
    """
    _require_ook(orders)
    return density_average(op.fading, _u(op, p_watts, [1.0] * len(p_watts)), _SIMPLE_TAIL,
                           lambda h, u: 0.5 * erfc_simple_tail(u * h), y_lo=math.log1p(1e-12))


def _avg_ber_exact(op, p_watts, orders):
    """Exact average BER of Gray-mapped M-PAM: the conditional BER's sum,
    _gray_ber, averaged with the density weight of the exact SER. Its terms
    depend on M, so each distinct order of orders is one engine call."""
    values, errors = [math.nan] * len(orders), [None] * len(orders)
    for m, terms in {m: _gray_ber_terms(m) for m in orders}.items():
        ks = [k for k, order in enumerate(orders) if order == m]
        results = density_average(op.fading, _u(op, [p_watts[k] for k in ks], [m - 1] * len(ks)),
                                  EXACT_WEIGHT, lambda h, u: _gray_ber(terms, u * h))
        for k, value, error in zip(ks, *results):
            values[k], errors[k] = value, error
    return values, errors


avg_ber_exact = _one_power(_avg_ber_exact)
avg_ber_ook_exact = _one_power(_avg_ber_ook_exact)
avg_ser_approx = _one_power(_avg_ser_approx)
avg_ber_ook_approx_piecewise = _one_power(_avg_ber_ook_approx_piecewise)
avg_ser_dense = _one_power(_avg_ser_dense)
avg_ser_dense_highpower = _one_power(_avg_ser_dense_highpower)
avg_ber_ook_approx_simple = _one_power(_avg_ber_ook_approx_simple)


# the averages by the names the command line gives them
AVERAGES = {
    "exact": avg_ser_exact,
    "approx": avg_ser_approx,
    "dense": avg_ser_dense,
    "dense_highpower": avg_ser_dense_highpower,
    "ook_simple": avg_ber_ook_approx_simple,
}


def _evaluations(points, p_watts):
    """Each (expression, op) pair of points, expression an average of this
    module, at op moved to the matching transmit power of p_watts: one call
    of expression.batch per average and channel, each entry at its op's
    modulation order. Returns (values, errors) as averages_at_powers does."""
    values, errors, batches = [math.nan] * len(points), [power_error(p) for p in p_watts], {}
    for k, (expression, op) in enumerate(points):
        if errors[k] is None:
            # keyed by identity: hashing the FadingModel dataclass costs more than
            # the rest of a point, and points holds both objects alive
            batches.setdefault((id(expression), id(op.fading)), []).append(k)
    for ks in batches.values():
        expression, op = points[ks[0]]
        try:
            results = zip(*expression.batch(op, [p_watts[k] for k in ks],
                                             [points[k][1].modulation_order_m for k in ks]))
        except ValueError as exc:
            results = [(math.nan, exc)] * len(ks)
        for k, (value, error) in zip(ks, results):
            values[k], errors[k] = value, error
    return values, errors


def averages_at_powers(expression, op: OperatingPoint, p_watts):
    """expression, an average of this module, at op moved to each transmit
    power in p_watts (W), evaluated as one batch. Returns (values, errors):
    errors[i] is None, or the QuadratureError or ValueError of point i, whose
    value is then nan. A power that is not positive and finite is the
    ValueError OperatingPoint raises for it."""
    return _evaluations([(expression, op)] * len(p_watts), p_watts)


# ---------------------------------------------------------------------------
# curves and threshold analyses

@dataclass
class ErrorRateCurve:
    """Error-rate curve sampled on increasing finite powers (dBm), with the
    average of this module and the operating point it samples, to refine on."""

    p_dbm: list[float]
    values: list[float]
    expression: object
    op: OperatingPoint

    def __post_init__(self):
        if len(self.p_dbm) != len(self.values):
            raise ValueError("p_dbm and values must have equal length")
        if not np.isfinite(self.p_dbm).all() or (np.diff(self.p_dbm) <= 0.0).any():
            raise ValueError("p_dbm must be finite and strictly increasing")


def sweep_curve(op: OperatingPoint, expression, p_dbm_grid) -> ErrorRateCurve:
    """Evaluate expression (an average of this module) at op moved to each
    power of a dBm grid, as one batch. Raises the first point's error, if any."""
    values, errors = averages_at_powers(expression, op, [dbm_to_watts(p) for p in p_dbm_grid])
    for error in errors:
        if error is not None:
            raise error
    return ErrorRateCurve(list(p_dbm_grid), values, expression, op)


class NoCrossingError(ValueError):
    """The curve does not cross the requested threshold in its power range."""


def _solve(points, lanes, level: float):
    """Run lanes in lockstep by quadrature.run_lanes, lane i on the
    (expression, op) pair points[i]: it yields a power (dBm) and is sent
    log10(value) - log10(level) there, -inf for 0, or thrown the average's
    error, every round one _evaluations call. Returns (powers, errors)."""
    lt = math.log10(level)

    def gaps(ids, p_dbm):
        values, errors = _evaluations([points[i] for i in ids], [dbm_to_watts(p) for p in p_dbm])
        return [math.log10(v) - lt if v > 0.0 else -math.inf for v in values], errors

    return quadrature.run_lanes(gaps, lanes)


def _refine(p_a, p_b, d_a, d_b, tol: float, level: float):
    """A lane of _solve: the power (dBm) where its average crosses level in
    the cell [p_a, p_b], at whose ends log10(value) - log10(level) is d_a
    and d_b, of opposite signs or 0. An end at 0 is the crossing. An end
    whose average is 0 fails with QuadratureError, as log10 has no value
    there. Any other cell is refined to tol dB by quadrature.brent_steps."""
    if 0.0 in (d_a, d_b):
        return p_a if d_a == 0.0 else p_b
    if -math.inf in (d_a, d_b):
        raise QuadratureError(f"average is 0 at an end of [{p_a}, {p_b}] dBm, "
                              f"the cell where it crosses {level}")
    return (yield from quadrature.brent_steps(p_a, p_b, d_a, d_b, tol))


def _search(p_dbm, level: float, tol: float, missing: str):
    """A lane of _solve: the power (dBm), to tol dB, where its average first
    reaches level on the increasing dBm grid p_dbm.

    It bisects the indices of p_dbm from (-1, len(p_dbm)), two ends just
    outside the grid counted as above and below level. A probe above level
    raises the lower end, any other (0, or an error thrown in) lowers the
    upper end. So for a non-increasing curve this finds the first cell that
    crosses level, which crossing_power refines on the curve sampled on
    p_dbm, and _refine takes it. The lane fails with the error of the probe
    at the cell's upper end, or, where its curve is above level on the whole
    grid or below it from the first point on, with NoCrossingError(missing).
    """
    lo, hi, d_lo, d_hi, error = -1, len(p_dbm), math.inf, math.inf, None
    while hi - lo > 1:
        k = (lo + hi) // 2
        try:
            d = yield p_dbm[k]
        except (QuadratureError, ValueError) as exc:
            hi, error = k, exc
            continue
        if d > 0.0:
            lo, d_lo = k, d
        else:
            hi, d_hi, error = k, d, None
    if error is not None:
        raise error
    if d_hi != 0.0 and hi in (0, len(p_dbm)):  # never crossed
        raise NoCrossingError(missing)
    # at hi = 0 a value of 0 makes the cell's upper end the power
    return (yield from _refine(p_dbm[max(hi - 1, 0)], p_dbm[hi], d_lo, d_hi, tol, level))


def _not_crossed(threshold: float, p_dbm) -> str:
    where = f"[{p_dbm[0]}, {p_dbm[-1]}] dBm" if len(p_dbm) else "an empty grid"
    return f"threshold {threshold} not crossed on {where}"


def crossing_power(curve: ErrorRateCurve, threshold: float) -> float:
    """Power (dBm) at which the curve first crosses the threshold, as
    _refine finds it to 1e-4 dB in the first cell that crosses it: by
    Brent's method through the curve's expression, from the curve's values at
    its ends. Raises NoCrossingError where no cell crosses it."""
    lt = math.log10(threshold)
    d = [math.log10(v) - lt if v > 0.0 else -math.inf for v in curve.values]
    for i, (a, b) in enumerate(zip(d, d[1:])):
        if a == 0.0 or a * b < 0.0 or b == 0.0:
            lane = _refine(curve.p_dbm[i], curve.p_dbm[i + 1], a, b, 1e-4, threshold)
            return single_value(_solve([(curve.expression, curve.op)], [lane], threshold))
    raise NoCrossingError(_not_crossed(threshold, curve.p_dbm))


def delta_gap(exact: ErrorRateCurve, approx: ErrorRateCurve, threshold: float) -> float:
    """Horizontal dB gap between an approximation and the exact curve at a
    threshold: P*_approx - P*_exact, each as crossing_power finds it. The
    approximation's is refined first, so its error is the one raised."""
    return crossing_power(approx, threshold) - crossing_power(exact, threshold)


def delta_gaps_on_grid(op: OperatingPoint, exact, approx, p_dbm_grid, threshold: float):
    """The gap delta_gap would give between each of approx and exact
    (averages of this module) on the curves that sweep_curve would sample at
    op on the dBm grid p_dbm_grid, without sampling them: one _solve runs a
    _search lane for each crossing, the exact one once. On non-increasing
    curves the gaps are delta_gap's, bit for bit.

    Raises NoCrossingError for an empty grid. Returns (gaps, errors):
    errors[i] is None, or the error that stopped approx[i]'s lane, or else
    the exact one's, and gaps[i] is then nan.
    """
    if not approx:
        return [], []
    missing = _not_crossed(threshold, p_dbm_grid)
    if not len(p_dbm_grid):
        raise NoCrossingError(missing)
    (p_exact, *powers), (e_exact, *errors) = _solve(
        [(e, op) for e in (exact, *approx)],
        [_search(p_dbm_grid, threshold, 1e-4, missing) for _ in range(len(approx) + 1)],
        threshold)
    errors = [e_exact if error is None else error for error in errors]
    return [p - p_exact if error is None else math.nan
            for p, error in zip(powers, errors)], errors


# the power grid (dBm) on which the power solve brackets its target: 2 dB
# cells up to the top of the accepted power domain
_SCAN_DBM = tuple(-40.0 + 2.0 * i for i in range(61))


def _powers_at_target(op: OperatingPoint, orders, expression, target: float):
    """Power (dBm) where expression, at op's channel and each modulation order
    of orders, reaches target, all orders solved in lockstep: one _search
    lane each on _SCAN_DBM, to 1e-5 dB. Returns (powers, errors): errors[i]
    is None, or the error that stopped order i, whose power is then nan.
    """
    missing = f"target {target} not reached in [{_SCAN_DBM[0]}, {_SCAN_DBM[-1]}] dBm"
    return _solve([(expression, op.with_modulation(m)) for m in orders],
                  [_search(_SCAN_DBM, target, 1e-5, missing) for _ in orders], target)


def power_steps(op: OperatingPoint, m_bits, target_ser: float, expression=avg_ser_exact):
    """Extra power (dB) to go from 2^m-PAM to 2^(m+1)-PAM at the same SER, for
    each m in m_bits. The power of every order the steps need is solved once,
    all orders in lockstep, and shared by the steps on either side of it.

    Returns (steps, errors): errors[i] is None, or the QuadratureError or
    ValueError that stopped step i, whose value is then nan.
    """
    m_bits = list(m_bits)
    # a subnormal target would be compared with averages that have lost precision
    valid = sys.float_info.min <= target_ser < 0.5
    orders = sorted({2**k for m in m_bits if 1 <= m <= 9 for k in (m, m + 1)})
    powers = _powers_at_target(op, orders, expression, target_ser) if valid else ([], [])
    solved = dict(zip(orders, zip(*powers)))
    steps, errors = [], []
    for m in m_bits:
        if not 1 <= m <= 9:  # 2^(m + 1) up to 1024, the largest order OperatingPoint accepts
            error = ValueError("m_bits must be >= 1" if m < 1 else "m_bits must be <= 9")
        elif not valid:
            error = ValueError(f"target_ser must lie in [{sys.float_info.min!r}, 0.5)")
        else:
            (p1, e1), (p2, e2) = solved[2**m], solved[2 ** (m + 1)]
            error = e1 if e1 is not None else e2
        steps.append(math.nan if error is not None else p2 - p1)
        errors.append(error)
    return steps, errors


def power_increase_for_next_bit(op: OperatingPoint, m_bits: int, target_ser: float,
                                expression=avg_ser_exact) -> float:
    """Extra power (dB) to go from 2^m-PAM to 2^(m+1)-PAM at the same SER."""
    return single_value(power_steps(op, [m_bits], target_ser, expression))
