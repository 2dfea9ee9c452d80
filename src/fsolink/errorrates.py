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
it. A nested mode re-computes the inner tails by QUADPACK quadrature for
cross-validation.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .channel import (ARG_CUTOFF, EXACT_WEIGHT, OperatingPoint, dbm_to_watts,
                      density_average, flush_subnormal, low_w_splits, power_error,
                      single_value, y_cut, y_splits)
from .quadrature import QuadratureError
from .specfun import (erfc, erfc_piecewise_negative, erfc_piecewise_positive,
                      erfc_simple_tail, erfcx_piecewise_approx, erfcx_simple_tail,
                      q_function)

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# conditional expressions

def conditional_ser_pam(m_order: int, a_snr: float) -> float:
    """SER of M-PAM at conditional amplitude SNR A: ((M-1)/M) erfc(A / (2 sqrt(2) (M-1)))."""
    if m_order < 2:
        raise ValueError("modulation order must be >= 2")
    return (m_order - 1) / m_order * erfc(a_snr / (2.0 * math.sqrt(2.0) * (m_order - 1)))


def conditional_ber_ook(a_snr: float) -> float:
    """OOK bit error probability: erfc(A / sqrt(8)) / 2."""
    return 0.5 * erfc(a_snr / math.sqrt(8.0))


# signed Q-function sums for the exact Gray-mapped conditional BER
_BER_EXACT_TERMS = {
    8: (12.0, 14.0, ((7, 1), (6, 3), (-1, 5), (1, 9), (-1, 13))),
    16: (32.0, 30.0, ((15, 1), (14, 3), (-1, 5), (5, 9), (4, 11), (-5, 13),
                      (-4, 15), (5, 17), (4, 19), (-3, 21), (-2, 23), (1, 25),
                      (-1, 29))),
}


def conditional_ber_exact(m_order: int, a_snr: float) -> float:
    """Exact Gray-mapped conditional BER for 8-PAM or 16-PAM."""
    if m_order not in _BER_EXACT_TERMS:
        raise ValueError("exact conditional BER is tabulated for M in {8, 16} only")
    denom, scale, terms = _BER_EXACT_TERMS[m_order]
    return sum(c * q_function(k * a_snr / scale) for c, k in terms) / denom


def conditional_ber_approx(m_order: int, a_snr: float) -> float:
    """SER-over-bits conditional BER approximation, tight at high SNR."""
    m_bits = int(math.log2(m_order))
    return conditional_ser_pam(m_order, a_snr) / m_bits


def _u(op: OperatingPoint, p_watts, scales) -> list[float]:
    """eta P / sqrt(2 sigma_n^2) / scale at each transmit power P and its
    scale: the conditional erfc argument per unit gain, scale being the
    M - 1 or M the conditional divides it by."""
    geo = op.geometry
    return [geo.eta * p / math.sqrt(2.0 * geo.noise_sigma_n**2) / scale
            for p, scale in zip(p_watts, scales)]


# ---------------------------------------------------------------------------
# nested oracle: the exact SER with every erfc re-computed by QUADPACK

# the anchors of the tail are sqrt(2 k), evenly spaced in x^2, so that the
# piece from any x up to its anchor spans at most a factor e^2 of decay
_ANCHOR_STEP = 2.0


@functools.cache
def _anchor_tail(k: int) -> float:
    """QUADPACK's upper Gaussian tail integral from the anchor sqrt(2 k)."""
    val, _ = quadrature.quadpack(lambda t: math.exp(-t * t), math.sqrt(_ANCHOR_STEP * k),
                                 math.inf, epsabs=1e-300, epsrel=1e-13, limit=500)
    return val


def _gauss_tail(x: float) -> float:
    """Independent quadrature of the upper Gaussian tail integral of exp(-t^2).

    The tail from x is the tail from the first anchor a at or above x,
    computed once per anchor, plus the integral over [x, a], a short finite
    piece on which QUADPACK converges in its first pass. A negative x is
    reflected, the tail from x being sqrt(pi) less the tail from -x, so
    QUADPACK never integrates across the bulk of the Gaussian.
    """
    if x > ARG_CUTOFF:
        return 0.0
    if x < 0.0:
        return _SQRT_PI - _gauss_tail(-x)
    k = math.ceil(x * x / _ANCHOR_STEP)
    # the first anchor at or above x, which the rounding of x^2 can miss by one
    if k > 0 and math.sqrt(_ANCHOR_STEP * (k - 1)) >= x:
        k -= 1
    elif math.sqrt(_ANCHOR_STEP * k) < x:
        k += 1
    anchor = math.sqrt(_ANCHOR_STEP * k)
    if x == anchor:
        return _anchor_tail(k)
    # the piece is exp(-x^2) times the integral of exp(-s (2x + s)) over
    # s = t - x, which the rounding of t^2 cannot make noisy where it is short
    piece, _ = quadrature.quadpack(lambda s: math.exp(-s * (2.0 * x + s)), 0.0, anchor - x,
                                   epsabs=1e-300, epsrel=1e-13, limit=500)
    return _anchor_tail(k) + math.exp(-x * x) * piece


def _erfc_nested(x: float) -> float:
    return 2.0 / _SQRT_PI * _gauss_tail(x)


def _erfcx_nested(v: float) -> float:
    if v > 25.0:
        # exp(v^2) nears overflow: the asymptotic series to 105 x^4, x = 1 / (2 v^2),
        # whose first term left out, 945 x^5, is below 4e-13 here
        x = 0.5 / (v * v)
        return (1.0 - x * (1.0 - 3.0 * x * (1.0 - 5.0 * x * (1.0 - 7.0 * x)))) / (v * _SQRT_PI)
    return 2.0 / _SQRT_PI * math.exp(v * v) * _gauss_tail(v)


def _integrate_nested(f, lo, hi, splits):
    if hi <= lo:
        return 0.0
    spec = quadrature.QuadratureSpec(
        rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=2000,
        split_points=tuple(sorted(p for p in splits if lo < p < hi)))
    val, _ = quadrature.integrate(f, lo, hi, spec)
    return val


def _avg_ser_nested(op: OperatingPoint) -> float:
    m_order = op.modulation_order_m
    par = op.fading.log_gain_params
    (u,) = _u(op, [op.transmit_power_p], [1.0])
    coeff = (m_order - 1) / m_order
    scale = float(m_order - 1)
    s_hat = u * par.h_hat / scale
    sqrt2s = par.sqrt2s

    def cond(h):
        return coeff * _erfc_nested(u * h / scale)

    def f_low(w):
        v = -w / sqrt2s
        h = par.h_hat * math.exp(-w)
        return math.exp(-par.g2 * w) * _erfc_nested(v) * cond(h)

    # QUADPACK can miss the erfc knee at sqrt(2 sig2) when sig2 is small
    # against 700 / g2: it is split off, as the conditional's onset is
    low = _integrate_nested(f_low, 0.0, 700.0 / par.g2,
                            (sqrt2s, 4.0 * sqrt2s, *low_w_splits(s_hat)))

    def f_high(y):
        v = y / sqrt2s
        h = par.h_hat * math.exp(y)
        return (math.exp(-((y - par.y_star) ** 2) / (2.0 * par.sig2))
                * _erfcx_nested(v) * cond(h))

    high = _integrate_nested(f_high, 0.0, min(par.y_top, y_cut(s_hat)), y_splits(par))
    return flush_subnormal(par.g2 / 2.0 * (math.exp(par.log_amp) * low + high))


# ---------------------------------------------------------------------------
# average expressions. Each is a batch over transmit powers and modulation
# orders, batch(op, p_watts, orders) -> (values, errors) as
# channel.density_average returns them, entry i at power p_watts[i] and order
# orders[i] over op's channel, and a one-power call op -> value at op's own
# power and order.

# the erfc weight pairs of the approximations; see channel.EXACT_WEIGHT
_PIECEWISE = (erfc_piecewise_negative, erfcx_piecewise_approx)
_SIMPLE_TAIL = (None, erfcx_simple_tail)

_BATCHED = {}  # one-power call -> its batch


def _one_power(batch):
    """The one-power call of batch, which carries batch's name without its
    leading underscore and batch's docstring."""
    def average(op: OperatingPoint) -> float:
        return single_value(batch(op, [op.transmit_power_p], [op.modulation_order_m]))

    average.__name__ = average.__qualname__ = batch.__name__.lstrip("_")
    average.__doc__ = batch.__doc__
    _BATCHED[average] = batch
    return average


def _ser(op, p_watts, orders, weight, erfc_form, dense: bool = False):
    """Average SER with erfc_form in the conditional SER; dense replaces its
    M - 1 by M. Each entry's average of erfc_form is multiplied by its
    coefficient (M - 1) / M, or 1, so an entry's value does not depend on the
    orders of the others; a product below the smallest normal double is 0."""
    u = _u(op, p_watts, [m if dense else m - 1 for m in orders])
    values, errors = density_average(op.fading, u, weight, lambda h, u: erfc_form(u * h))
    if not dense:
        values = [flush_subnormal((m - 1) / m * v) for m, v in zip(orders, values)]
    return values, errors


def _require_ook(orders):
    if any(m != 2 for m in orders):
        raise ValueError("OOK expressions require M = 2")


def _ser_exact(op, p_watts, orders):
    return _ser(op, p_watts, orders, EXACT_WEIGHT, erfc)


def avg_ser_exact(op: OperatingPoint, nested: bool = False) -> float:
    """Exact average SER for M-PAM over the composite channel.

    nested=True re-computes every erfc by QUADPACK quadrature of the Gaussian
    tail instead: a slow, independent check of the batched engine.
    """
    if nested:
        return _avg_ser_nested(op)
    return single_value(_ser_exact(op, [op.transmit_power_p], [op.modulation_order_m]))


_BATCHED[avg_ser_exact] = _ser_exact


def avg_ber_ook_exact(op: OperatingPoint, nested: bool = False) -> float:
    """Exact average OOK BER (the M = 2 case of the exact SER)."""
    _require_ook([op.modulation_order_m])
    return avg_ser_exact(op, nested=nested)


def _avg_ser_approx(op, p_watts, orders):
    """Piecewise-erfc approximation of the average SER (two 1-D integrals):
    the exact average with every erfc replaced by erfc_piecewise_approx."""
    return _ser(op, p_watts, orders, _PIECEWISE, erfc_piecewise_positive)


def _avg_ber_ook_approx_piecewise(op, p_watts, orders):
    """Piecewise-erfc approximation of the average OOK BER."""
    _require_ook(orders)
    return _avg_ser_approx(op, p_watts, orders)


def _avg_ser_dense(op, p_watts, orders):
    """Dense-constellation SER approximation (M - 1 replaced by M)."""
    return _ser(op, p_watts, orders, _PIECEWISE, erfc_piecewise_positive, dense=True)


def _avg_ser_dense_highpower(op, p_watts, orders):
    """Dense-constellation SER at high transmit power (4/pi guard dropped)."""
    if op.fading.gamma**2 <= 1.0:
        raise ValueError("high-power dense form requires gamma^2 > 1")
    # the positive erfc branch without its 4/pi guard is exp(-s^2) / (s sqrt(pi)),
    # s = u h, whose 1/h is carried as h_power = -1
    return density_average(op.fading, _u(op, p_watts, orders), _PIECEWISE,
                           lambda h, u: np.exp(-(u * h) ** 2) / (u * _SQRT_PI), h_power=-1.0)


def _avg_ber_ook_approx_simple(op, p_watts, orders):
    """Single-integral OOK BER approximation using the one-term erfc tail.

    The one-term tail replaces erfc both in the density and in the
    conditional BER; the lower piece, where its argument is negative, is
    dropped. The integrand carries a 1/ln(h/h_hat) factor that blows up at
    h_hat; integration starts at h_hat (1 + 1e-12), the excluded sliver being
    numerically negligible.
    """
    _require_ook(orders)
    # geometric ladder resolves the truncated logarithmic end-point blow-up
    ladder = tuple(10.0**k for k in range(-10, 0, 2))
    return density_average(op.fading, _u(op, p_watts, [1.0] * len(p_watts)), _SIMPLE_TAIL,
                           lambda h, u: 0.5 * erfc_simple_tail(u * h),
                           y_lo=math.log1p(1e-12), y_extra=ladder)


avg_ser_approx = _one_power(_avg_ser_approx)
avg_ber_ook_approx_piecewise = _one_power(_avg_ber_ook_approx_piecewise)
avg_ser_dense = _one_power(_avg_ser_dense)
avg_ser_dense_highpower = _one_power(_avg_ser_dense_highpower)
avg_ber_ook_approx_simple = _one_power(_avg_ber_ook_approx_simple)


def avg_ber_mpam(op: OperatingPoint, mode: str = "ser-over-m",
                 approx: bool = False) -> float:
    """Average M-PAM BER.

    mode "exact-for-8-16" integrates the signed Q-sum conditional BER
    (M in {8, 16}); mode "ser-over-m" divides the average SER by the bits
    per symbol (approx selects the piecewise SER approximation).
    """
    m_order = op.modulation_order_m
    m_bits = op.bits_per_symbol
    if mode == "exact-for-8-16":
        if m_order == 2:
            return avg_ber_ook_exact(op)
        if m_order not in _BER_EXACT_TERMS:
            raise ValueError("exact BER mode supports M in {2, 8, 16}")
        a_per_u = math.sqrt(8.0) * (m_order - 1)
        # dominant Q term decays on the same scale as the SER
        return single_value(density_average(
            op.fading, _u(op, [op.transmit_power_p], [m_order - 1]), EXACT_WEIGHT,
            lambda h, u: conditional_ber_exact(m_order, a_per_u * u * h)))
    if mode == "ser-over-m":
        ser = avg_ser_approx(op) if approx else avg_ser_exact(op)
        return flush_subnormal(ser / m_bits)
    raise ValueError(f"unknown mode {mode!r}")


# the averages by the names the command line gives them
AVERAGES = {
    "exact": avg_ser_exact,
    "approx": avg_ser_approx,
    "dense": avg_ser_dense,
    "dense_highpower": avg_ser_dense_highpower,
    "ook_simple": avg_ber_ook_approx_simple,
}


def _evaluations(expression, points, p_watts):
    """expression at each operating point of points, which share one channel,
    moved to the matching transmit power of p_watts: an average with a batch
    form as one batch, each entry at its point's modulation order, any other
    callable point by point. Returns (values, errors) as averages_at_powers
    does."""
    batch = _BATCHED.get(expression)
    pairs = []
    if batch is None:
        for op, p in zip(points, p_watts):
            try:
                pairs.append((expression(op.with_power(p)), None))
            except (QuadratureError, ValueError) as exc:
                pairs.append((math.nan, exc))
    elif p_watts:
        invalid = [power_error(p) for p in p_watts]
        valid = [(p, op.modulation_order_m)
                 for op, p, e in zip(points, p_watts, invalid) if e is None]
        try:
            results = zip(*batch(points[0], [p for p, _ in valid], [m for _, m in valid]))
        except ValueError as exc:
            results = itertools.repeat((math.nan, exc))
        pairs = [next(results) if error is None else (math.nan, error) for error in invalid]
    return [v for v, _ in pairs], [e for _, e in pairs]


def averages_at_powers(expression, op: OperatingPoint, p_watts):
    """expression, a callable op -> value, at op moved to each transmit power
    in p_watts (W).

    The averages of this module are evaluated as one batch, any other
    callable point by point. Returns (values, errors): errors[i] is None, or
    the QuadratureError or ValueError of point i, whose value is then nan. A
    power that is not positive and finite is the ValueError OperatingPoint
    raises for it.
    """
    return _evaluations(expression, [op] * len(p_watts), p_watts)


# ---------------------------------------------------------------------------
# curves and threshold analyses

@dataclass
class ErrorRateCurve:
    """Sampled error-rate curve in dBm, with an optional exact evaluator for
    crossing refinement."""

    p_dbm: list[float]
    values: list[float]
    evaluator: object = None  # callable p_dbm -> value, optional

    def __post_init__(self):
        if len(self.p_dbm) != len(self.values):
            raise ValueError("p_dbm and values must have equal length")
        if any(b <= a for a, b in zip(self.p_dbm, self.p_dbm[1:])):
            raise ValueError("p_dbm must be strictly increasing")


def sweep_curve(op: OperatingPoint, expression, p_dbm_grid) -> ErrorRateCurve:
    """Evaluate expression (a callable op -> value) at op moved to each power
    of a dBm grid; the averages of this module are evaluated as one batch.
    Raises the first point's error, if any."""
    def evaluator(p_dbm):
        return expression(op.with_power(dbm_to_watts(p_dbm)))

    values, errors = averages_at_powers(expression, op, [dbm_to_watts(p) for p in p_dbm_grid])
    for error in errors:
        if error is not None:
            raise error
    return ErrorRateCurve(list(p_dbm_grid), values, evaluator=evaluator)


class NoCrossingError(ValueError):
    """The curve does not cross the requested threshold in its power range."""


def crossing_power(curve: ErrorRateCurve, threshold: float) -> float:
    """Power (dBm) at which the curve crosses the threshold: refined on
    log10(value) to 1e-4 dB by Brent's method via the evaluator when
    available, starting from the curve's own values at the ends of the cell,
    else by linear interpolation. Raises QuadratureError when the first cell
    that crosses it has an average of 0 at one end, where log10 has no value
    to work on."""
    logs = [math.log10(v) if v > 0.0 else -math.inf for v in curve.values]
    lt = math.log10(threshold)
    for i in range(len(logs) - 1):
        a, b = logs[i], logs[i + 1]
        if (a - lt) == 0.0:
            return curve.p_dbm[i]
        if (a - lt) * (b - lt) < 0.0 or (b - lt) == 0.0:
            p_a, p_b = curve.p_dbm[i], curve.p_dbm[i + 1]
            if b == -math.inf:
                raise QuadratureError(f"average falls from above threshold {threshold} "
                                      f"to 0 on [{p_a}, {p_b}] dBm")
            if a == -math.inf:
                raise QuadratureError(f"average rises from 0 to above threshold {threshold} "
                                      f"on [{p_a}, {p_b}] dBm")
            if (b - lt) == 0.0:
                return p_b
            if curve.evaluator is not None:
                return quadrature._brentq(lambda p: math.log10(curve.evaluator(p)) - lt,
                                          p_a, p_b, a - lt, b - lt, 1e-4)
            return p_a + (p_b - p_a) * (lt - a) / (b - a)
    raise NoCrossingError(f"threshold {threshold} not crossed on "
                          f"[{curve.p_dbm[0]}, {curve.p_dbm[-1]}] dBm")


def delta_gap(exact: ErrorRateCurve, approx: ErrorRateCurve, threshold: float) -> float:
    """Horizontal dB gap between an approximation and the exact curve at a
    threshold: P*_approx - P*_exact."""
    return crossing_power(approx, threshold) - crossing_power(exact, threshold)


# the power grid (dBm) on which the power solve brackets its target: 2 dB
# cells up to the top of the accepted power domain
_SCAN_DBM = tuple(-40.0 + 2.0 * i for i in range(61))


def _first_not_above(curve, n_lanes):
    """For each of n_lanes lanes, the first index of _SCAN_DBM where the
    lane's curve is not above 0, len(_SCAN_DBM) if there is none, and the
    curve's (value, error) at each index probed.

    Each lane holds a cell of grid indices, at first (-1, len(_SCAN_DBM)),
    whose lower end is above 0 and whose upper end is not, the two first
    ends being counted so. Each round is one curve call with one probe per
    lane whose cell spans more than one step, at its midpoint. A probe that
    failed is not above 0: it bounds the search from above. For a
    non-increasing curve this finds the first cell where it crosses 0.
    """
    probes = [{} for _ in range(n_lanes)]
    cells = [(-1, len(_SCAN_DBM))] * n_lanes
    while mids := {i: (lo + hi) // 2 for i, (lo, hi) in enumerate(cells) if hi - lo > 1}:
        values, errors = curve(list(mids), [_SCAN_DBM[k] for k in mids.values()])
        for (i, k), value, error in zip(mids.items(), values, errors):
            probes[i][k] = value, error
            cells[i] = (k, cells[i][1]) if error is None and value > 0.0 else (cells[i][0], k)
    return [hi for _, hi in cells], probes


def _powers_at_target(op: OperatingPoint, orders, expression, target: float):
    """Power (dBm) where expression, at op's channel and each modulation order
    of orders, reaches target, all orders solved in lockstep.

    Each order is a lane. _first_not_above brackets its target in a cell of
    _SCAN_DBM, where log10(value) - log10(target) changes sign: an average
    of 0 counts as below the target, and a failure past the cell does not
    matter. Then quadrature.brentq_lanes refines every cell on log10 to
    1e-5 dB, evaluating all unfinished lanes in one batch per round. As the
    engine's values do not depend on the batch, each lane's power is the
    one a scan and a one-order Brent solve would give.

    Returns (powers, errors): errors[i] is None, or the NoCrossingError,
    QuadratureError or ValueError that stopped order i, whose power is then
    nan.
    """
    lanes = [op.with_modulation(m) for m in orders]
    lt = math.log10(target)

    def curve(ids, p_dbm):
        # log10 of expression at lanes[i] and power p, less lt, for each pair of
        # ids and p_dbm, evaluated as _evaluations does; an average of 0 gives -inf
        values, errors = _evaluations(expression, [lanes[i] for i in ids],
                                      [dbm_to_watts(p) for p in p_dbm])
        return [math.log10(v) - lt if v > 0.0 else -math.inf for v in values], errors

    first, probes = _first_not_above(curve, len(lanes))
    powers, errors = [math.nan] * len(lanes), [None] * len(lanes)
    refined, cells = [], []
    for i, k in enumerate(first):
        value, error = probes[i].get(k, (math.inf, None))  # past the grid: above
        if error is not None:
            errors[i] = error
        elif value == 0.0:
            powers[i] = _SCAN_DBM[k]
        elif k in (0, len(_SCAN_DBM)):  # below the target on the whole grid, or above it
            errors[i] = NoCrossingError(f"target {target} not reached in "
                                        f"[{_SCAN_DBM[0]}, {_SCAN_DBM[-1]}] dBm")
        elif value == -math.inf:
            errors[i] = QuadratureError(f"average falls from above target {target} to 0 "
                                        f"on [{_SCAN_DBM[k - 1]}, {_SCAN_DBM[k]}] dBm")
        else:
            refined.append(i)
            cells.append((_SCAN_DBM[k - 1], _SCAN_DBM[k], probes[i][k - 1][0], value, 1e-5))
    roots, failures = quadrature.brentq_lanes(
        lambda ids, p_dbm: curve([refined[j] for j in ids], p_dbm), cells)
    for i, root, error in zip(refined, roots, failures):
        powers[i], errors[i] = root, error
    return powers, errors


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
    orders = sorted({2**k for m in m_bits if m >= 1 for k in (m, m + 1)})
    solved = {}
    if valid and orders:
        solved = dict(zip(orders, zip(*_powers_at_target(op, orders, expression, target_ser))))
    steps, errors = [], []
    for m in m_bits:
        if m < 1:
            error = ValueError("m_bits must be >= 1")
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
