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
    low, _ = quadrature.integrate(f_low, 0.0, 700.0 / par.g2,
                                  (sqrt2s, 4.0 * sqrt2s, *low_w_splits(s_hat)))

    def f_high(y):
        v = y / sqrt2s
        h = par.h_hat * math.exp(y)
        return (math.exp(-((y - par.y_star) ** 2) / (2.0 * par.sig2))
                * _erfcx_nested(v) * cond(h))

    # y_cut falls below 0 at high power, where the upper piece is empty
    y_up = min(par.y_top, y_cut(s_hat))
    high = quadrature.integrate(f_high, 0.0, y_up, y_splits(par))[0] if y_up > 0.0 else 0.0
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


def _evaluations(points, p_watts):
    """Each (expression, op) pair of points, expression a callable op ->
    value, at op moved to the matching transmit power of p_watts. The pairs
    of an average of this module are evaluated as one batch per average and
    channel, each entry at its op's modulation order, any other callable
    point by point. Returns (values, errors) as averages_at_powers does."""
    values, errors, batches = [math.nan] * len(points), [power_error(p) for p in p_watts], {}
    for k, (expression, op) in enumerate(points):
        if errors[k] is None and expression in _BATCHED:
            batches.setdefault((expression, op.fading), []).append(k)
        elif errors[k] is None:
            try:
                values[k] = expression(op.with_power(p_watts[k]))
            except (QuadratureError, ValueError) as exc:
                errors[k] = exc
    for (expression, _), ks in batches.items():
        try:
            results = zip(*_BATCHED[expression](points[ks[0]][1], [p_watts[k] for k in ks],
                                                [points[k][1].modulation_order_m for k in ks]))
        except ValueError as exc:
            results = itertools.repeat((math.nan, exc))
        for k, (value, error) in zip(ks, results):
            values[k], errors[k] = value, error
    return values, errors


def averages_at_powers(expression, op: OperatingPoint, p_watts):
    """expression, a callable op -> value, at op moved to each transmit power
    in p_watts (W).

    The averages of this module are evaluated as one batch, any other
    callable point by point. Returns (values, errors): errors[i] is None, or
    the QuadratureError or ValueError of point i, whose value is then nan. A
    power that is not positive and finite is the ValueError OperatingPoint
    raises for it.
    """
    return _evaluations([(expression, op)] * len(p_watts), p_watts)


# ---------------------------------------------------------------------------
# curves and threshold analyses

@dataclass
class ErrorRateCurve:
    """Sampled error-rate curve in dBm, with the expression (a callable
    op -> value) and operating point it samples, for crossing refinement."""

    p_dbm: list[float]
    values: list[float]
    expression: object = None
    op: OperatingPoint | None = None

    def __post_init__(self):
        if len(self.p_dbm) != len(self.values):
            raise ValueError("p_dbm and values must have equal length")
        if any(b <= a for a, b in zip(self.p_dbm, self.p_dbm[1:])):
            raise ValueError("p_dbm must be strictly increasing")


def sweep_curve(op: OperatingPoint, expression, p_dbm_grid) -> ErrorRateCurve:
    """Evaluate expression (a callable op -> value) at op moved to each power
    of a dBm grid; the averages of this module are evaluated as one batch.
    Raises the first point's error, if any."""
    values, errors = averages_at_powers(expression, op, [dbm_to_watts(p) for p in p_dbm_grid])
    for error in errors:
        if error is not None:
            raise error
    return ErrorRateCurve(list(p_dbm_grid), values, expression, op)


class NoCrossingError(ValueError):
    """The curve does not cross the requested threshold in its power range."""


def _log_gaps(points, p_dbm, lt):
    """log10(value) - lt of each (expression, op) pair of points at the
    matching power of p_dbm (dBm), -inf for 0, as (gaps, errors)."""
    values, errors = _evaluations(points, [dbm_to_watts(p) for p in p_dbm])
    return [math.log10(v) - lt if v > 0.0 else -math.inf for v in values], errors


def _crossings(cells, level: float):
    """The power (dBm) where each cell crosses level, refined in lockstep.

    cells[i] is the error of entry i, or (expression, op, p_a, p_b, d_a, d_b,
    tol): the cell [p_a, p_b] (dBm) of expression at op, at whose ends
    log10(value) - log10(level) is d_a and d_b, of opposite signs or 0. An
    end at 0 is the crossing. An end whose average is 0 fails with
    QuadratureError, as log10 has no value there. Any other cell is a lane of
    one quadrature.brentq_lanes run to tol dB, each round one _log_gaps call.
    Returns (powers, errors): errors[i] is None, or the error of entry i,
    whose power is then nan.
    """
    powers, errors, lanes = [math.nan] * len(cells), [None] * len(cells), []
    for i, cell in enumerate(cells):
        if isinstance(cell, Exception):
            errors[i] = cell
            continue
        expression, op, p_a, p_b, d_a, d_b, _ = cell
        if 0.0 in (d_a, d_b):
            powers[i] = p_a if d_a == 0.0 else p_b
        elif -math.inf in (d_a, d_b):
            errors[i] = QuadratureError(f"average is 0 at an end of [{p_a}, {p_b}] dBm, "
                                        f"the cell where it crosses {level}")
        elif expression is None or op is None:
            errors[i] = ValueError("the curve has no expression and operating point to refine "
                                   "its crossing on")
        else:
            lanes.append(i)
    lt = math.log10(level)
    roots, failures = quadrature.brentq_lanes(
        lambda ids, p_dbm: _log_gaps([cells[lanes[j]][:2] for j in ids], p_dbm, lt),
        [cells[i][2:] for i in lanes])
    for i, root, error in zip(lanes, roots, failures):
        powers[i], errors[i] = root, error
    return powers, errors


def _first_crossing_cell(curve: ErrorRateCurve, threshold: float):
    """The cell of _crossings, to 1e-4 dB, where the curve first crosses the
    threshold, or the NoCrossingError of a curve that does not."""
    d = [math.log10(v) - math.log10(threshold) if v > 0.0 else -math.inf
         for v in curve.values]
    for i, (a, b) in enumerate(zip(d, d[1:])):
        if a == 0.0 or a * b < 0.0 or b == 0.0:
            return (curve.expression, curve.op, curve.p_dbm[i], curve.p_dbm[i + 1], a, b, 1e-4)
    return NoCrossingError(f"threshold {threshold} not crossed on "
                           f"[{curve.p_dbm[0]}, {curve.p_dbm[-1]}] dBm")


def crossing_power(curve: ErrorRateCurve, threshold: float) -> float:
    """Power (dBm) at which the curve first crosses the threshold, as
    _crossings finds it in the first cell that crosses it: by Brent's method
    through the curve's expression, from the curve's values at its ends."""
    return single_value(_crossings([_first_crossing_cell(curve, threshold)], threshold))


def delta_gaps(exact: ErrorRateCurve, approx, threshold: float):
    """Horizontal dB gaps P*_approx - P*_exact at a threshold between each
    curve of approx and the exact curve, every crossing refined in one
    lockstep solve, the exact one once. An entry of approx may instead be
    the error of its sweep. Returns (gaps, errors): errors[i] is None, or
    approx[i]'s error, or that of its crossing, or else of the exact one."""
    if not approx:
        return [], []
    (p_exact, *powers), (e_exact, *errors) = _crossings(
        [c if isinstance(c, Exception) else _first_crossing_cell(c, threshold)
         for c in (exact, *approx)], threshold)
    errors = [e_exact if error is None else error for error in errors]
    return [p - p_exact if error is None else math.nan
            for p, error in zip(powers, errors)], errors


def delta_gap(exact: ErrorRateCurve, approx: ErrorRateCurve, threshold: float) -> float:
    """Horizontal dB gap between an approximation and the exact curve at a
    threshold: P*_approx - P*_exact."""
    return single_value(delta_gaps(exact, [approx], threshold))


# the power grid (dBm) on which the power solve brackets its target: 2 dB
# cells up to the top of the accepted power domain
_SCAN_DBM = tuple(-40.0 + 2.0 * i for i in range(61))


def _powers_at_target(op: OperatingPoint, orders, expression, target: float):
    """Power (dBm) where expression, at op's channel and each modulation order
    of orders, reaches target, all orders solved in lockstep.

    Each order is a lane, which brackets its target by bisection on the
    indices of _SCAN_DBM from (-1, len(_SCAN_DBM)), two ends just outside the
    grid counted as above and below it: each round one _log_gaps call probes
    the midpoint of every cell wider than one step. A probe above the target
    raises its cell's lower end, any other (0 or a failure) lowers its upper
    end, so for a non-increasing curve this finds the first cell that
    crosses it, and a failure past that cell does not matter. Then
    _crossings refines every cell to 1e-5 dB. Returns (powers, errors):
    errors[i] is None, or the error that stopped order i, whose power is
    then nan.
    """
    points = [(expression, op.with_modulation(m)) for m in orders]
    lt = math.log10(target)
    probes, bounds = [{} for _ in points], [(-1, len(_SCAN_DBM))] * len(points)
    while mids := {i: (lo + hi) // 2 for i, (lo, hi) in enumerate(bounds) if hi - lo > 1}:
        gaps, errors = _log_gaps([points[i] for i in mids],
                                 [_SCAN_DBM[k] for k in mids.values()], lt)
        for (i, k), gap, error in zip(mids.items(), gaps, errors):
            probes[i][k] = gap, error
            bounds[i] = (k, bounds[i][1]) if error is None and gap > 0.0 else (bounds[i][0], k)
    cells = []
    for point, (_, k), probe in zip(points, bounds, probes):
        value, error = probe.get(k, (math.inf, None))  # past the grid: above
        if error is None and value != 0.0 and k in (0, len(_SCAN_DBM)):  # never crossed
            error = NoCrossingError(f"target {target} not reached in "
                                    f"[{_SCAN_DBM[0]}, {_SCAN_DBM[-1]}] dBm")
        # at k = 0 a value of 0 makes the cell's upper end the power
        cells.append(error or (*point, _SCAN_DBM[max(k - 1, 0)], _SCAN_DBM[k],
                               probe.get(k - 1, (math.inf, None))[0], value, 1e-5))
    return _crossings(cells, target)


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
    powers = _powers_at_target(op, orders, expression, target_ser) if valid else ([], [])
    solved = dict(zip(orders, zip(*powers)))
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
