import csv
import math
import random
import re
import statistics
import sys

import numpy as np
import pytest
from scipy import special

from fsolink import cli, errorrates, quadrature, specfun
from fsolink.channel import composite_expectation, dbm_to_watts, watts_to_dbm, y_splits
from fsolink.errorrates import (AVERAGES, ErrorRateCurve, NoCrossingError,
                                averages_at_powers, avg_ber_mpam,
                                avg_ber_ook_approx_piecewise,
                                avg_ber_ook_approx_simple, avg_ber_ook_exact,
                                avg_ser_approx, avg_ser_dense,
                                avg_ser_dense_highpower, avg_ser_exact,
                                conditional_ber_approx, conditional_ber_exact,
                                conditional_ber_ook, conditional_ser_pam,
                                crossing_power, delta_gap, delta_gaps,
                                power_increase_for_next_bit, power_steps,
                                sweep_curve)
from fsolink.montecarlo import McConfig, simulate
from fsolink.quadrature import QuadratureError
from fsolink.specfun import q_function
from support import GRID_POINTS, HEADLINE_POINTS, make_op

PINK = (0.35, 0.1)


# ---------------------------------------------------------------------------
# conditional expressions

def test_conditional_ser_zero_snr():
    for m in (2, 4, 16):
        assert conditional_ser_pam(m, 0.0) == pytest.approx((m - 1) / m)


def test_conditional_ser_matches_q_form():
    # ((M-1)/M) erfc(A / (2 sqrt(2) (M-1))) = (2(M-1)/M) Q(A / (2(M-1)))
    m, a = 8, 10.0
    expect = 2.0 * (m - 1) / m * q_function(a / (2.0 * (m - 1)))
    assert conditional_ser_pam(m, a) == pytest.approx(expect, rel=1e-12)


def test_conditional_ber_ook_is_m2_ser():
    for a in (0.0, 3.0, 12.0):
        assert conditional_ber_ook(a) == pytest.approx(conditional_ser_pam(2, a),
                                                       rel=1e-14)


def test_conditional_ber_exact_zero_snr():
    # signed Q-sums evaluate to 1/2 at zero SNR only after weighting; check
    # the tabulated coefficient sums directly
    assert conditional_ber_exact(8, 0.0) == pytest.approx((7 + 6 - 1 + 1 - 1) / 24.0)
    assert conditional_ber_exact(16, 0.0) == pytest.approx(
        (15 + 14 - 1 + 5 + 4 - 5 - 4 + 5 + 4 - 3 - 2 + 1 - 1) / 64.0)


def test_conditional_ber_exact_approaches_ser_over_m():
    for m in (8, 16):
        a = 220.0
        exact = conditional_ber_exact(m, a)
        approx = conditional_ber_approx(m, a)
        assert exact == pytest.approx(approx, rel=0.01)


def test_conditional_ber_exact_rejects_other_orders():
    with pytest.raises(ValueError):
        conditional_ber_exact(4, 1.0)


def test_conditional_ser_rejects_bad_order():
    with pytest.raises(ValueError):
        conditional_ser_pam(1, 1.0)


# ---------------------------------------------------------------------------
# exact averages

def test_ook_exact_zero_power_limit():
    op = make_op(*PINK, 2, -100.0)
    assert avg_ber_ook_exact(op) == pytest.approx(0.5, abs=1e-4)


def test_ook_exact_frozen_values():
    # regression anchors validated against brute-force h-space quadrature
    # and Monte Carlo (n = 4e6)
    op = make_op(*PINK, 2, 0.0)
    assert avg_ber_ook_exact(op) == pytest.approx(0.009673579768457, rel=1e-9)
    assert avg_ber_ook_exact(op.with_power(dbm_to_watts(5.0))) == pytest.approx(
        8.090847595998e-06, rel=1e-9)


def test_m2_consistency_chain():
    # three routes to the same number: SER form, OOK form, and direct
    # integration of the conditional Q-form against the density
    op = make_op(*PINK, 2, 1.0)
    a = avg_ser_exact(op)
    b = avg_ber_ook_exact(op)
    u = op.geometry.eta * op.transmit_power_p / (
        math.sqrt(2.0) * op.geometry.noise_sigma_n)
    c = composite_expectation(
        op.fading, lambda h: q_function(math.sqrt(2.0) * u * h))
    assert b == pytest.approx(a, rel=1e-10)
    assert c == pytest.approx(a, rel=1e-9)


def test_nested_oracle_agreement():
    for ss, r in HEADLINE_POINTS:
        for p in (0.0, 10.0):
            op = make_op(ss, r, 4, p)
            fast = avg_ser_exact(op)
            slow = avg_ser_exact(op, nested=True)
            assert slow == pytest.approx(fast, rel=1e-8), (ss, r, p)


@pytest.mark.parametrize("point", [(5.0, 0.01, 4, 0.0), (1.0, 0.01, 4, 0.0),
                                   (0.095, 0.154, 1024, 18.9)])
def test_nested_oracle_agreement_off_grid(point):
    # gamma^2 = 0.039 and 0.97: the lower piece's erfc arguments run far
    # negative; gamma^2 = 109: the Gaussian bump sits where exp(v^2) erfc(v)
    # has v near 30
    op = make_op(*point)
    assert avg_ser_exact(op, nested=True) == pytest.approx(avg_ser_exact(op), rel=1e-8)


def test_nested_oracle_keeps_its_own_splits(monkeypatch):
    # the engine's split at y* + 10 sigma is not the oracle's: above the
    # breakpoint QUADPACK starts from the splits of y_splits alone
    op = make_op(*PINK, 4, -10.0)
    pieces = []
    integrate = quadrature.integrate

    def recording(f, lo, hi, split_points):
        pieces.append((lo, hi, tuple(p for p in split_points if lo < p < hi)))
        return integrate(f, lo, hi, split_points)

    monkeypatch.setattr(quadrature, "integrate", recording)
    avg_ser_exact(op, nested=True)
    par = op.fading.log_gain_params
    _, hi, splits = pieces[-1]
    assert par.y_star + 10.0 * math.sqrt(par.sig2) < hi
    assert splits == tuple(p for p in y_splits(par) if p < hi)


def _anchors_and_neighbours():
    for k in range(451):
        a = math.sqrt(2.0 * k)
        yield from (math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf))


def test_gauss_tail_matches_erfc():
    # dense over [-6, 26.5], with every anchor sqrt(2 k) and one ulp either side
    xs = [*np.linspace(-6.0, 26.5, 3251).tolist(), *_anchors_and_neighbours()]
    checked = 0
    for x in xs:
        want = math.erfc(x) * math.sqrt(math.pi) / 2.0
        if want >= 1e-300:
            assert errorrates._gauss_tail(x) == pytest.approx(want, rel=2e-12, abs=0.0), x
            checked += 1
    assert checked > 3000


def test_gauss_tail_makes_at_most_one_finite_call_once_anchored(monkeypatch):
    xs = [*np.linspace(0.0, 29.9, 300).tolist(), *_anchors_and_neighbours()]
    for x in xs:
        errorrates._gauss_tail(x)  # fills its anchor
    calls = []
    quadpack = quadrature.quadpack

    def recording(f, lo, hi, **options):
        calls.append((lo, hi))
        return quadpack(f, lo, hi, **options)

    monkeypatch.setattr(quadrature, "quadpack", recording)
    for x in xs:
        calls.clear()
        errorrates._gauss_tail(x)
        assert len(calls) <= 1 and all(math.isfinite(hi) for _, hi in calls), (x, calls)
    calls.clear()
    errorrates._gauss_tail(math.sqrt(8.0))  # on its anchor: no piece
    assert calls == []


def test_nested_oracle_computes_every_erfc_itself(monkeypatch):
    def refuse(*args):
        raise AssertionError("library erfc called")

    for module, name in ((special, "erfc"), (special, "erfcx"), (specfun._special, "erfc"),
                         (specfun._special, "erfcx"), (math, "erfc")):
        monkeypatch.setattr(module, name, refuse)
    for point in [(*PINK, 4, 10.0), (0.095, 0.154, 1024, 18.9)]:
        assert avg_ser_exact(make_op(*point), nested=True) > 0.0


# at this point the exact SER of OOK falls below the smallest normal double
# near 52 dBm and the dense one near 56 dBm
SUBNORMAL_POINT = (0.114, 0.05473)


@pytest.mark.parametrize("name", sorted(AVERAGES))
def test_averages_below_the_smallest_normal_are_zero(name):
    op = make_op(*SUBNORMAL_POINT, 2)
    grid = np.arange(50.0, 60.01, 0.25)
    values, errors = averages_at_powers(AVERAGES[name], op, [dbm_to_watts(p) for p in grid])
    assert errors == [None] * len(grid)
    assert not any(0.0 < abs(v) < sys.float_info.min for v in values)
    assert values[-1] == 0.0


def test_nested_average_below_the_smallest_normal_is_zero():
    assert avg_ser_exact(make_op(*SUBNORMAL_POINT, 2, 50.0), nested=True) > 1e-294
    assert avg_ser_exact(make_op(*SUBNORMAL_POINT, 2, 52.0), nested=True) == 0.0


def test_exact_monotone_in_power_and_order():
    prev = None
    for p in (-5.0, 0.0, 5.0, 10.0, 15.0):
        v = avg_ser_exact(make_op(*PINK, 4, p))
        if prev is not None:
            assert v < prev
        prev = v
    p = 8.0
    by_m = [avg_ser_exact(make_op(*PINK, m, p)) for m in (2, 4, 8, 16)]
    assert by_m == sorted(by_m)


def test_probability_bounds():
    for ss, r in HEADLINE_POINTS:
        for m, p in ((2, 0.0), (16, 10.0), (64, 25.0)):
            v = avg_ser_exact(make_op(ss, r, m, p))
            assert 0.0 < v < (m - 1) / m + 1e-12


# ---------------------------------------------------------------------------
# approximations

def test_piecewise_frozen_value():
    op = make_op(*PINK, 2, 0.0)
    assert avg_ber_ook_approx_piecewise(op) == pytest.approx(
        0.010507262883967, rel=1e-9)


def test_simple_frozen_value():
    op = make_op(*PINK, 2, 0.0)
    assert avg_ber_ook_approx_simple(op) == pytest.approx(0.104674933195, rel=1e-6)


def test_ser_approx_m2_equals_ook_piecewise():
    op = make_op(0.25, 0.5, 2, 3.0)
    assert avg_ser_approx(op) == pytest.approx(avg_ber_ook_approx_piecewise(op),
                                               rel=1e-12)


def test_ook_forms_reject_higher_order():
    op = make_op(*PINK, 4, 0.0)
    with pytest.raises(ValueError):
        avg_ber_ook_exact(op)
    with pytest.raises(ValueError):
        avg_ber_ook_approx_piecewise(op)
    with pytest.raises(ValueError):
        avg_ber_ook_approx_simple(op)


def test_approx_ratio_band_at_high_power():
    # piecewise approximation overshoots by a stable few percent
    for ss, r in HEADLINE_POINTS:
        op = make_op(ss, r, 4, 0.0)
        grid = [g * 2.0 for g in range(-5, 16)]
        curve = sweep_curve(op, avg_ser_exact, grid)
        pstar = crossing_power(curve, 1e-3)
        op_hi = op.with_power(dbm_to_watts(pstar + 6.0))
        ratio = avg_ser_approx(op_hi) / avg_ser_exact(op_hi)
        assert 1.0 <= ratio <= 1.1, (ss, r, ratio)


def test_dense_invariance_double_m_double_p():
    # doubling both the order and the power leaves the dense form unchanged
    for m, p in ((8, 5.0), (64, 20.0)):
        a = avg_ser_dense(make_op(*PINK, m, p))
        b = avg_ser_dense(make_op(*PINK, 2 * m, p + 10.0 * math.log10(2.0)))
        assert b == pytest.approx(a, rel=1e-12)


def test_dense_approaches_approx_for_large_m():
    # with power scaled so u/M is fixed, the (M-1) vs M distinction vanishes
    a = avg_ser_approx(make_op(*PINK, 64, 25.0)) / avg_ser_dense(
        make_op(*PINK, 64, 25.0))
    b = avg_ser_approx(make_op(*PINK, 1024, 25.0 + 10.0 * math.log10(1024 / 64))) / \
        avg_ser_dense(make_op(*PINK, 1024, 25.0 + 10.0 * math.log10(1024 / 64)))
    assert abs(b - 1.0) < abs(a - 1.0) + 1e-9
    assert b == pytest.approx(1.0, abs=0.02)


def test_highpower_form_requires_peaked_pointing():
    op = make_op(*PINK, 64, 30.0)
    assert avg_ser_dense_highpower(op) == pytest.approx(5.49021905857e-11, rel=1e-8)
    v = avg_ser_dense_highpower(op) / avg_ser_exact(op)
    assert 1.2 < v < 1.4


def test_highpower_dominates_dense():
    # dropping the 4/pi guard enlarges the integrand pointwise
    for p in (25.0, 30.0, 35.0):
        op = make_op(0.25, 0.5, 64, p)
        assert avg_ser_dense_highpower(op) >= avg_ser_dense(op)


# ---------------------------------------------------------------------------
# M-PAM BER modes

def test_ber_modes_agree_for_ook():
    op = make_op(*PINK, 2, 2.0)
    assert avg_ber_mpam(op, "exact-for-8-16") == pytest.approx(
        avg_ber_ook_exact(op), rel=1e-10)
    assert avg_ber_mpam(op, "ser-over-m") == pytest.approx(
        avg_ber_ook_exact(op), rel=1e-10)


def test_ber_exact_mode_orders():
    with pytest.raises(ValueError):
        avg_ber_mpam(make_op(*PINK, 4, 5.0), "exact-for-8-16")
    with pytest.raises(ValueError):
        avg_ber_mpam(make_op(*PINK, 8, 5.0), "no-such-mode")


def test_ber_exact_vs_ser_over_m_convergence():
    # the two BER routes agree within 2% once the power is high enough
    for m, p in ((8, 15.0), (16, 18.0)):
        op = make_op(*PINK, m, p)
        exact = avg_ber_mpam(op, "exact-for-8-16")
        ratio = avg_ber_mpam(op, "ser-over-m") / exact
        assert ratio == pytest.approx(1.0, abs=0.02), (m, p)


def test_ber_ordering_in_m():
    p = 10.0
    assert avg_ber_mpam(make_op(*PINK, 16, p), "exact-for-8-16") > \
        avg_ber_mpam(make_op(*PINK, 8, p), "exact-for-8-16")


# ---------------------------------------------------------------------------
# curves and crossings

def test_curve_validation():
    with pytest.raises(ValueError):
        ErrorRateCurve([0.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        ErrorRateCurve([0.0, 0.0], [0.1, 0.2])


def _dbm_curve(fn, p_dbm):
    """The curve of fn (a function of the power in dBm) on p_dbm, whose
    expression evaluates fn at an operating point's power."""
    return ErrorRateCurve(p_dbm, [fn(p) for p in p_dbm],
                          lambda op: fn(watts_to_dbm(op.transmit_power_p)), make_op(*PINK))


def test_delta_gap_identical_curves_is_zero():
    curve = _dbm_curve(lambda p: 10.0 ** (-2.0 - p), [0.0, 1.0, 2.0])
    assert delta_gap(curve, curve, 5e-4) == pytest.approx(0.0, abs=1e-12)


def test_crossing_power_linear_interpolation():
    curve = _dbm_curve(lambda p: 10.0 ** (-2.0 - p), [0.0, 2.0])
    # log-linear midpoint
    assert crossing_power(curve, 1e-3) == pytest.approx(1.0, abs=1e-9)
    # without an expression and a point there is nothing to refine the cell on
    for expression, op in ((None, None), (curve.expression, None), (None, curve.op)):
        with pytest.raises(ValueError, match="no expression and operating point to refine"):
            crossing_power(ErrorRateCurve(curve.p_dbm, curve.values, expression, op), 1e-3)


def test_crossing_power_refines_with_evaluator():
    op = make_op(*PINK, 2, 0.0)
    grid = [-4.0 + 2.0 * i for i in range(8)]
    curve = sweep_curve(op, avg_ber_ook_exact, grid)
    pstar = crossing_power(curve, 3.84e-3)
    assert avg_ber_ook_exact(op.with_power(dbm_to_watts(pstar))) == pytest.approx(
        3.84e-3, rel=1e-3)


def _scipy_crossing(curve, threshold):
    """scipy's brentq on log10 of the curve's expression over its first cell
    that crosses the threshold, to 1e-4 dB: its root and its number of
    evaluations inside the cell."""
    from scipy.optimize import brentq

    i = next(i for i, (a, b) in enumerate(zip(curve.values, curve.values[1:]))
             if a > threshold > b)
    lt = math.log10(threshold)
    root, result = brentq(
        lambda p: math.log10(curve.expression(curve.op.with_power(dbm_to_watts(p)))) - lt,
        curve.p_dbm[i], curve.p_dbm[i + 1], xtol=1e-4, full_output=True)
    return root, result.function_calls - 2  # scipy counts both ends


def test_crossing_power_never_evaluates_the_cell_ends():
    # the refinement starts from the curve's own values at the ends of its
    # cell, and takes the steps of scipy's brentq, which evaluates them again
    op = make_op(*PINK, 4, 0.0)
    grid = [-4.0 + 2.0 * i for i in range(10)]
    curve = sweep_curve(op, avg_ser_exact, grid)
    seen = []

    def recording(op):
        seen.append(op.transmit_power_p)
        return avg_ser_exact(op)

    curve.expression = recording
    pstar = crossing_power(curve, 1e-3)
    assert seen and not set(seen) & {dbm_to_watts(p) for p in grid}
    curve.expression = avg_ser_exact
    assert pstar == _scipy_crossing(curve, 1e-3)[0]


def test_delta_crossings_solved_in_lockstep(monkeypatch):
    # at a headline channel every crossing of delta_gaps is scipy's brentq on
    # its expression's log10 curve, bit for bit, and each round evaluates
    # every unfinished lane, one batch per expression
    op = make_op(0.25, 0.5, 4, 0.0)
    grid = [-10.0 + i for i in range(51)]
    curves = [sweep_curve(op, AVERAGES[name], grid)
              for name in ("exact", "approx", "dense", "dense_highpower")]
    calls = []
    for average, batch in [(c.expression, errorrates._BATCHED[c.expression]) for c in curves]:
        monkeypatch.setitem(errorrates._BATCHED, average,
                            lambda *args, average=average, batch=batch:
                            calls.append(average) or batch(*args))
    gaps, errors = delta_gaps(curves[0], curves[1:], 1e-3)
    (p_exact, _), *solves = solved = [_scipy_crossing(c, 1e-3) for c in curves]
    assert errors == [None] * 3
    assert gaps == [p - p_exact for p, _ in solves]
    assert calls == [c.expression for k in range(max(n for _, n in solved))
                     for c, (_, n) in zip(curves, solved) if n > k]
    # a failing exact crossing fails every gap, and is solved once, not per gap
    failed = []

    def failing(op):
        failed.append(op)
        raise QuadratureError("exact fails")

    curves[0].expression = failing
    gaps, errors = delta_gaps(curves[0], curves[1:], 1e-3)
    assert len(failed) == 1
    assert [str(e) for e in errors] == ["exact fails"] * 3 and all(map(math.isnan, gaps))


def test_crossing_power_at_a_cell_end():
    # a grid value on the threshold is the crossing, with no evaluation
    def expression(op):
        raise AssertionError(f"evaluated at {op.transmit_power_p} W")

    curve = ErrorRateCurve([0.0, 1.0, 2.0], [1e-2, 1e-3, 1e-4], expression, make_op(*PINK))
    assert crossing_power(curve, 1e-3) == 1.0


def test_crossing_power_into_a_zero_average():
    # the first cell that crosses the threshold ends at an average of 0:
    # there is no log10 to refine on
    curve = _dbm_curve(lambda p: 10.0 ** (-3.0 - p) if p < 2.5 else 0.0, [0.0, 1.0, 2.0, 3.0])
    message = "average is 0 at an end of [2.0, 3.0] dBm, the cell where it crosses 1e-06"
    with pytest.raises(QuadratureError, match=re.escape(message)):
        crossing_power(curve, 1e-6)
    assert crossing_power(curve, 1e-4) == pytest.approx(1.0, abs=1e-9)
    rising = ErrorRateCurve([0.0, 1.0], [0.0, 1e-2])
    with pytest.raises(QuadratureError, match=re.escape("average is 0 at an end of [0.0, 1.0]")):
        crossing_power(rising, 1e-6)


def test_crossing_power_no_crossing_raises():
    curve = ErrorRateCurve([0.0, 1.0], [1e-2, 1e-3])
    with pytest.raises(NoCrossingError):
        crossing_power(curve, 1e-6)


def test_power_increase_validation():
    op = make_op(*PINK, 2, 0.0)
    with pytest.raises(ValueError):
        power_increase_for_next_bit(op, 0, 1e-3)
    with pytest.raises(ValueError):
        power_increase_for_next_bit(op, 2, 0.7)


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan, 0.5, 1e-316])
def test_power_steps_bad_target_fails_every_row(target):
    # a subnormal target is refused as a subnormal threshold is
    steps, errors = power_steps(make_op(*PINK, 2, 0.0), [0, 1], target)
    assert [str(e) for e in errors] == [
        "m_bits must be >= 1", "target_ser must lie in [2.2250738585072014e-308, 0.5)"]
    assert all(math.isnan(d) for d in steps)


def test_power_increase_first_step():
    op = make_op(*PINK, 2, 0.0)
    assert power_increase_for_next_bit(op, 1, 1e-3) == pytest.approx(5.067, abs=0.01)


def test_power_steps_equal_one_step_calls():
    # each order is solved once and shared by the steps on either side of it
    op = make_op(*PINK, 2, 0.0)
    steps, errors = power_steps(op, range(1, 10), 1e-3)
    assert errors == [None] * 9
    assert steps == [power_increase_for_next_bit(op, m, 1e-3) for m in range(1, 10)]


def _parent_power_at_target(op, target):
    """Reference one-order power solve: the first sign change of
    log10(SER) - log10(target) on a 2 dB grid from -40 to 60 dBm, evaluated
    as one batch, refined by scalar Brent to 1e-5 dB."""
    from scipy.optimize import brentq

    grid = [-40.0 + 2.0 * i for i in range(51)]
    lt = math.log10(target)
    values, errors = averages_at_powers(avg_ser_exact, op, [dbm_to_watts(p) for p in grid])
    assert errors == [None] * len(grid)
    logs = [math.log10(v) for v in values]
    for i in range(1, len(grid)):
        if (logs[i - 1] - lt) * (logs[i] - lt) <= 0.0:
            return brentq(lambda p: math.log10(avg_ser_exact(op.with_power(dbm_to_watts(p)))) - lt,
                          grid[i - 1], grid[i], xtol=1e-5)
    raise NoCrossingError(target)


@pytest.mark.parametrize("point", GRID_POINTS)
def test_power_steps_equal_parent_solve(point):
    op = make_op(*point, 2, 0.0)
    powers = [_parent_power_at_target(op.with_modulation(2**m), 1e-3) for m in range(1, 11)]
    steps, errors = power_steps(op, range(1, 10), 1e-3)
    assert errors == [None] * 9
    assert steps == [b - a for a, b in zip(powers, powers[1:])]


def test_power_steps_fail_only_at_a_failing_order():
    # 2-PAM fails while bracketing; 4- and 8-PAM are still refined in lockstep
    op = make_op(*PINK, 2, 0.0)

    def without_ook(op):
        if op.modulation_order_m == 2:
            raise ValueError("no 2-PAM here")
        return avg_ser_exact(op)

    steps, errors = power_steps(op, [1, 2, 3], 1e-3, without_ook)
    assert str(errors[0]) == "no 2-PAM here" and math.isnan(steps[0])
    assert errors[1:] == [None, None]
    assert steps[1:] == power_steps(op, [2, 3], 1e-3)[0]


def test_power_steps_evaluate_all_orders_per_engine_call(monkeypatch):
    calls = []
    engine = errorrates.density_average

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(errorrates, "density_average", counted)
    steps, errors = power_steps(make_op(*PINK, 2, 0.0), range(1, 10), 1e-3)
    assert errors == [None] * 9
    # 6 bisection rounds on the 61-point grid and the lockstep Brent rounds;
    # a scan and a scalar solve per order would take about 70 calls
    assert len(calls) <= 16
    assert calls[0] == 10  # one probe of each order M = 2 ... 1024


def test_power_solve_at_a_zero_average():
    # gamma^2 = 109: the exact SER underflows to 0 well inside the power domain
    op = make_op(0.095, 0.154, 2, 80.0)
    assert op.fading.gamma**2 == pytest.approx(108.67, abs=0.01)
    assert avg_ser_exact(op) == 0.0
    steps, errors = power_steps(op, range(1, 10), 1e-3)
    assert errors == [None] * 9
    assert all(3.0 < d < 5.1 for d in steps)
    # a target below SER(60 dBm) = 7.1e-246 (M = 2) and 3.5e-208 (M = 4):
    # each row solves or carries its own error
    steps, errors = power_steps(op, range(1, 10), 1e-250)
    assert all(math.isfinite(d) for d, e in zip(steps, errors) if e is None)
    assert [type(e) for e in errors[5:]] == [NoCrossingError] * 4
    # gamma^2 = 302: the target lies in the cells where the SER falls to 0,
    # for M = 2 from 2.3e-266 at 14 dBm to 0 at 16 dBm, for M = 4 from
    # 2.8e-303 at 20 dBm to 0 at 22 dBm
    op = make_op(0.057, 2.4e-4, 2, 0.0)
    steps, errors = power_steps(op, range(1, 3), 1e-304)
    assert [str(e) for e in errors] == [
        f"average is 0 at an end of [{a}, {b}] dBm, the cell where it crosses 1e-304"
        for a, b in ((14.0, 16.0), (20.0, 22.0))]
    assert all(isinstance(e, QuadratureError) for e in errors)


# ---------------------------------------------------------------------------
# batched evaluation over transmit powers

GRID_121 = [-10.0 + 0.25 * i for i in range(121)]


@pytest.mark.parametrize("name", sorted(AVERAGES))
def test_batch_equals_one_power_calls(name):
    op = make_op(*PINK, 2, 0.0)
    watts = [dbm_to_watts(p) for p in GRID_121]
    values, errors = averages_at_powers(AVERAGES[name], op, watts)
    assert errors == [None] * len(watts)
    assert values == [AVERAGES[name](op.with_power(w)) for w in watts]
    # a point's value does not depend on which other powers share its batch
    part, _ = averages_at_powers(AVERAGES[name], op, watts[::-7])
    assert part == values[::-7]


@pytest.mark.parametrize("name", ["exact", "approx", "dense", "dense_highpower"])
def test_mixed_order_batch_equals_one_order_batches(name):
    # an entry's value does not depend on the orders of the others
    op = make_op(*PINK, 2, 0.0)
    batch = errorrates._BATCHED[AVERAGES[name]]
    orders = [2**k for k in range(1, 11)]
    watts = [dbm_to_watts(p) for p in (-5.0, 10.0, 30.0, 60.0)]
    values, errors = batch(op, [w for w in watts for _ in orders], orders * len(watts))
    assert errors == [None] * len(values)
    for j, m in enumerate(orders):
        alone, errors = batch(op, watts, [m] * len(watts))
        assert errors == [None] * len(watts)
        assert values[j::len(orders)] == alone


@pytest.mark.parametrize("expression", [avg_ser_exact, lambda op: avg_ser_exact(op)],
                         ids=["batch", "point-by-point"])
def test_invalid_power_flags_only_that_power(expression):
    # a power that is not positive and finite fails as OperatingPoint rejects
    # it, whether the expression is evaluated as a batch or point by point
    op = make_op(*PINK, 4, 0.0)
    watts = [dbm_to_watts(0.0), math.nan, dbm_to_watts(5.0), math.inf, 0.0]
    values, errors = averages_at_powers(expression, op, watts)
    for i in (1, 3, 4):
        assert isinstance(errors[i], ValueError)
        assert str(errors[i]) == "transmit power must be positive and finite"
        assert math.isnan(values[i])
    assert errors[0] is None and errors[2] is None
    assert values[0] == avg_ser_exact(op)
    assert values[2] == avg_ser_exact(op.with_power(watts[2]))


def _nan_erfc_above(limit):
    return lambda z: np.where(np.asarray(z) > limit, np.nan, special.erfc(z))


def test_power_solve_ignores_failures_past_the_bracket(monkeypatch):
    op = make_op(*PINK, 2, 0.0)
    reference = power_increase_for_next_bit(op, 1, 1e-3)
    # batched: the 4-PAM scan fails at 60 dBm, far past its bracket near 7 dBm
    monkeypatch.setattr(errorrates, "erfc", _nan_erfc_above(1e5))
    _, errors = averages_at_powers(avg_ser_exact, op.with_modulation(4), [dbm_to_watts(60.0)])
    assert isinstance(errors[0], QuadratureError)
    assert power_increase_for_next_bit(op, 1, 1e-3) == reference
    monkeypatch.undo()

    # point by point: a callable that fails above 10 dBm bisects to the same cell
    def failing_above(op):
        if op.transmit_power_p > dbm_to_watts(10.0):
            raise ValueError("no average above 10 dBm")
        return avg_ser_exact(op)

    assert power_increase_for_next_bit(op, 1, 1e-3, failing_above) == reference
    # and takes the probes and Brent iterates of the batched solve
    steps, errors = power_steps(op, range(1, 10), 1e-3, lambda op: avg_ser_exact(op))
    assert errors == [None] * 9
    assert steps == power_steps(op, range(1, 10), 1e-3)[0]


def test_sweep_failure_marks_only_its_row(monkeypatch, tmp_path):
    # a conditional erfc that gives NaN for large arguments fails only the
    # 100 dBm point, where u h reaches beyond 1e6
    monkeypatch.setattr(errorrates, "erfc", _nan_erfc_above(1e6))
    path = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "100",
                     "--p_dbm_step", "50", "--modulation_m", "4",
                     "--expressions", "exact,approx", "--out", str(path)])
    assert code == 3
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert rows[2]["exact"] == "nan"
    assert rows[2]["errors"].startswith("exact: ")
    assert rows[2]["approx"] != "nan"
    for row in rows[:2]:
        assert row["errors"] == ""
        assert float(row["exact"]) > 0.0


# ---------------------------------------------------------------------------
# panel plan

# off-grid (sigma_s, rytov, M, P dBm), gamma^2 from 0.04 to 390
OFF_GRID = [(5.0, 0.01, 4, 0.0), (2.5, 3e-4, 4, -2.0), (1.2, 0.33, 128, 50.0),
            (0.9, 2.5e-4, 32, -17.0), (0.76, 0.16, 4, 69.0), (0.4, 0.0096, 128, 57.0),
            (0.34, 0.51, 512, 71.0), (0.057, 2.4e-4, 128, 18.0), (0.05, 0.11, 256, -1.0),
            (0.15, 1e-4, 1024, -30.0), (0.6, 1.0, 2, 80.0)]


def test_single_point_rounds(monkeypatch):
    # the initial panels resolve the integrand's scales, so a single point
    # takes one round of Gauss-Kronrod and at most one round of cuts
    calls = []
    gk21 = quadrature._gk21

    def counting(*args):
        calls.append(None)
        return gk21(*args)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    for call in (avg_ser_exact, lambda op: composite_expectation(op.fading)):
        rounds = []
        for point in OFF_GRID:
            calls.clear()
            call(make_op(*point))
            rounds.append(len(calls))
        assert statistics.median(rounds) <= 2, rounds


def test_normalisation_converges_in_one_round(monkeypatch):
    # the split at y* + 10 sigma resolves the bump's upper tail, so the
    # normalisation needs no round of cuts at the median point
    calls = []
    gk21 = quadrature._gk21

    def counting(*args):
        calls.append(None)
        return gk21(*args)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    rounds = []
    for point in OFF_GRID:
        calls.clear()
        assert composite_expectation(make_op(*point).fading) == pytest.approx(1.0, abs=1e-9)
        rounds.append(len(calls))
    assert statistics.median(rounds) == 1, rounds


def test_single_point_work_budget(monkeypatch):
    # Gauss-Kronrod rounds and panels of the single-point averages over 200
    # points drawn like the benchmark's domain workload, at most 5 % above
    # the 845 rounds and 17,551 panels that the mode-anchored plan of
    # low_w_plan and LogGainParams.y_plan takes; the plan of fixed offsets
    # from h_hat took 1,376 and 20,239
    panels = []
    gk21 = quadrature._gk21

    def counting(f, lo, hi, owner):
        panels.append(lo.size)
        return gk21(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    rng = random.Random(8)
    for _ in range(200):
        rytov = 10.0 ** rng.uniform(-4.0, 0.0)
        sigma_s = 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))
        m = 2 ** rng.randint(1, 10)
        op = make_op(sigma_s, rytov, m, rng.uniform(-30.0, 80.0))
        composite_expectation(op.fading)
        for average in (avg_ser_exact, avg_ser_approx, avg_ser_dense):
            average(op)
    assert len(panels) <= 1.05 * 845, len(panels)
    assert sum(panels) <= 1.05 * 17551, sum(panels)


# the OFF_GRID points whose exact SER lies in [1e-3, 0.3], and OFF_GRID[1]
# (gamma^2 = 0.16) raised by 20 dB into that range
@pytest.mark.parametrize("point", [OFF_GRID[2], OFF_GRID[7], OFF_GRID[1][:3] + (18.0,)])
def test_monte_carlo_agreement_off_grid(point):
    op = make_op(*point)
    exact = avg_ser_exact(op)
    n = 1_000_000
    est = simulate(op, McConfig(n_symbols=n, seed=11))
    assert abs(est.ser_hat - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / n)
