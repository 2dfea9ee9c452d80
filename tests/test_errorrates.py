import csv
import math
import random
import re
import statistics
import sys

import numpy as np
import pytest
from scipy import integrate, special

import fsolink
from fsolink import channel, cli, errorrates, quadrature, specfun
from fsolink.channel import composite_expectation, dbm_to_watts, flush_subnormal
from fsolink.errorrates import (AVERAGES, ErrorRateCurve, NoCrossingError,
                                averages_at_powers, avg_ber_exact,
                                avg_ber_ook_approx_piecewise,
                                avg_ber_ook_approx_simple, avg_ber_ook_exact,
                                avg_ser_approx, avg_ser_dense,
                                avg_ser_dense_highpower, avg_ser_exact,
                                crossing_power, delta_gap,
                                power_increase_for_next_bit, power_steps,
                                sweep_curve)
from fsolink.montecarlo import McConfig, brgc_encode, simulate
from fsolink.quadrature import QuadratureError
from support import (GRID_POINTS, HEADLINE_POINTS, as_average, conditional_ber_exact,
                     conditional_ser_pam, make_geometry, make_op, q_function)

PINK = (0.35, 0.1)


# ---------------------------------------------------------------------------
# conditional expressions: the references of tests/support.py, the BER one on
# the library's Gray coefficients

def test_conditional_ser_zero_snr():
    for m in (2, 4, 16):
        assert conditional_ser_pam(m, 0.0) == pytest.approx((m - 1) / m)


def test_conditional_ser_matches_q_form():
    # ((M-1)/M) erfc(A / (2 sqrt(2) (M-1))) = (2(M-1)/M) Q(A / (2(M-1)))
    m, a = 8, 10.0
    expect = 2.0 * (m - 1) / m * q_function(a / (2.0 * (m - 1)))
    assert conditional_ser_pam(m, a) == pytest.approx(expect, rel=1e-12)


def test_conditional_ber_ook_is_m2_ser():
    # the Gray-mapped BER at M = 2, erfc(A / sqrt(8)) / 2, is the 2-PAM SER
    for a in (0.0, 3.0, 12.0):
        assert conditional_ber_exact(2, a) == pytest.approx(conditional_ser_pam(2, a),
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
        approx = conditional_ser_pam(m, a) / (m.bit_length() - 1)
        assert exact == pytest.approx(approx, rel=0.01)


def test_conditional_ber_exact_rejects_other_orders():
    # every power of two from 2 to 1024 has an exact BER; nothing else does
    for m in (1, 3, 6, 2048):
        with pytest.raises(ValueError, match="power of two from 2 to 1024"):
            conditional_ber_exact(m, 1.0)


def test_conditional_ber_approx_rejects_other_orders():
    # the SER-over-bits form takes the orders the exact BER takes: 6 used to
    # divide by a floored log2 M of 2, and 2048 to give 0.0908
    op = make_op(*PINK, 8, 5.0)
    for m in (1, 3, 6, 2048):
        with pytest.raises(ValueError, match="power of two from 2 to 1024"):
            errorrates._gray_ber_terms(m)
        with pytest.raises(ValueError, match="power of two from 2 to 1024"):
            op.with_modulation(m)
    assert op.bits_per_symbol == 3
    assert _ser_over_bits(op) == flush_subnormal(avg_ser_exact(op) / 3)


def _full_gray_ber(terms, t):
    # every term of the Gray-coded sum, in order, as the sum was first written
    out = np.zeros_like(t)
    for c, k in zip(*terms):
        out += c * specfun.erfc(k * t)
    return out


def test_gray_ber_stops_early_bit_for_bit():
    # the terms left out past erfc's last nonzero argument are exact zeros
    terms = errorrates._gray_ber_terms(1024)
    rng = np.random.default_rng(3)
    for scale in (0.0, 1e-4, 0.03, 1.0, 40.0):
        t = rng.uniform(0.0, 1.0, (40, 21)) * scale
        t[5, 3], t[9, 0] = 0.0, np.inf
        np.testing.assert_array_equal(errorrates._gray_ber(terms, t), _full_gray_ber(terms, t))
    # the scalar reference adds libm's erfc terms one at a time: its early stop
    # drops exact zeros of libm's erfc too
    for a in (0.0, 3.0, 300.0, 1e5):
        t = a / (2.0 * math.sqrt(2.0) * 1023)
        assert conditional_ber_exact(1024, a) == sum(
            c * math.erfc(k * t) for c, k in zip(*(x.tolist() for x in terms)))
    # the exact M = 1024 BER average equals the engine's with the full sum
    for p in (0.0, 20.0, 40.0):
        op = make_op(*PINK, 1024, p)
        u = errorrates._u(op, [op.transmit_power_p], [1023])
        full = channel.single_value(channel.density_average(
            op.fading, u, channel.EXACT_WEIGHT, lambda h, u: _full_gray_ber(terms, u * h)))
        assert avg_ber_exact(op) == full


# the Gray-mapped conditional BER of 8- and 16-PAM as signed Q-function sums,
# sum c Q(k A / scale) / denom: (denom, scale, ((c, k), ...)), tabulated by hand
BER_TABLES = {
    8: (12.0, 14.0, ((7, 1), (6, 3), (-1, 5), (1, 9), (-1, 13))),
    16: (32.0, 30.0, ((15, 1), (14, 3), (-1, 5), (5, 9), (4, 11), (-5, 13), (-4, 15), (5, 17),
                      (4, 19), (-3, 21), (-2, 23), (1, 25), (-1, 29))),
}


@pytest.mark.parametrize("m", sorted(BER_TABLES))
def test_conditional_ber_exact_matches_the_tables(m):
    denom, scale, terms = BER_TABLES[m]
    assert scale == 2 * (m - 1)  # Q(k A / scale) = erfc(k t) / 2, t = A / (2 sqrt(2) (M - 1))
    for a in [0.0, *np.geomspace(1e-3, 400.0, 60)]:
        t = a / (2.0 * math.sqrt(2.0) * (m - 1))
        expect = sum(c * 0.5 * math.erfc(k * t) for c, k in terms) / denom
        assert abs(conditional_ber_exact(m, a) - expect) <= 1e-14 * expect, a


def _brute_force_ber(m, a):
    """Conditional BER of Gray-mapped M-PAM by enumerating every sent and
    detected level: P(i | j) is the difference of the Gaussian tails beyond
    the two edges of level i's decision cell, each taken on the tail side."""
    words = brgc_encode(np.arange(m), m.bit_length() - 1)
    hamming = np.count_nonzero(words[:, None, :] != words[None, :, :], axis=-1)
    d = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])  # d[j, i]
    spacing = a / (m - 1)  # the level spacing over the noise deviation
    outer = (np.arange(m)[None, :] == 0) | (np.arange(m)[None, :] == m - 1)
    beyond_far_edge = np.where(outer, 0.0, special.ndtr(-(d + 0.5) * spacing))
    p = special.ndtr(-(d - 0.5) * spacing) - beyond_far_edge
    np.fill_diagonal(p, 0.0)
    return float((hamming * p).sum() / (m * (m.bit_length() - 1)))


@pytest.mark.parametrize("m", [2, 4, 32, 256])
def test_conditional_ber_exact_matches_gray_enumeration(m):
    for a in (0.5, 10.0, 300.0):
        expect = _brute_force_ber(m, a)
        assert abs(conditional_ber_exact(m, a) - expect) <= 1e-12 * expect, (a, expect)


def test_conditional_ser_rejects_bad_order():
    # an SER needs M >= 2: the library refuses M = 1 where every average gets
    # its order, on the operating point
    op = make_op(*PINK, 2, 1.0)
    with pytest.raises(ValueError):
        op.with_modulation(1)


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


def test_nested_oracle_at_large_gamma2():
    # gamma^2 = 7,012 (s = 3,506): at a^2 between 600 and s, P(s, a^2)
    # underflows to 0, where the log of the gamma form raised a math domain
    # error; the 1F1 form is bounded there
    op = make_op(0.011826404433538582, 0.013592550645984185, 64, 40.89260318645964)
    assert op.fading.g2 == pytest.approx(7012.2, rel=1e-5)
    assert avg_ser_exact(op, nested=True) == pytest.approx(avg_ser_exact(op), rel=1e-10,
                                                           abs=1e-300)
    assert avg_ser_exact(op) == pytest.approx(6.4805e-274, rel=1e-4)


@pytest.mark.parametrize("m, noise", [(1024, 1e-7), (2, 1e-5)])
def test_exact_matches_nested_oracle_where_e_to_the_y_overflows(m, noise):
    # a 100 m link with gamma^2 = 706.5: h_hat = 5.46e-308, and the bump's top
    # y* + 45 sigma = 751.5 lies past ln(DBL_MAX) = 709.78, where e^y is inf
    # but the gain h_hat e^y is not; a gain read as inf made the top of the
    # average 0, rel 4.5e-4 low at M = 1024
    geometry = make_geometry(distance_z=100.0, divergence_theta=1e-3, aperture_radius_a=0.2,
                             noise_sigma_n=noise)
    op = make_op(113.39884545324281, 1.0, m, -30.0, geometry)
    assert op.fading.y_top == pytest.approx(751.48, rel=1e-5)
    assert avg_ser_exact(op) == pytest.approx(avg_ser_exact(op, nested=True), rel=1e-10)


def test_dense_highpower_refuses_gamma_squared_at_most_one():
    # the high-power form's 1/h leaves h^(gamma^2 - 2) near h = 0, whose
    # integral diverges unless gamma^2 > 1
    op = make_op(5.0, 0.1, 2, 0.0)
    assert op.fading.g2 < 1.0
    with pytest.raises(ValueError, match=r"requires gamma\^2 > 1"):
        avg_ser_dense_highpower(op)
    values, errors = averages_at_powers(avg_ser_dense_highpower, op, [1e-3, 2e-3])
    assert all(math.isnan(v) for v in values)
    assert [str(e) for e in errors] == ["high-power dense form requires gamma^2 > 1"] * 2


def test_dense_highpower_fails_where_its_scale_overflows():
    # the same 100 m link: dense_highpower's scale g2 / 2 h_hat^-1, 353 / 5.46e-308,
    # is inf, and its averages read inf, or nan where the integral underflows
    # to 0, with no error
    geometry = make_geometry(distance_z=100.0, divergence_theta=1e-3, aperture_radius_a=0.2)
    op = make_op(113.39884545324281, 1.0, 2, 0.0, geometry)
    p_watts = [dbm_to_watts(p) for p in (-30.0, -10.0, 10.0, 30.0)]
    values, errors = averages_at_powers(avg_ser_dense_highpower, op, p_watts)
    assert all(math.isnan(v) for v in values)
    for error in errors:
        assert isinstance(error, QuadratureError)
        assert str(error) == "the value overflows when scaled by g2 / 2 h_hat^-1"
    # the kinds without h^h_power have no scale to overflow
    for expression in (avg_ser_exact, avg_ser_approx, avg_ser_dense):
        values, errors = averages_at_powers(expression, op, p_watts)
        assert errors == [None] * 4 and all(0.0 < v < 1.0 for v in values)


def test_nested_oracle_keeps_its_own_splits(monkeypatch):
    # none of the engine's log-gain splits: one QUADPACK integral over the
    # turbulence normal, split at 0 and at -gamma^2 sigma alone
    op = make_op(*PINK, 4, -10.0)
    pieces = []
    integrate = quadrature.integrate

    def recording(f, lo, hi, split_points):
        pieces.append((lo, hi, tuple(p for p in split_points if lo < p < hi)))
        return integrate(f, lo, hi, split_points)

    monkeypatch.setattr(quadrature, "integrate", recording)
    avg_ser_exact(op, nested=True)
    fm = op.fading
    assert pieces == [(-40.0, 40.0, (0.0, -fm.gamma**2 * math.sqrt(fm.sigma2)))]


def test_nested_oracle_computes_every_erfc_itself(monkeypatch):
    def refuse(*args):
        raise AssertionError("library erfc called")

    # specfun, channel, errorrates and the package bind scipy's ufuncs at
    # import, so each of their names is made to refuse as well as the sources
    for module, name in ((special, "erfc"), (special, "erfcx"), (specfun._special, "erfc"),
                         (specfun._special, "erfcx"), (math, "erfc"), (specfun, "erfc"),
                         (specfun, "erfcx"), (channel, "erfc"), (channel, "erfcx"),
                         (errorrates, "erfc"), (fsolink, "erfc")):
        monkeypatch.setattr(module, name, refuse)
    for module in (channel, errorrates):
        monkeypatch.setattr(module, "EXACT_WEIGHT", (refuse, refuse))
    for point in [(*PINK, 4, 10.0), (0.095, 0.154, 1024, 18.9)]:
        assert avg_ser_exact(make_op(*point), nested=True) > 0.0


def test_nested_oracle_calls_neither_the_engine_nor_the_density(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("engine or composite density called")

    for module, name in ((channel, "density_average"), (errorrates, "density_average"),
                         (quadrature, "integrate_panels"), (channel, "pdf_composite"),
                         (channel, "composite_expectation")):
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


def test_ook_simple_is_defined_by_its_cutoff():
    # near h_hat the single-tail integrand behaves as C / y, which is not
    # integrable: moving the cut-off from y = ln(1 + 1e-12) down to
    # ln(1 + 1e-15) adds C ln(ln(1 + 1e-12) / ln(1 + 1e-15)), wherever the
    # value moves at all
    y12, y15 = math.log1p(1e-12), math.log1p(1e-15)
    checked = 0
    for point in GRID_POINTS:
        for p_dbm in (-10.0, 0.0, 10.0, 20.0):
            op = make_op(*point, 2, p_dbm)
            fm = op.fading
            (u,) = errorrates._u(op, [op.transmit_power_p], [1.0])

            def value(y_lo):
                return channel.single_value(channel.density_average(
                    op.fading, [u], errorrates._SIMPLE_TAIL,
                    lambda h, u: 0.5 * specfun.erfc_simple_tail(u * h), y_lo=y_lo))

            at_12, at_15 = value(y12), value(y15)
            assert at_12 == avg_ber_ook_approx_simple(op)
            if abs(at_15 - at_12) > 1e-9 * at_12:
                c = (fm.g2 / 2.0 * math.exp(fm.log_amp) * fm.sqrt2s / math.sqrt(math.pi)
                     * 0.5 * float(specfun.erfc_simple_tail(u * fm.h_hat)))
                assert at_15 - at_12 == pytest.approx(c * math.log(y12 / y15), rel=1e-6)
                checked += 1
    assert checked >= 16


def _ook_simple_with(upper, y_lo):
    """ook_simple's one-power average with the upper form upper from the
    cut-off y_lo."""
    def average(op):
        (u,) = errorrates._u(op, [op.transmit_power_p], [1.0])
        return channel.single_value(channel.density_average(
            op.fading, [u], (specfun.erfc_simple_tail, upper),
            lambda h, u: 0.5 * specfun.erfc_simple_tail(u * h), y_lo=y_lo))
    return average


def test_single_tail_pair_from_the_cutoff_is_ook_simple():
    # a cut-off y_lo > 0 drops the lower piece and adds the ladder of edges
    # that resolves the upper form's 1/y end: the single tail's lower form,
    # which raises for an argument <= 0, sees no node below h_hat
    weight = (specfun.erfc_simple_tail, specfun.erfcx_simple_tail)
    for p_dbm in (-10.0, 0.0, 10.0, 20.0):
        op = make_op(*PINK, 2, p_dbm)
        (u,) = errorrates._u(op, [op.transmit_power_p], [1.0])
        value = channel.single_value(channel.density_average(
            op.fading, [u], weight, lambda h, u: 0.5 * specfun.erfc_simple_tail(u * h),
            y_lo=math.log1p(1e-12)))
        assert value == avg_ber_ook_approx_simple(op)


def test_each_kind_on_one_model_equals_a_fresh_models():
    # averages of every shape of integral, with and without h_power and a
    # cut-off y_lo: on one model each average equals its value on a fresh
    # model, in either order, ook_simple at both cut-offs included
    averages = [avg_ser_exact, avg_ser_approx, avg_ser_dense, avg_ser_dense_highpower,
                avg_ber_ook_approx_simple,
                _ook_simple_with(specfun.erfcx_simple_tail, math.log1p(1e-12)),
                _ook_simple_with(specfun.erfcx_simple_tail, math.log1p(1e-15))]
    fresh = [average(make_op(0.35, 0.1, 2, 0.0)) for average in averages]
    assert fresh[-1] != fresh[-2] == fresh[-3]
    for order in (averages, averages[::-1]):
        op = make_op(0.35, 0.1, 2, 0.0)
        shared = {average: average(op) for average in order}
        assert [shared[average] for average in averages] == fresh


def test_interleaved_weights_read_each_upper_forms_envelope(monkeypatch):
    # each weight bounds its tails by its own upper form's envelope:
    # interleaved on one model, every average integrates a fresh model's
    # panels and has its bits. The exact and the piecewise upper form are
    # both 1 at h_hat; at ook_simple's cut-off the one-term tail's envelope
    # is about 1e12 times erfcx's, and here it moves the edges of the upper
    # piece's foot
    panels, integrate_panels = [], quadrature.integrate_panels

    def recording(integrand, lo, hi, owner, n):
        panels.append((lo.tolist(), hi.tolist()))
        return integrate_panels(integrand, lo, hi, owner, n)

    monkeypatch.setattr(quadrature, "integrate_panels", recording)
    one_term, exact = (_ook_simple_with(upper, math.log1p(1e-12))
                       for upper in (specfun.erfcx_simple_tail, special.erfcx))
    sequence = [avg_ser_exact, avg_ser_approx, avg_ser_exact, avg_ser_dense,
                one_term, exact, one_term]
    op = make_op(0.25, 0.5, 4)
    for p_dbm in (-10.0, 0.0, 10.0, 20.0):
        for average in sequence:
            runs = []
            for on in (op.with_power(dbm_to_watts(p_dbm)), make_op(0.25, 0.5, 4, p_dbm)):
                panels.clear()
                runs.append((average(on).hex(), panels[:]))
            assert runs[0] == runs[1], (average, p_dbm)


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


@pytest.mark.parametrize("g2", [1.005, 1.01])
def test_highpower_lower_piece_runs_to_its_own_decay(g2):
    # with the 1/h of its conditional the lower piece decays as e^((g2 - 1) y),
    # far slower than e^(g2 y) at g2 just above 1: a lower end at -700 / g2
    # left out 3.1 % of the value at g2 = 1.005 and 0.1 % at 1.01. The
    # reference: QUADPACK over each half of the log-gain line, of the
    # piecewise density times exp(-s^2) / (s sqrt(pi)), s = u h
    op = make_op(math.sqrt(make_geometry().wz_hat_sq / g2) / 2.0, 0.1, 4, 20.0)
    fm = op.fading
    (u,) = errorrates._u(op, [op.transmit_power_p], [4])

    def lower(y):
        s = u * fm.h_hat * math.exp(y)
        return (math.exp(fm.log_amp + (fm.g2 - 1.0) * y) * math.exp(-s * s) / (u * fm.h_hat)
                * float(specfun.erfc_piecewise_negative(y / fm.sqrt2s)))

    def upper(y):
        s = u * fm.h_hat * math.exp(y)
        return (math.exp(-(y - fm.y_star) ** 2 / (2.0 * fm.sigma2)) * math.exp(-s * s) / s
                * float(specfun.erfcx_piecewise_approx(y / fm.sqrt2s)))

    halves = [integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for f, lo, hi in ((lower, -math.inf, 0.0), (upper, 0.0, math.inf))]
    reference = fm.g2 / 2.0 * sum(halves) / math.sqrt(math.pi)
    assert avg_ser_dense_highpower(op) == pytest.approx(reference, rel=1e-10)


def test_highpower_dominates_dense():
    # dropping the 4/pi guard enlarges the integrand pointwise
    for p in (25.0, 30.0, 35.0):
        op = make_op(0.25, 0.5, 64, p)
        assert avg_ser_dense_highpower(op) >= avg_ser_dense(op)


# ---------------------------------------------------------------------------
# M-PAM BER: the exact Gray-mapped average and the SER over log2 M

def _ser_over_bits(op):
    return flush_subnormal(avg_ser_exact(op) / op.bits_per_symbol)


def test_ber_modes_agree_for_ook():
    op = make_op(*PINK, 2, 2.0)
    assert avg_ber_exact(op) == pytest.approx(avg_ber_ook_exact(op), rel=1e-15, abs=0.0)
    assert _ser_over_bits(op) == pytest.approx(avg_ber_ook_exact(op), rel=1e-10)


def test_ber_exact_mode_orders():
    # every order OperatingPoint accepts has an exact BER, below its SER
    for k in range(1, 11):
        op = make_op(*PINK, 2**k, 20.0)
        assert 0.0 < avg_ber_exact(op) <= avg_ser_exact(op), 2**k


def test_ber_exact_vs_ser_over_m_convergence():
    # the two BER routes agree within 2% once the power is high enough
    for m, p in ((8, 15.0), (16, 18.0)):
        op = make_op(*PINK, m, p)
        exact = avg_ber_exact(op)
        ratio = _ser_over_bits(op) / exact
        assert ratio == pytest.approx(1.0, abs=0.02), (m, p)


def test_ber_ordering_in_m():
    p = 10.0
    assert avg_ber_exact(make_op(*PINK, 16, p)) > avg_ber_exact(make_op(*PINK, 8, p))


# ---------------------------------------------------------------------------
# curves and crossings

def _curve(p_dbm, values):
    """A curve of the given values, with the exact SER at a headline point as
    its expression and operating point."""
    return ErrorRateCurve(p_dbm, values, avg_ser_exact, make_op(*PINK))


def test_curve_validation():
    with pytest.raises(ValueError):
        _curve([0.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        _curve([0.0, 0.0], [0.1, 0.2])
    # a power that is not finite would fail a crossing later, as a root not found
    for p_dbm in ([0.0, math.nan], [math.nan, 1.0], [math.nan], [0.0, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="p_dbm must be finite and strictly increasing"):
            _curve(p_dbm, [0.1] * len(p_dbm))
    # the expression and the operating point to refine crossings on are required
    with pytest.raises(TypeError):
        ErrorRateCurve([0.0, 1.0], [0.1, 0.2])


def _dbm_curve(fn, p_dbm):
    """The curve of fn (a function of the power in dBm) on p_dbm, whose
    expression evaluates fn at an operating point's power."""
    return ErrorRateCurve(p_dbm, [fn(p) for p in p_dbm],
                          as_average(lambda op: fn(10.0 * math.log10(op.transmit_power_p) + 30.0)),
                          make_op(*PINK))


def test_delta_gap_identical_curves_is_zero():
    curve = _dbm_curve(lambda p: 10.0 ** (-2.0 - p), [0.0, 1.0, 2.0])
    assert delta_gap(curve, curve, 5e-4) == pytest.approx(0.0, abs=1e-12)


def test_crossing_power_linear_interpolation():
    curve = _dbm_curve(lambda p: 10.0 ** (-2.0 - p), [0.0, 2.0])
    # log-linear midpoint
    assert crossing_power(curve, 1e-3) == pytest.approx(1.0, abs=1e-9)


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

    curve.expression = as_average(recording)
    pstar = crossing_power(curve, 1e-3)
    assert seen and not set(seen) & {dbm_to_watts(p) for p in grid}
    curve.expression = avg_ser_exact
    assert pstar == _scipy_crossing(curve, 1e-3)[0]


def test_delta_crossings_solved_in_lockstep(monkeypatch):
    # at a headline channel every crossing of delta_gaps_on_grid is scipy's
    # brentq on its expression's log10 curve, bit for bit, and each round of
    # the refinement, off the grid the search probes, evaluates every
    # unfinished lane, one batch per expression
    op = make_op(0.25, 0.5, 4, 0.0)
    grid = [-10.0 + i for i in range(51)]
    on_grid = {dbm_to_watts(p) for p in grid}
    expressions = [AVERAGES[name] for name in ("exact", "approx", "dense", "dense_highpower")]
    curves = [sweep_curve(op, average, grid) for average in expressions]
    calls = []
    for average in expressions:
        monkeypatch.setattr(average, "batch", lambda op, p, m, average=average,
                            batch=average.batch: calls.append((average, p)) or batch(op, p, m))
    gaps, errors = errorrates.delta_gaps_on_grid(op, expressions[0], expressions[1:], grid, 1e-3)
    (p_exact, _), *solves = solved = [_scipy_crossing(c, 1e-3) for c in curves]
    assert errors == [None] * 3
    assert gaps == [p - p_exact for p, _ in solves]
    assert [a for a, p in calls if not on_grid.issuperset(p)] == [
        c.expression for k in range(max(n for _, n in solved))
        for c, (_, n) in zip(curves, solved) if n > k]
    # a failing exact crossing fails every gap, and is solved once, not per gap
    failed = []

    def failing(op):
        if op.transmit_power_p in on_grid:
            return avg_ser_exact(op)
        failed.append(op)
        raise QuadratureError("exact fails")

    gaps, errors = errorrates.delta_gaps_on_grid(op, as_average(failing), expressions[1:], grid,
                                                 1e-3)
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
    rising = _curve([0.0, 1.0], [0.0, 1e-2])
    with pytest.raises(QuadratureError, match=re.escape("average is 0 at an end of [0.0, 1.0]")):
        crossing_power(rising, 1e-6)


def test_crossing_power_no_crossing_raises():
    curve = _curve([0.0, 1.0], [1e-2, 1e-3])
    with pytest.raises(NoCrossingError):
        crossing_power(curve, 1e-6)


def test_empty_grid_is_no_crossing():
    # an empty grid crosses no threshold, for a curve and for the grid search
    with pytest.raises(NoCrossingError, match="threshold 0.001 not crossed on an empty grid"):
        crossing_power(_curve([], []), 1e-3)
    with pytest.raises(NoCrossingError, match="threshold 0.001 not crossed on an empty grid"):
        errorrates.delta_gaps_on_grid(make_op(*PINK), avg_ser_exact, [avg_ser_approx], [], 1e-3)


def test_delta_gaps_without_approximations_average_nothing(monkeypatch):
    # no approximation gives no gap: the grid, even an empty one, is not read
    calls = _engine_calls(monkeypatch)
    for grid in ([0.0, 1.0], []):
        assert errorrates.delta_gaps_on_grid(make_op(*PINK), avg_ser_exact, [], grid,
                                             1e-3) == ([], [])
    assert calls == []


def test_power_increase_validation():
    op = make_op(*PINK, 2, 0.0)
    with pytest.raises(ValueError):
        power_increase_for_next_bit(op, 0, 1e-3)
    with pytest.raises(ValueError):
        power_increase_for_next_bit(op, 2, 0.7)


def test_power_steps_above_the_largest_order_fail_alone():
    # m = 10 would step to 2048-PAM, beyond the orders OperatingPoint accepts
    op = make_op(*PINK, 2, 0.0)
    steps, errors = power_steps(op, [9, 10], 1e-3)
    assert errors[0] is None and str(errors[1]) == "m_bits must be <= 9"
    assert steps[0] == power_steps(op, [9], 1e-3)[0][0] and math.isnan(steps[1])


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

    steps, errors = power_steps(op, [1, 2, 3], 1e-3, as_average(without_ook))
    assert str(errors[0]) == "no 2-PAM here" and math.isnan(steps[0])
    assert errors[1:] == [None, None]
    assert steps[1:] == power_steps(op, [2, 3], 1e-3)[0]


def _engine_calls(monkeypatch):
    """The number of entries of each density_average call the averages make
    from now on."""
    calls = []
    engine = errorrates.density_average

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(errorrates, "density_average", counted)
    return calls


def test_power_steps_evaluate_all_orders_per_engine_call(monkeypatch):
    calls = _engine_calls(monkeypatch)
    steps, errors = power_steps(make_op(*PINK, 2, 0.0), range(1, 10), 1e-3)
    assert errors == [None] * 9
    # 6 bisection rounds on the 61-point grid and the lockstep Brent rounds;
    # a scan and a scalar solve per order would take about 70 calls
    assert len(calls) <= 16
    assert calls[0] == 10  # one probe of each order M = 2 ... 1024


def test_power_solve_lanes_refine_while_others_search(monkeypatch):
    # each order refines its cell as soon as its own bisection ends, so a round
    # can probe one order's grid and take another's Brent step in one batch
    on_grid = {dbm_to_watts(p) for p in errorrates._SCAN_DBM}
    batches = []
    monkeypatch.setattr(avg_ser_exact, "batch", lambda op, p, m, batch=avg_ser_exact.batch:
                        batches.append(set(p)) or batch(op, p, m))
    steps, errors = power_steps(make_op(*PINK, 2, 0.0), range(1, 10), 1e-3)
    assert errors == [None] * 9
    assert any(p & on_grid and p - on_grid for p in batches)


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

# the averages of the command line, the exact BER and the OOK aliases of the SER forms
BATCHED = {**AVERAGES, "ber_exact": avg_ber_exact, "ook_exact": avg_ber_ook_exact,
           "ook_piecewise": avg_ber_ook_approx_piecewise}


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batch_equals_one_power_calls(name):
    op = make_op(*PINK, 2, 0.0)
    watts = [dbm_to_watts(p) for p in GRID_121]
    values, errors = averages_at_powers(BATCHED[name], op, watts)
    assert errors == [None] * len(watts)
    assert values == [BATCHED[name](op.with_power(w)) for w in watts]
    # a point's value does not depend on which other powers share its batch
    part, _ = averages_at_powers(BATCHED[name], op, watts[::-7])
    assert part == values[::-7]


def test_exact_ook_ber_sweep_is_one_engine_call(monkeypatch):
    op = make_op(*PINK, 2, 0.0)
    watts = [dbm_to_watts(p) for p in GRID_121]
    alone = [avg_ber_ook_exact(op.with_power(w)) for w in watts]
    calls = _engine_calls(monkeypatch)
    values, errors = averages_at_powers(avg_ber_ook_exact, op, watts)
    assert calls == [121] and errors == [None] * 121
    assert values == alone
    with pytest.raises(ValueError, match="OOK expressions require M = 2"):
        sweep_curve(op.with_modulation(4), avg_ber_ook_exact, GRID_121)


def test_exact_ber_sweep_is_one_engine_call(monkeypatch):
    # the Gray coefficients depend on M, and one order is one engine call
    op = make_op(*PINK, 16, 0.0)
    watts = [dbm_to_watts(p) for p in GRID_121]
    alone = [avg_ber_exact(op.with_power(w)) for w in watts]
    calls = _engine_calls(monkeypatch)
    values, errors = averages_at_powers(avg_ber_exact, op, watts)
    assert calls == [121] and errors == [None] * 121
    assert values == alone


@pytest.mark.parametrize("name", ["exact", "approx", "dense", "dense_highpower", "ber_exact",
                                  "ook_exact", "ook_piecewise"])
def test_mixed_order_batch_equals_one_order_batches(name):
    # an entry's value does not depend on the orders of the others; the OOK
    # aliases take M = 2 only, and a batch with another order fails whole
    op = make_op(*PINK, 2, 0.0)
    batch = BATCHED[name].batch
    orders = [2] if name.startswith("ook") else [2**k for k in range(1, 11)]
    watts = [dbm_to_watts(p) for p in (-5.0, 10.0, 30.0, 60.0)]
    values, errors = batch(op, [w for w in watts for _ in orders], orders * len(watts))
    assert errors == [None] * len(values)
    for j, m in enumerate(orders):
        alone, errors = batch(op, watts, [m] * len(watts))
        assert errors == [None] * len(watts)
        assert values[j::len(orders)] == alone
    if orders == [2]:
        with pytest.raises(ValueError, match="OOK expressions require M = 2"):
            batch(op, watts[:2], [2, 4])


@pytest.mark.parametrize("expression", [avg_ser_exact], ids=["batch"])
def test_invalid_power_flags_only_that_power(expression):
    # a power that is not positive and finite fails as OperatingPoint rejects
    # it, and only that power of the batch
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

    # an average that fails above 10 dBm, entry by entry, bisects to the same cell
    def failing_above(op):
        if op.transmit_power_p > dbm_to_watts(10.0):
            raise ValueError("no average above 10 dBm")
        return avg_ser_exact(op)

    assert power_increase_for_next_bit(op, 1, 1e-3, as_average(failing_above)) == reference
    # and one-power calls take the probes and Brent iterates of the batched solve
    steps, errors = power_steps(op, range(1, 10), 1e-3, as_average(avg_ser_exact))
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
    # the 842 rounds and 14,307 panels that the mode-anchored plan takes with
    # ends from the tail bounds for the SER averages, the normalisation
    # keeping its fixed ends; with the fixed ends -700 / g2 and y_up for all
    # it took 845 and 17,551, and the plan of fixed offsets from h_hat 1,376
    # and 20,239
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
    assert len(panels) <= 1.05 * 842, len(panels)
    assert sum(panels) <= 1.05 * 14307, sum(panels)


def test_exact_ser_drops_a_lower_piece_that_carries_nothing(monkeypatch):
    # at sigma_s = 0.2 m, sigma_R^2 = 0.9 the density at h_hat is e^-270 of
    # the bump's peak: each of the 14 panels the fixed end -700 / g2 gave the
    # lower piece at 30 dBm carried below 1e-106 of the SER
    firsts = []
    gk21 = quadrature._gk21

    def recording(f, lo, hi, owner):
        if not firsts:
            firsts.append(lo)
        return gk21(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_gk21", recording)
    op = make_op(0.2, 0.9, 2, 30.0)
    assert avg_ser_exact(op) == pytest.approx(avg_ser_exact(op, nested=True), rel=1e-10)
    assert np.all(firsts[0] >= 0.0)


@pytest.mark.parametrize("point", HEADLINE_POINTS)
def test_ook_simple_sweep_converges_in_one_round(monkeypatch, point):
    # the half-decade ladder resolves the 1 / y end of the single-tail form in
    # one round, and where that end carries nothing the tail bounds clip its
    # steps away; a ladder every factor of 100 up to 1e-2 took three rounds
    # wherever the density at h_hat is within about e^-60 of its peak
    rounds = []
    gk21 = quadrature._gk21

    def counting(*args):
        rounds.append(None)
        return gk21(*args)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    values, errors = averages_at_powers(avg_ber_ook_approx_simple, make_op(*point, 2, 0.0),
                                        [dbm_to_watts(p) for p in GRID_121])
    assert errors == [None] * 121 and len(rounds) == 1


# the OFF_GRID points whose exact SER lies in [1e-3, 0.3], and OFF_GRID[1]
# (gamma^2 = 0.16) raised by 20 dB into that range
@pytest.mark.parametrize("point", [OFF_GRID[2], OFF_GRID[7], OFF_GRID[1][:3] + (18.0,)])
def test_monte_carlo_agreement_off_grid(point):
    op = make_op(*point)
    exact = avg_ser_exact(op)
    n = 1_000_000
    est = simulate(op, McConfig(n_symbols=n, seed=11))
    assert abs(est.ser_hat - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / n)
