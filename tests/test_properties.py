"""Property tests over the accepted input domain: Rytov variance log-uniform
in [1e-4, 1], jitter sigma_s log-uniform in [0.05, 5] m, M from 2 to 1024,
transmit power in [-30, 80] dBm and target SER log-uniform in [1e-9, 0.3];
the normalisation, the power solve, the engine against the nested oracle,
the approximations against the exact SER, and symbol-level Monte Carlo
against the exact SER, also over sigma_s in [0.01, 100] m and Rytov variance
down to 1e-8; and every command line over every RunConfig field."""

import contextlib
import csv
import io
import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsolink import cli, quadrature
from fsolink.channel import composite_expectation, dbm_to_watts, flush_subnormal
from fsolink.errorrates import (NoCrossingError, _powers_at_target, averages_at_powers, avg_ber_exact,
                                avg_ser_approx, avg_ser_dense, avg_ser_exact)
from fsolink.montecarlo import McConfig, simulate
from support import make_fading, make_op

# a fixed set of examples, so that the suite's run is repeatable
DOMAIN = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def log_uniform(lo: float, hi: float):
    """10^x for x on a grid of 2^20 + 1 points from lo to hi. Distinct draws give
    distinct values: mapping floats in [lo, hi] through 10^x takes +-0 and
    tiny exponents, which derandomized draws favour, all to 1.0."""
    return st.integers(0, 2**20).map(lambda k: 10.0 ** (lo + (hi - lo) * k / 2**20))


rytov = log_uniform(-4.0, 0.0)
sigma_s = log_uniform(math.log10(0.05), math.log10(5.0))
order = st.integers(1, 10).map(lambda k: 2**k)
p_dbm = st.floats(-30.0, 80.0)
target_ser = log_uniform(-9.0, math.log10(0.3))
wide_rytov = log_uniform(-8.0, 0.0)
wide_sigma_s = log_uniform(-2.0, 2.0)


@DOMAIN
@given(sigma_s, rytov)
def test_density_normalised(s, r):
    assert abs(composite_expectation(make_fading(s, r)) - 1.0) <= 1e-9


def test_single_point_rounds_over_domain(monkeypatch):
    # the mode-anchored panel plan: the normalisation converges in the first
    # Gauss-Kronrod round at every point, and the exact SER takes at most
    # 1.25 rounds on average
    calls, exact_rounds = [], []
    gk21 = quadrature._gk21

    def counting(*args):
        calls.append(None)
        return gk21(*args)

    monkeypatch.setattr(quadrature, "_gk21", counting)

    @DOMAIN
    @given(sigma_s, rytov, order, p_dbm)
    def rounds(s, r, m, p):
        op = make_op(s, r, m, p)
        calls.clear()
        composite_expectation(op.fading)
        assert len(calls) == 1
        calls.clear()
        avg_ser_exact(op)
        exact_rounds.append(len(calls))

    rounds()
    assert statistics.mean(exact_rounds) <= 1.25, exact_rounds


@DOMAIN
@given(sigma_s, rytov, order, p_dbm, st.floats(0.5, 20.0))
def test_exact_ser_bounded_and_monotone(s, r, m, p_lo, step):
    grid = np.arange(p_lo, 80.0, step)
    values, errors = averages_at_powers(avg_ser_exact, make_op(s, r, m),
                                        [dbm_to_watts(p) for p in grid])
    assert errors == [None] * len(grid)
    assert all(0.0 <= v <= (m - 1) / m for v in values)
    # non-increasing in P, up to the engine's relative tolerance of 1e-11
    assert all(b <= a * (1.0 + 1e-10) for a, b in zip(values, values[1:]))


@DOMAIN
@given(sigma_s, rytov, order, p_dbm)
def test_exact_ber_between_ser_over_bits_and_ser(s, r, m, p):
    # a symbol error costs at least one bit and at most log2 M; a BER below
    # the smallest normal double is 0, as every average is
    op = make_op(s, r, m, p)
    ber, ser = avg_ber_exact(op), avg_ser_exact(op)
    assert flush_subnormal(ser / op.bits_per_symbol) * (1.0 - 1e-12) <= ber <= ser * (1.0 + 1e-12)


@DOMAIN
@given(sigma_s, rytov, order, p_dbm)
def test_exact_matches_nested_oracle(s, r, m, p):
    op = make_op(s, r, m, p)
    # the pointing-integrated oracle and the engine converge to rel 1e-11;
    # near the smallest normal double both lose relative precision, and 1e-300
    # is QUADPACK's absolute tolerance
    assert avg_ser_exact(op, nested=True) == pytest.approx(avg_ser_exact(op), rel=1e-10,
                                                           abs=1e-300)


def assume_accepted(s, r):
    """Assume away a channel whose breakpoint h_hat FadingModel refuses, as
    not a normal double."""
    try:
        make_fading(s, r)
    except ValueError as error:
        assume("h_hat" not in str(error))
        raise


@settings(DOMAIN, max_examples=300)
@given(wide_sigma_s, wide_rytov)
def test_density_normalised_over_wide_domain(s, r):
    assume_accepted(s, r)
    test_density_normalised.hypothesis.inner_test(s, r)


@settings(DOMAIN, max_examples=300)
@given(wide_sigma_s, wide_rytov, order, p_dbm)
def test_exact_matches_nested_oracle_over_wide_domain(s, r, m, p):
    # gamma^2 from about 1e-4 to 1e4: at large gamma^2 the oracle's P(s, a^2)
    # underflows. A channel whose breakpoint h_hat is not a normal double is
    # refused, and not drawn
    try:
        op = make_op(s, r, m, p)
    except ValueError as error:
        assume("h_hat" not in str(error))
        raise
    assert avg_ser_exact(op, nested=True) == pytest.approx(avg_ser_exact(op), rel=1e-10,
                                                           abs=1e-300)


@DOMAIN
@given(sigma_s, rytov, st.integers(1, 9), target_ser)
def test_power_solve_brackets_target(s, r, m, target):
    # the two orders of one power step, solved in lockstep
    op = make_op(s, r, 2)
    orders = [2**m, 2 ** (m + 1)]
    powers, errors = _powers_at_target(op, orders, avg_ser_exact, target)
    for order, p, error in zip(orders, powers, errors):
        lane = op.with_modulation(order)
        if error is None:
            assert -40.0 <= p <= 80.0
            (above, below), no_errors = averages_at_powers(
                avg_ser_exact, lane, [dbm_to_watts(p - 1e-4), dbm_to_watts(p + 1e-4)])
            assert no_errors == [None, None]
            assert above >= target >= below
        else:
            assert isinstance(error, NoCrossingError)
            assert avg_ser_exact(lane.with_power(dbm_to_watts(80.0))) > target


@DOMAIN
@given(wide_sigma_s, wide_rytov, st.integers(1, 9), target_ser)
def test_power_solve_brackets_target_over_wide_domain(s, r, m, target):
    assume_accepted(s, r)
    test_power_solve_brackets_target.hypothesis.inner_test(s, r, m, target)


@DOMAIN
@given(wide_sigma_s, wide_rytov, order, p_dbm)
def test_approximations_bound_exact_over_wide_domain(s, r, m, p):
    # measured, not derived: over about 3,000 draws of this domain approx / exact
    # lay in [1, 1.1002] and dense / exact was at least 1 + 9.8e-4; below an
    # exact SER of 1e-250 the ratios lose their digits
    assume_accepted(s, r)
    op = make_op(s, r, m, p)
    exact = avg_ser_exact(op)
    assume(exact >= 1e-250)
    assert exact <= avg_ser_approx(op) <= 1.11 * exact
    assert exact <= avg_ser_dense(op)


@settings(DOMAIN, max_examples=60)
@given(wide_sigma_s, wide_rytov, order, p_dbm, st.integers(0, 2**64 - 1))
def test_monte_carlo_matches_exact_ser_over_wide_domain(s, r, m, p, seed):
    # gamma^2 from about 1e-4 up, where some sampled gains underflow to 0: each
    # kept draw's symbol errors over 4e5 symbols, as a z-score against the exact
    # SER. By the union bound, P(max |z| > 4.5) over 60 draws is at most
    # 60 * 6.8e-6 = 4e-4
    assume_accepted(s, r)
    op = make_op(s, r, m, p)
    exact = avg_ser_exact(op)
    assume(1e-3 <= exact <= 0.999)
    n = 400_000
    est = simulate(op, McConfig(n_symbols=n, seed=seed))
    z = (est.ser_hat - exact) / math.sqrt(exact * (1.0 - exact) / n)
    assert abs(z) <= 4.5, (z, est.symbol_errors, exact)
    # and its bit errors against the exact BER. A symbol's bit errors X lie in
    # [0, b], so Var(X) <= b E[X] = b^2 BER and Var(ber_hat) <= BER / n: this
    # z-score is no larger in size than one over the true standard error
    ber = avg_ber_exact(op)
    z = (est.ber_hat - ber) / math.sqrt(ber / n)
    assert abs(z) <= 4.5, (z, est.bit_errors, ber)


# RunConfig's geometry and noise flags: a draw sets up to three of them
# log-uniform over 1e-300 ... 1e200, and the rest keep their defaults
GEOMETRY_FLAGS = ("wavelength_nm", "link_distance_km", "divergence_mrad", "aperture_radius_m",
                  "alpha_w_per_a", "beta_a_per_w", "noise_sigma_a", "attenuation_per_km")


@st.composite
def command_lines(draw):
    """A command and a value for every RunConfig field, each flag as --key=value,
    as a negative number in e-notation needs. The expressions are those M
    accepts: ook_simple at M > 2 is refused before any average runs."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = {name: draw(log_uniform(-300.0, 200.0))
             for name in draw(st.lists(st.sampled_from(GEOMETRY_FLAGS), max_size=3, unique=True))}
    flags[draw(st.sampled_from(("jitter_sigma_m", "jitter_angle_mrad")))] = draw(
        log_uniform(-3.0, 3.0))
    m = draw(order)
    names = sorted(cli.EXPRESSIONS) if m == 2 else sorted(set(cli.EXPRESSIONS) - {"ook_simple"})
    p_min = draw(st.floats(-40.0, 90.0))
    flags.update(rytov_variance=draw(log_uniform(-8.0, 0.1)), p_dbm_min=p_min,
                 p_dbm_max=p_min + draw(st.floats(0.0, 30.0)),
                 p_dbm_step=draw(st.floats(0.5, 30.0)),
                 modulation_m=m, n_symbols=draw(st.integers(1, 3000)),
                 seed=draw(st.integers(0, 2**64 - 1)),
                 expressions=",".join(draw(st.lists(st.sampled_from(names), min_size=1,
                                                    unique=True))),
                 ber_threshold=draw(log_uniform(-12.0, 0.0)),
                 ser_threshold=draw(log_uniform(-12.0, 0.0)),
                 h_min=draw(log_uniform(-300.0, 0.0)), h_max=draw(log_uniform(-300.0, 0.0)),
                 h_points=draw(st.integers(1, 50)))
    argv = [command] + [f"--{key}={value}" for key, value in flags.items()]
    if command == "power-step":
        m_min = draw(st.integers(1, 9))
        argv += [f"--target-ser={draw(target_ser)}", f"--m-min={m_min}",
                 f"--m-max={draw(st.integers(m_min, 9))}"]
    return argv


@settings(DOMAIN, max_examples=100)
@given(command_lines())
# z z overflows in the erfc forms at z = 1e200: exit 0, with no numpy warning
@example(["sweep", "--alpha_w_per_a=6.339655802393259e+199",
          "--rytov_variance=0.0005693873615969408", "--jitter_sigma_m=1.2169064566752255",
          "--modulation_m=2", "--p_dbm_min=-33.37792067202231",
          "--p_dbm_max=-26.784462942141587", "--p_dbm_step=5",
          "--expressions=exact,ook_simple,approx"])
# the one-term tail overflows where the signal is nil: exit 3, with no numpy warning
@example(["sweep", "--alpha_w_per_a=1e-300", "--modulation_m=2", "--p_dbm_min=-35",
          "--p_dbm_max=-30", "--p_dbm_step=5", "--expressions=exact,ook_simple,approx"])
def test_command_line_refuses_fails_loudly_or_prints_clean_numbers(argv):
    # run under the suite's error::RuntimeWarning filter, so a numpy warning escapes
    # as an exception
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        for row in rows:
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:  # a text cell, such as delta's pair
                    continue
                assert math.isfinite(value), (name, cell)
                assert name != "exact" or 0.0 <= value <= 1.0, cell
