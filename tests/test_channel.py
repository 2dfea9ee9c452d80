import math
import sys
import tracemalloc

import numpy as np
import pytest

from fsolink import channel, errorrates, quadrature
from fsolink.channel import (BLOCK, FadingModel, OperatingPoint,
                             composite_expectation, dbm_to_watts,
                             mean_symbol_power_sq, moment_composite,
                             pdf_composite, pdf_pointing, pdf_turbulence,
                             sample_composite, snr_electrical, snr_optical)
from fsolink.errorrates import avg_ser_approx, avg_ser_dense, avg_ser_exact
from support import GRID_POINTS, HEADLINE_POINTS, make_fading, make_geometry, make_op

# published mean channel gains for the nine (sigma_s, rytov) grid points
EXPECTED_MEAN_GAIN = {
    (0.35, 0.9): 4.16e-4, (0.35, 0.5): 5.09e-4, (0.35, 0.1): 6.21e-4,
    (0.25, 0.9): 4.18e-4, (0.25, 0.5): 5.11e-4, (0.25, 0.1): 6.24e-4,
    (0.2, 0.9): 4.19e-4, (0.2, 0.5): 5.11e-4, (0.2, 0.1): 6.25e-4,
}


# ---------------------------------------------------------------------------
# deterministic link budget

def test_beam_waist_from_divergence():
    geo = make_geometry()
    assert geo.beam_waist_wz == pytest.approx(1.98, abs=1e-12)


def test_beer_lambert_loss_default_budget():
    geo = make_geometry()
    assert geo.h_l == pytest.approx(0.516, abs=1e-3)
    assert geo.h_l == pytest.approx(math.exp(-0.2208 * 3.0), rel=1e-15)


def test_geometric_spread_default_budget():
    geo = make_geometry()
    assert geo.h_g == pytest.approx(1.3e-3, abs=0.05e-3)
    v0, h_g = geo.v0, geo.h_g
    assert v0 == pytest.approx(math.sqrt(math.pi) * 0.05 / (math.sqrt(2.0) * 1.98),
                               rel=1e-14)
    assert h_g == pytest.approx(math.erf(v0) ** 2, rel=1e-14)


def test_equivalent_beam_width():
    geo = make_geometry()
    wz, v0 = geo.beam_waist_wz, geo.v0
    expect = wz * wz * math.sqrt(math.pi) * math.erf(v0) / (
        2.0 * v0 * math.exp(-v0 * v0))
    assert geo.wz_hat_sq == pytest.approx(expect, rel=1e-14)


def test_eta_is_alpha_beta_product():
    geo = make_geometry()
    assert geo.eta == pytest.approx(0.5)


def test_dbm_round_trip():
    for p in (-30.0, 0.0, 17.5):
        assert 10.0 * math.log10(dbm_to_watts(p)) + 30.0 == pytest.approx(p, abs=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# fading-model derived constants

def test_pointing_params_headline_values():
    fm = make_fading(0.35, 0.1)
    gamma, kappa, mu = fm.gamma, fm.kappa, fm.mu
    assert gamma == pytest.approx(2.829516091582288, rel=1e-12)
    assert kappa == pytest.approx(math.sqrt((gamma**2 + 2.0) / gamma**2), rel=1e-14)
    assert mu == pytest.approx(0.1 * (gamma**2 + 1.0), rel=1e-14)


def test_fading_model_rejects_strong_turbulence():
    geo = make_geometry()
    with pytest.raises(ValueError):
        FadingModel(geo, 1.5, 0.35)
    with pytest.raises(ValueError):
        FadingModel(geo, 0.5, -0.1)


def test_fading_model_rejects_an_underflowing_breakpoint():
    # h_hat = h_g h_l kappa exp(-mu) leaves the normal doubles below
    # sigma_s = 0.0374 m at sigma_R^2 = 1, and below 0.0118 m at 0.1
    geo = make_geometry()
    for r, s in ((1.0, 0.0374), (0.1, 0.0118)):
        assert FadingModel(geo, r, 1.01 * s).h_hat >= sys.float_info.min
        with pytest.raises(ValueError, match=r"not a positive normal double \(mu = "):
            FadingModel(geo, r, 0.99 * s)


def test_breakpoint_gain():
    fm = make_fading(0.35, 0.1)
    assert fm.h_hat == pytest.approx(fm.hg_hl * fm.kappa * math.exp(-fm.mu), rel=1e-14)
    assert fm.h_hat == pytest.approx(0.0002985121050945621, rel=1e-12)


class _NoMath:
    """Stands in for channel's math module: any use of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"derived constant recomputed (math.{name})")


def test_derived_constants_computed_once(monkeypatch):
    fm = make_fading(0.35, 0.1)
    geo = fm.geometry
    names = ("gamma", "g2", "kappa", "mu", "hg_hl", "h_hat", "log_amp", "sqrt2s", "y_star",
             "y_top")
    geo_names = ("h_l", "v0", "h_g", "wz_hat_sq")
    first = [getattr(fm, n) for n in names] + [getattr(geo, n) for n in geo_names]
    assert fm.g2 == fm.gamma * fm.gamma
    # built before the patch, as a model checks its constants when it is built
    fresh = make_fading(0.35, 0.1)
    # every constant computes through math, so none is computed again
    monkeypatch.setattr(channel, "math", _NoMath())
    assert [getattr(fm, n) for n in names] + [getattr(geo, n) for n in geo_names] == first
    assert fm.g2 == first[0] * first[0]
    # the cached values are not fields: equality and hashing ignore them
    assert fm == fresh and hash(fm) == hash(fresh)


def test_noise_scale_reads_the_checked_two_sigma_squared():
    # at sigma_n = 3.445051690173643e-07 sqrt(2 sigma_n**2) rounds one bit
    # above sqrt(2 sigma_n sigma_n); the conditional erfc argument reads the
    # one 2 sigma_n sigma_n that the constructor checks
    s = 3.445051690173643e-07
    assert math.sqrt(2.0 * s**2) != math.sqrt(2.0 * s * s)
    op = make_op(0.35, 0.1, 4, 0.0, make_geometry(noise_sigma_n=s))
    assert op.geometry.sqrt_2var == math.sqrt(2.0 * s * s)
    p = op.transmit_power_p
    assert errorrates._u(op, [p], [3]) == [op.geometry.eta * p / math.sqrt(2.0 * s * s) / 3]


def test_one_gamma_squared():
    # at sigma_s = 0.239 m gamma**2 rounds one bit above gamma * gamma; kappa,
    # mu and the log-gain constants all read the one g2 = gamma * gamma
    fm = make_fading(0.239, 0.1)
    g2 = fm.gamma * fm.gamma
    assert fm.gamma**2 != g2
    assert fm.g2 == g2
    assert fm.log_amp == -(g2 * g2) * fm.sigma2 / 2.0 and fm.y_star == g2 * fm.sigma2
    assert fm.kappa == math.sqrt((g2 + 2.0) / g2)
    assert fm.mu == fm.rytov_var_sigma_r2 * (g2 + 1.0)


def test_engine_built_once_per_model_and_kind(monkeypatch):
    fm = make_fading(0.35, 0.1)
    op = OperatingPoint(fm.geometry, fm, 4, 1e-3)
    plan, built, engine = fm.plan, [], channel._engine

    def counting(*args):
        built.append(args)
        return engine(*args)

    def averages():
        return [composite_expectation(fm), avg_ser_exact(op), avg_ser_approx(op),
                avg_ser_dense(op)]

    # the first average of each kind builds its engine: the normalisation and
    # the exact SER share the exact weight, h_power 0, y_lo 0 and no extra
    # edges, approx and dense the piecewise weight
    monkeypatch.setattr(channel, "_engine", counting)
    first = averages()
    keys = [(channel.EXACT_WEIGHT, 0.0, 0.0, ()), (errorrates._PIECEWISE, 0.0, 0.0, ())]
    assert built == [(fm, *key) for key in keys]
    assert list(fm.engines) == keys
    engines = dict(fm.engines)

    def rebuilt(*args):
        raise AssertionError("engine built again")

    # a later call reads the model's constants, its plan and its engines,
    # without math
    monkeypatch.setattr(channel, "_engine", rebuilt)
    monkeypatch.setattr(channel, "math", _NoMath())
    assert averages() == first
    assert fm.plan is plan and fm.engines == engines
    monkeypatch.undo()
    # the bound pass's scalar loops read the constants as floats
    assert all(type(getattr(fm, n)) is float for n in ("log_amp", "sqrt2s", "y_star", "y_top"))
    # the upper plan's fixed points are its ends, h_hat, y* + k sigma for
    # k = -10, -6, -3, 0, 3, 6, 10; equality and hashing ignore the cached
    # values
    sigma = math.sqrt(fm.sigma2)
    upper = plan[1, 0, :len(channel.Y_MASK)]
    fixed = upper[channel.Y_MASK == 0.0]
    assert fixed.tolist() == [-math.inf, math.inf, 0.0] + [
        fm.y_star + k * sigma for k in (-10, -6, -3, 0, 3, 6, 10)]
    assert upper[channel.Y_MASK == 1.0].tolist() == list(channel.Y_COND)
    fresh = make_fading(0.35, 0.1)
    assert fm == fresh and hash(fm) == hash(fresh)
    assert fresh.plan.tolist() == plan.tolist()


def test_cached_engine_memory_is_bounded():
    # every model caches an engine per kind of average, and a run may hold
    # a thousand models: an engine keeps its constants packed, not as one
    # closure cell per name (about 3 KB an engine)
    keys = [(channel.EXACT_WEIGHT, 0.0, 0.0, ()), (errorrates._PIECEWISE, 0.0, 0.0, ())]
    models = [make_fading(s, r) for s in (0.15, 0.2, 0.25, 0.3, 0.35, 0.5, 0.8, 1.2, 2.0, 3.0)
              for r in np.linspace(0.05, 1.0, 20).tolist()]
    for fm in models:  # the models' cached constants and plans, outside the trace
        for key in keys:
            channel._engine(fm, *key)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engines = [channel._engine(fm, *key) for fm in models for key in keys]
        per_engine = (tracemalloc.get_traced_memory()[0] - before) / len(engines)
    finally:
        tracemalloc.stop()
    assert per_engine <= 2000.0, per_engine


def test_lower_plan_merges_offsets_a_sliver_apart():
    # at g2 = 8.006 (sigma_s = 0.35 m) the ladder's 2 / g2 and 4 / g2 fall
    # within 1e-4 of one and two peak widths 1 / sqrt(2 g2), and w* - 1 of
    # w* - 4 widths; each such pair is one point, so no sliver panel remains
    fm = make_fading(0.35, 0.1)
    width = 1.0 / math.sqrt(2.0 * fm.g2)
    offsets = np.unique(-fm.plan[0, 0][channel.W_MASK == 1.0])
    assert np.diff(offsets).min() >= 0.05 * width
    assert offsets.size == np.count_nonzero(channel.W_MASK) - 3


def test_batch_entries_match_their_one_entry_calls(monkeypatch):
    # a conditional that oscillates in ln h makes the second round cut panels
    # on both sides of h_hat for several entries, and is nan for the entry
    # with u = 0.5; each entry gets the value and error estimate of its own
    # one-entry call, and the failing entry its QuadratureError (it is not
    # monotone, as the tail bounds take a conditional to be, but each entry's
    # bounds read only its own probes, so its ends are those of its call)
    fm = make_fading(0.35, 0.1)
    h_hat = fm.h_hat
    u = [10.0**k / h_hat for k in (-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0)] + [0.5]

    def cond(h, u):
        return np.where(u == 0.5, np.nan, 1.5 + np.sin(20.0 * np.log(h * u)))

    rounds, results = [], []
    gk21, integrate_panels = quadrature._gk21, quadrature.integrate_panels

    def recording_gk21(f, lo, hi, owner):
        rounds.append((lo, owner))
        return gk21(f, lo, hi, owner)

    def recording_integrate_panels(*args):
        results.append(integrate_panels(*args))
        return results[-1]

    monkeypatch.setattr(quadrature, "_gk21", recording_gk21)
    monkeypatch.setattr(quadrature, "integrate_panels", recording_integrate_panels)
    values, errors = channel.density_average(fm, u, channel.EXACT_WEIGHT, cond)
    (first, _), (second, owner) = rounds
    # the first round's panels below h_hat come first, the second round's
    # panels in ascending order
    below = first < 0.0
    assert below[:np.count_nonzero(below)].all()
    assert np.all(second[1:] >= second[:-1])
    sides = [np.unique(second[owner == i] >= 0.0).size for i in range(len(u))]
    assert sides.count(2) >= 3, sides
    _, batch_error, ok = results[0]
    assert ok.tolist() == [True] * 7 + [False]
    for i, x in enumerate(u):
        (value,), (error,) = channel.density_average(fm, [x], channel.EXACT_WEIGHT, cond)
        # exact equality, nan equal to nan
        np.testing.assert_array_equal([values[i], batch_error[i]], [value, results[-1][1][0]])
        if i < 7:
            assert errors[i] is None and error is None
        else:
            assert str(errors[i]) == str(error) == "integrand produced a non-finite value"
            np.testing.assert_array_equal([errors[i].value, errors[i].error_estimate],
                                          [error.value, error.error_estimate])


def test_tail_bounds_call_cond_once_per_engine_call(monkeypatch):
    # the ends come from one cond call on a few probe gains per engine call,
    # besides the integrand's one call per Gauss-Kronrod chunk
    fm = make_fading(0.35, 0.1)
    h_hat = fm.h_hat
    chunks, calls = [], []
    chunk = quadrature._gk21_chunk

    def counting_chunk(*args):
        chunks.append(None)
        return chunk(*args)

    def cond(h, u):
        calls.append(h.shape)
        return channel.erfc(u * h)

    monkeypatch.setattr(quadrature, "_gk21_chunk", counting_chunk)
    for u in ([1.0 / h_hat], [10.0**(k / 20.0) / h_hat for k in range(-60, 61)]):
        chunks.clear()
        calls.clear()
        values, errors = channel.density_average(fm, u, channel.EXACT_WEIGHT, cond)
        assert errors == [None] * len(u)
        assert len(calls) <= len(chunks) + 1, (len(calls), len(chunks))
    assert channel.density_average(fm, [], channel.EXACT_WEIGHT, cond) == ([], [])


def test_composite_expectation_keeps_its_fixed_ends(monkeypatch):
    # composite_expectation passes u = 0, which keeps the fixed ends -700 / g2
    # and y* + 45 sigma for any func, monotone or not, without a probe call:
    # h, the normalisation, and a func that peaks at y = 3, far in the bump's
    # upper tail, and is below e^-70 of its peak at h_hat and at y* + 45 sigma
    fm = make_fading(0.35, 0.1)
    ends, calls = [], []
    gk21 = quadrature._gk21

    def recording(f, lo, hi, owner):
        ends.append((lo.min(), hi.max()))
        return gk21(f, lo, hi, owner)

    def spike(h):
        calls.append(None)
        return 1e8 * np.exp(-8.0 * (np.log(h / fm.h_hat) - 3.0) ** 2)

    monkeypatch.setattr(quadrature, "_gk21", recording)
    for func, expected in ((lambda h: h, moment_composite(fm, 1)), (None, 1.0)):
        ends.clear()
        assert composite_expectation(fm, func) == pytest.approx(expected, rel=1e-9)
        assert ends[0] == (-700.0 / fm.g2, fm.y_top)
    ends.clear()
    value = composite_expectation(fm, spike)
    assert ends[0] == (-700.0 / fm.g2, fm.y_top)
    assert len(calls) == len(ends)  # no probe call besides the integrand's

    def reference(y):
        h = fm.h_hat * math.exp(y)
        return float(pdf_composite(h, fm)) * float(spike(h)) * h

    quad, _ = quadrature.integrate(reference, 0.0, 12.0, (2.0, 3.0, 4.0))
    assert value == pytest.approx(quad, rel=1e-8) and value > 1e-4


def test_composite_expectation_raises_without_convergence():
    # a func that changes sign 10^4 times per unit of h / h_hat cannot reach
    # rel 1e-11 within the engine's 2,000 panels
    fm = make_fading(0.35, 0.1)
    with pytest.raises(quadrature.QuadratureError,
                       match="no convergence within the panel budget") as exc_info:
        composite_expectation(fm, lambda h: np.sign(np.sin(1e4 * h / fm.h_hat)))
    error = exc_info.value
    assert math.isfinite(error.value) and error.error_estimate > 1e-11 * abs(error.value)


def test_tail_probes_emit_no_warning():
    # cond is probed at the ends of the integration range, not at h = 0 or
    # inf, where u h would be 0 inf; its zeros are read as 1e-300, so no log
    # of 0 is taken, and pytest turns a RuntimeWarning into an error
    fm = make_fading(0.35, 0.1)
    values, errors = channel.density_average(
        fm, [0.0, 1.0 / fm.h_hat], channel.EXACT_WEIGHT,
        lambda h, u: channel.erfc(u * h))
    assert errors == [None, None] and values[0] == pytest.approx(1.0, abs=1e-9)
    (value,), (error,) = channel.density_average(
        fm, [1e-3 / fm.h_hat], channel.EXACT_WEIGHT,
        lambda h, u: 2.0 + np.arctan(np.log(u * h)))
    assert error is None and 0.0 < value < 4.0


# ---------------------------------------------------------------------------
# component densities

def test_turbulence_density_normalization_and_second_moment():
    from fsolink.quadrature import integrate
    sigma2 = 0.5
    total, _ = integrate(lambda ha: pdf_turbulence(ha, sigma2), 0.0, math.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    second, _ = integrate(lambda ha: ha * ha * pdf_turbulence(ha, sigma2),
                          0.0, math.inf)
    assert second == pytest.approx(1.0, abs=1e-9)


def test_pointing_density_support_and_moments():
    from fsolink.quadrature import integrate
    fm = make_fading(0.35, 0.1)
    g, k = fm.gamma, fm.kappa
    total, _ = integrate(lambda hp: pdf_pointing(hp, g, k), 0.0, k)
    assert total == pytest.approx(1.0, abs=1e-9)
    second, _ = integrate(lambda hp: hp * hp * pdf_pointing(hp, g, k), 0.0, k)
    assert second == pytest.approx(1.0, abs=1e-7)
    # density vanishes beyond the maximum gain kappa
    assert pdf_pointing(k * 1.0001, g, k) == 0.0


def test_composite_density_normalization_all_points():
    for ss, r in GRID_POINTS:
        fm = make_fading(ss, r)
        total = composite_expectation(fm, lambda h: 1.0)
        assert total == pytest.approx(1.0, abs=1e-9), (ss, r)


@pytest.mark.parametrize("sigma_s, rytov",
                         [(5.0, 0.01), (5.0, 1e-4), (1.0, 0.01), (0.05, 1.0)])
def test_composite_density_normalization_off_grid(sigma_s, rytov):
    # gamma^2 from 0.039 to 390: the lower piece's panels must resolve both
    # the erfc knee at sqrt(2 sigma^2) and the decay on the scale 1 / gamma^2
    total = composite_expectation(make_fading(sigma_s, rytov))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_composite_density_pointwise_positive():
    fm = make_fading(0.25, 0.5)
    for h in (1e-6, 1e-4, 5e-4, 1.5e-3):
        assert pdf_composite(h, fm) > 0.0


def test_component_densities_reject_bad_parameters():
    fm = make_fading(0.35, 0.1)
    for sigma2 in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            pdf_turbulence(1.0, sigma2)
    for gamma in (0.0, -fm.gamma, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive"):
            pdf_pointing(0.5 * fm.kappa, gamma, fm.kappa)
    for kappa in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive"):
            pdf_pointing(0.5, 1.0, kappa)


def test_turbulence_density_rejects_nan_gain():
    for h_a in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="turbulence gain must be positive"):
            pdf_turbulence(h_a, 0.5)


def test_pointing_density_rejects_nan_gain():
    fm = make_fading(0.35, 0.1)
    for h_p in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="pointing gain must be non-negative"):
            pdf_pointing(h_p, fm.gamma, fm.kappa)


def test_pointing_density_does_not_overflow():
    # h_p^(gamma^2 - 1) at h_p = 1e10 and gamma^2 = 100 would overflow beyond
    # kappa, and kappa^(gamma^2) = 10^400 inside it
    assert pdf_pointing(1e10, 10.0, 1.0) == 0.0
    assert pdf_pointing(np.array([0.5, 1e10]), 10.0, 1.0).tolist() == [100.0 * 0.5**99, 0.0]
    assert pdf_pointing(0.5, 20.0, 10.0) == 0.0


def test_pointing_density_is_inf_at_zero_gain_below_gamma_one():
    # h_p^(gamma^2 - 1) with gamma^2 < 1 diverges at 0: the density's value, with no warning
    assert pdf_pointing(0.0, 0.5, 1.0) == math.inf
    assert pdf_pointing(np.array([0.0, 1.0]), 0.5, 1.0).tolist() == [math.inf, 0.25]


def test_composite_density_rejects_nan_gain():
    fm = make_fading(0.25, 0.5)
    # below the smallest normal double g2 / 2h overflowed, and times a form of
    # 0 made a density of nan
    for h in (math.nan, np.array([5e-4, math.nan]), 1e-320, np.array([5e-4, 5e-324])):
        with pytest.raises(ValueError, match="composite gain must be positive"):
            pdf_composite(h, fm)
    # at the smallest normal gain g2 / 2h still overflows where g2 > 8, times
    # a form that underflows to 0
    assert fm.g2 > 8.0 and pdf_composite(sys.float_info.min, fm) == 0.0


def test_composite_density_finite_where_g2_over_2h_overflows():
    # at the smallest normal gain g2 / 2h overflows, and with a breakpoint of
    # 1.6e-307 the form is positive there: h divides last, not a density of inf
    fm = make_fading(0.35, 0.1, make_geometry(attenuation_sigma_lambda=233.0))
    h = sys.float_info.min
    y = math.log(h / fm.h_hat)
    expected = fm.g2 / 2.0 * math.exp(fm.log_amp + fm.g2 * y) * math.erfc(y / fm.sqrt2s) / h
    assert fm.g2 / (2.0 * h) == math.inf and 2e300 < expected < 3e300
    assert pdf_composite(h, fm) == pytest.approx(expected, rel=1e-12)
    # beside a gain whose g2 / 2h does not overflow, each keeps its value
    both = pdf_composite(np.array([h, 4.0 * h]), fm)
    assert both.tolist() == [pdf_composite(h, fm), pdf_composite(4.0 * h, fm)]


@pytest.mark.parametrize("sigma_s, rytov", [(0.095, 0.154), (5.0, 0.01)])
def test_composite_density_integrates_to_one_off_grid(sigma_s, rytov):
    # gamma^2 = 109 and 0.039; at 109 the density's bulk lies where
    # h^(gamma^2 - 1) overflows and erfc(v) underflows
    from fsolink.quadrature import integrate
    fm = make_fading(sigma_s, rytov)
    pdf = pdf_composite(np.logspace(-8.0, -2.0, 241), fm)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
    # split at h_hat, where v changes sign: qagp takes no breakpoint with an infinite end
    below, _ = integrate(lambda h: pdf_composite(h, fm), 0.0, fm.h_hat)
    above, _ = integrate(lambda h: pdf_composite(h, fm), fm.h_hat, math.inf)
    assert below + above == pytest.approx(1.0, abs=1e-9)


def test_mean_gain_closed_form_matches_quadrature_and_table():
    for (ss, r), expect in EXPECTED_MEAN_GAIN.items():
        fm = make_fading(ss, r)
        closed = moment_composite(fm, 1)
        quad = composite_expectation(fm, lambda h: h)
        assert closed == pytest.approx(quad, rel=1e-8), (ss, r)
        assert closed == pytest.approx(expect, rel=0.01), (ss, r)


def test_expectations_where_e_to_the_y_overflows():
    # y* + 45 sigma = 713.4 lies past ln(DBL_MAX) = 709.78: the top gains
    # h_hat e^y, about 2e15 h_hat, are formed without e^y, which overflows
    fm = make_fading(0.037108142230262764, 0.9403504055386693)
    assert fm.y_top == pytest.approx(713.39, rel=1e-5)
    assert composite_expectation(fm) == pytest.approx(1.0, abs=1e-9)
    assert composite_expectation(fm, lambda h: h) == pytest.approx(moment_composite(fm, 1),
                                                                    rel=1e-9)


def test_second_moment_is_deterministic_product():
    for ss, r in HEADLINE_POINTS:
        fm = make_fading(ss, r)
        closed = moment_composite(fm, 2)
        assert closed == pytest.approx(fm.hg_hl**2, rel=1e-12)
        quad = composite_expectation(fm, lambda h: h * h)
        assert quad == pytest.approx(closed, rel=1e-8)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_moments_within_three_sigma():
    rng = np.random.default_rng(2024)
    n = 10_000_000
    fm = make_fading(0.35, 0.1)
    h = sample_composite(fm, rng, n)
    mean = moment_composite(fm, 1)
    second = moment_composite(fm, 2)
    se_mean = h.std() / math.sqrt(n)
    assert abs(h.mean() - mean) < 3.0 * se_mean
    sq = h * h
    se_sq = sq.std() / math.sqrt(n)
    assert abs(sq.mean() - second) < 3.0 * se_sq


def test_sampling_distribution_ks():
    # empirical CDF vs quadrature CDF on a fixed grid, pinned seed
    from fsolink.quadrature import integrate
    rng = np.random.default_rng(7)
    fm = make_fading(0.25, 0.5)
    n = 1_000_000
    h = np.sort(sample_composite(fm, rng, n))
    grid = np.quantile(h, np.linspace(0.05, 0.95, 19))
    lo = 0.0
    cdf = 0.0
    for q in grid:
        inc, _ = integrate(lambda x: pdf_composite(x, fm), lo, float(q))
        cdf += inc
        lo = float(q)
        emp = np.searchsorted(h, q, side="right") / n
        assert abs(emp - cdf) < 0.002, q


def test_sample_bounds():
    rng = np.random.default_rng(5)
    fm = make_fading(0.2, 0.9)
    h = sample_composite(fm, rng, 100_000)
    assert np.all(h > 0.0)
    # pointing gain never exceeds kappa, turbulence is unbounded but the
    # deterministic factors cap the bulk
    assert h.max() < fm.hg_hl * fm.kappa * 100.0
    one = sample_composite(fm, rng)  # without a size, one scalar draw
    assert np.ndim(one) == 0 and one > 0.0


def _pointing_gain(fm, v):
    """Hp = kappa exp(-2 R^2 / w_hat^2) for a uniform v in [0, 1), the radial
    displacement R Rayleigh by inverse CDF, as the two-factor sampler drew it."""
    r_sq = -2.0 * fm.jitter_sigma_s**2 * np.log(1.0 - v)
    return fm.kappa * np.exp(-2.0 * r_sq / fm.geometry.wz_hat_sq)


@pytest.mark.parametrize("sigma_s, rytov", [(0.35, 0.1), (0.05, 1e-4), (5.0, 1.0)])
def test_fused_sampler_matches_two_factor_form(sigma_s, rytov):
    fm = make_fading(sigma_s, rytov)
    n = 200_000
    h = sample_composite(fm, np.random.Generator(np.random.Philox(key=9)), n)
    rng = np.random.Generator(np.random.Philox(key=9))
    h_a = rng.lognormal(mean=fm.delta, sigma=math.sqrt(fm.sigma2), size=n)
    ref = fm.hg_hl * h_a * _pointing_gain(fm, rng.random(size=n))
    np.testing.assert_allclose(h, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sigma_s, rytov", [(0.05, 1e-4), (0.35, 0.1), (5.0, 1.0)])
def test_sampler_draws_into_a_given_buffer_bit_for_bit(sigma_s, rytov):
    # a caller-owned buffer, whole or the head of a larger one, takes the gains
    # a new array would, and the draws after them are the same
    fm = make_fading(sigma_s, rytov)
    n = 2 * BLOCK + 5
    rng = np.random.Generator(np.random.SFC64(4))
    h = sample_composite(fm, rng, size=n)
    after = rng.standard_normal(9)
    whole = np.full(n, np.nan)
    head = np.full(n + 7, np.nan)
    for buffer, kwargs in ((whole, dict(out=whole)), (head, dict(size=n, out=head[:n]))):
        rng = np.random.Generator(np.random.SFC64(4))
        assert np.shares_memory(sample_composite(fm, rng, **kwargs), buffer)
        np.testing.assert_array_equal(buffer[:n], h)
        np.testing.assert_array_equal(rng.standard_normal(9), after)
    assert np.isnan(head[n:]).all()


class _FixedDraws:
    """Stands in for a Generator, returning set standard normals and uniforms."""

    def __init__(self, z, v):
        self.z, self.v = z, v

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.z.copy()
        out[...] = self.z
        return out

    def random(self, size=None):
        return self.v.copy()


def test_fused_sampler_underflows_where_two_factor_form_does():
    # gamma^2 is about 0.04 at sigma_s = 5 m, so Hp = kappa U^(1/gamma^2) is 0
    # in double precision for U below about 1e-13
    fm = make_fading(5.0, 1.0)
    assert fm.gamma**2 < 0.05
    z, v = np.meshgrid([-8.0, -1.0, 0.0, 1.0, 8.0],
                       [0.0, 0.5, 1.0 - 1e-6, 1.0 - 1e-15, 1.0 - 2.0**-53])
    z, v = z.ravel(), v.ravel()
    h = sample_composite(fm, _FixedDraws(z, v), z.size)
    ref = fm.hg_hl * np.exp(fm.delta + math.sqrt(fm.sigma2) * z) * _pointing_gain(fm, v)
    assert not np.isnan(h).any()
    np.testing.assert_array_equal(h == 0.0, ref == 0.0)
    assert (h == 0.0).sum() == 10
    np.testing.assert_allclose(h, ref, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# SNR definitions

def test_mean_symbol_power():
    assert mean_symbol_power_sq(2, 1.0) == pytest.approx(2.0)
    # E[X^2] = 2 P^2 (2M-1) / (3 (M-1))
    assert mean_symbol_power_sq(4, 2.0) == pytest.approx(2 * 4 * 7 / 9.0)


def test_snr_monotone_in_power():
    op1 = make_op(0.35, 0.1, 2, 0.0)
    op2 = make_op(0.35, 0.1, 2, 10.0)
    assert snr_electrical(op2) == pytest.approx(snr_electrical(op1) + 20.0, abs=1e-9)
    assert snr_optical(op2) == pytest.approx(snr_optical(op1) + 10.0, abs=1e-9)


@pytest.mark.parametrize("sigma_s, attenuation, order, snrs", [
    # h_g h_l = 4.7e-199: E[X^2] (h_g h_l)^2 underflows to 0
    (0.35, 150.0, 2, (-1946.5261, -3889.5536)),
    # gamma^2 = 9.8e-301: E[H] = h_g h_l e^(-sigma^2/2) kappa gamma^2 / (gamma^2 + 1)
    # underflows to 0
    (1e150, 140.0, 1, (-3314.7478, -3628.9770)),
])
def test_snr_finite_where_a_gain_moment_underflows(sigma_s, attenuation, order, snrs):
    op = make_op(sigma_s, 0.1, 2, 0.0, make_geometry(attenuation_sigma_lambda=attenuation))
    assert moment_composite(op.fading, order) == 0.0
    assert (snr_optical(op), snr_electrical(op)) == pytest.approx(snrs, abs=1e-4)


@pytest.mark.parametrize("order", [0, 3, -1])
def test_gain_moment_rejects_other_orders(order):
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        moment_composite(make_fading(0.35, 0.1), order)


def test_optical_electrical_gap_ook():
    # for OOK the two SNR definitions differ by a constant offset in dB
    op = make_op(0.35, 0.1, 2, 0.0)
    gap0 = snr_electrical(op) - 2.0 * snr_optical(op)
    op2 = make_op(0.35, 0.1, 2, 13.0)
    gap1 = snr_electrical(op2) - 2.0 * snr_optical(op2)
    assert gap0 == pytest.approx(gap1, abs=1e-9)


def test_operating_point_validation():
    geo = make_geometry()
    fm = make_fading(0.35, 0.1, geo)
    with pytest.raises(ValueError):
        OperatingPoint(geo, fm, 3, 1e-3)
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OperatingPoint(geo, fm, 4, p)
    # the orders an average accepts run from 2 to 1024: beyond it, M - 1
    # overflows a double at 2^1030 and the exact BER has no coefficients
    for m in (1, 2048, 2**1030):
        with pytest.raises(ValueError, match="power of two from 2 to 1024"):
            OperatingPoint(geo, fm, m, 1e-3)
    assert OperatingPoint(geo, fm, 1024, 1e-3).bits_per_symbol == 10
    op = OperatingPoint(geo, fm, 16, 1e-3)
    assert op.bits_per_symbol == 4
    assert op.with_modulation(8).modulation_order_m == 8
    assert op.with_power(2e-3).transmit_power_p == 2e-3
    # a fading model belongs to the geometry it was derived from
    with pytest.raises(ValueError, match="derived from a different geometry"):
        OperatingPoint(make_geometry(noise_sigma_n=2e-7), fm, 4, 1e-3)
    assert OperatingPoint(make_geometry(), fm, 4, 1e-3).fading is fm
