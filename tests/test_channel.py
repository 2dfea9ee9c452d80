import math
import sys

import numpy as np
import pytest

from fsolink import channel
from fsolink.channel import (FadingModel, OperatingPoint, beer_lambert_loss,
                             composite_expectation, dbm_to_watts,
                             equivalent_beam_width_sq, geometric_spread,
                             mean_symbol_power_sq, moment_composite,
                             pdf_composite, pdf_pointing, pdf_turbulence,
                             pointing_params, rytov_variance, sample_composite,
                             snr_electrical, snr_optical, watts_to_dbm)
from fsolink.errorrates import avg_ser_exact
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
    assert beer_lambert_loss(0.2208, 3.0) == geo.h_l


def test_geometric_spread_default_budget():
    geo = make_geometry()
    assert geo.h_g == pytest.approx(1.3e-3, abs=0.05e-3)
    v0, h_g = geometric_spread(0.05, 1.98)
    assert v0 == pytest.approx(math.sqrt(math.pi) * 0.05 / (math.sqrt(2.0) * 1.98),
                               rel=1e-14)
    assert h_g == pytest.approx(math.erf(v0) ** 2, rel=1e-14)


def test_equivalent_beam_width():
    geo = make_geometry()
    wz, v0 = geo.beam_waist_wz, geo.v0
    expect = wz * wz * math.sqrt(math.pi) * math.erf(v0) / (
        2.0 * v0 * math.exp(-v0 * v0))
    assert geo.wz_hat_sq == pytest.approx(expect, rel=1e-14)
    assert equivalent_beam_width_sq(wz, v0) == pytest.approx(expect, rel=1e-14)


def test_eta_is_alpha_beta_product():
    geo = make_geometry()
    assert geo.eta == pytest.approx(0.5)


def test_rytov_variance_formula():
    # sigma_R^2 = 1.23 Cn2 k^(7/6) z^(11/6)
    lam, z, cn2 = 1550e-9, 3000.0, 1e-15
    k = 2.0 * math.pi / lam
    assert rytov_variance(cn2, lam, z) == pytest.approx(
        1.23 * cn2 * k ** (7.0 / 6.0) * z ** (11.0 / 6.0), rel=1e-14)


def test_dbm_round_trip():
    for p in (-30.0, 0.0, 17.5):
        assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# fading-model derived constants

def test_pointing_params_headline_values():
    geo = make_geometry()
    gamma, kappa, mu = pointing_params(geo.wz_hat_sq, 0.35, 0.1)
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


def test_derived_constants_computed_once(monkeypatch):
    helpers = ("pointing_params", "geometric_spread", "equivalent_beam_width_sq",
               "beer_lambert_loss")
    calls = []

    def counted(name, helper):
        def wrapper(*args):
            calls.append(name)
            return helper(*args)
        return wrapper

    for name in helpers:
        monkeypatch.setattr(channel, name, counted(name, getattr(channel, name)))
    # from building a model through reading every constant, each helper runs once
    fm = make_fading(0.35, 0.1)
    geo = fm.geometry
    names = ("gamma", "kappa", "mu", "hg_hl", "h_hat")
    geo_names = ("h_l", "v0", "h_g", "wz_hat_sq")
    first = [getattr(fm, n) for n in names] + [getattr(geo, n) for n in geo_names]
    assert fm.log_gain_params.g2 == fm.gamma**2
    assert sorted(calls) == sorted(helpers)
    # built before the patch, as a model checks its breakpoint when it is built
    fresh = make_fading(0.35, 0.1)

    def recomputed(*args):
        raise AssertionError("derived constant recomputed")

    for name in helpers:
        monkeypatch.setattr(channel, name, recomputed)
    assert [getattr(fm, n) for n in names] + [getattr(geo, n) for n in geo_names] == first
    # the cached values are not fields: equality and hashing ignore them
    assert fm == fresh and hash(fm) == hash(fresh)


def test_log_gain_params_computed_once(monkeypatch):
    fm = make_fading(0.35, 0.1)
    par = fm.log_gain_params
    plans = par.y_plan, par.w_plan

    def recomputed(*args):
        raise AssertionError("log-gain constant recomputed")

    for name in ("LogGainParams", "y_splits", "pointing_params"):
        monkeypatch.setattr(channel, name, recomputed)
    assert fm.log_gain_params is par
    assert par.y_plan is plans[0] and par.w_plan is plans[1]
    composite_expectation(fm)  # the engine reads the cached constants and plans
    avg_ser_exact(OperatingPoint(fm.geometry, fm, 4, 1e-3))
    monkeypatch.undo()
    # the upper plan's fixed points are its ends, h_hat, y* + k sigma for
    # k = -10, -6, -3, 0, 3, 6, 10, and so y_splits; equality and hashing
    # ignore the cached values
    sigma = math.sqrt(par.sig2)
    fixed = plans[0][channel.Y_MASK == 0.0]
    assert fixed.tolist() == [-math.inf, math.inf, 0.0] + [
        par.y_star + k * sigma for k in (-10, -6, -3, 0, 3, 6, 10)]
    assert set(channel.y_splits(par)) <= set(fixed.tolist())
    assert plans[0][channel.Y_MASK == 1.0].tolist() == list(channel.Y_COND)
    fresh = make_fading(0.35, 0.1)
    assert fm == fresh and hash(fm) == hash(fresh)
    assert fresh.log_gain_params == par


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


def test_turbulence_density_rejects_nan_gain():
    for h_a in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="turbulence gain must be positive"):
            pdf_turbulence(h_a, 0.5)


def test_pointing_density_rejects_nan_gain():
    fm = make_fading(0.35, 0.1)
    for h_p in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="pointing gain must be non-negative"):
            pdf_pointing(h_p, fm.gamma, fm.kappa)


def test_composite_density_rejects_nan_gain():
    fm = make_fading(0.25, 0.5)
    for h in (math.nan, np.array([5e-4, math.nan])):
        with pytest.raises(ValueError, match="composite gain must be positive"):
            pdf_composite(h, fm)


@pytest.mark.parametrize("sigma_s, rytov", [(0.095, 0.154), (5.0, 0.01)])
def test_composite_density_integrates_to_one_off_grid(sigma_s, rytov):
    # gamma^2 = 109 and 0.039; at 109 the density's bulk lies where
    # h^(gamma^2 - 1) overflows and erfc(v) underflows
    from fsolink.quadrature import integrate
    fm = make_fading(sigma_s, rytov)
    pdf = pdf_composite(np.logspace(-8.0, -2.0, 241), fm)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
    total, _ = integrate(lambda h: pdf_composite(h, fm), 0.0, math.inf, (fm.h_hat,))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_mean_gain_closed_form_matches_quadrature_and_table():
    for (ss, r), expect in EXPECTED_MEAN_GAIN.items():
        fm = make_fading(ss, r)
        closed = moment_composite(fm, 1)
        quad = composite_expectation(fm, lambda h: h)
        assert closed == pytest.approx(quad, rel=1e-8), (ss, r)
        assert closed == pytest.approx(expect, rel=0.01), (ss, r)


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


class _FixedDraws:
    """Stands in for a Generator, returning set standard normals and uniforms."""

    def __init__(self, z, v):
        self.z, self.v = z, v

    def standard_normal(self, size=None):
        return self.z.copy()

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
    op = OperatingPoint(geo, fm, 16, 1e-3)
    assert op.bits_per_symbol == 4
    assert op.with_modulation(8).modulation_order_m == 8
    assert op.with_power(2e-3).transmit_power_p == 2e-3
