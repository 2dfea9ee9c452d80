"""Deterministic and stochastic channel gains for an IM/DD free-space optical
link: Beer-Lambert loss, geometric spread, log-normal turbulence, Rayleigh
pointing jitter, the composite gain PDF and moments, the averaging engine
over that PDF, SNR definitions, and a reproducible sampler for Monte Carlo
use.

Unit conventions: all lengths in metres internally; the atmospheric
attenuation coefficient is applied directly in the Beer-Lambert exponent with
distance in km (the common per-km tabulated figure); transmit power in watts,
with dBm conversion helpers for the CLI layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .specfun import erfc, erfcx


def beer_lambert_loss(sigma_lambda: float, z_km: float) -> float:
    """Atmospheric loss exp(-sigma_lambda * z_km); in (0, 1]."""
    if sigma_lambda < 0.0:
        raise ValueError("attenuation coefficient must be >= 0")
    if z_km <= 0.0:
        raise ValueError("distance must be positive")
    return math.exp(-sigma_lambda * z_km)


def rytov_variance(cn2: float, wavelength: float, z: float) -> float:
    """Scintillation strength 1.23 * Cn2 * (2 pi / lambda)^(7/6) * z^(11/6)."""
    if cn2 <= 0.0 or wavelength <= 0.0 or z <= 0.0:
        raise ValueError("cn2, wavelength and z must be positive")
    k = 2.0 * math.pi / wavelength
    return 1.23 * cn2 * k ** (7.0 / 6.0) * z ** (11.0 / 6.0)


def geometric_spread(a: float, wz: float) -> tuple[float, float]:
    """Fraction of power captured by an aperture of radius a from a Gaussian
    beam of waist wz with zero misalignment.

    Returns (v0, h_g) with v0 = sqrt(pi) a / (sqrt(2) wz) and h_g = erf(v0)^2.
    """
    if a <= 0.0 or wz <= 0.0:
        raise ValueError("aperture radius and beam waist must be positive")
    v0 = math.sqrt(math.pi) * a / (math.sqrt(2.0) * wz)
    h_g = math.erf(v0) ** 2
    return v0, h_g


def equivalent_beam_width_sq(wz: float, v0: float) -> float:
    """Equivalent beam width squared: wz^2 sqrt(pi) erf(v0) / (2 v0 exp(-v0^2))."""
    if wz <= 0.0 or v0 <= 0.0:
        raise ValueError("wz and v0 must be positive")
    return wz * wz * math.sqrt(math.pi) * math.erf(v0) / (2.0 * v0 * math.exp(-v0 * v0))


def pointing_params(wz_hat_sq: float, sigma_s: float, sigma_r2: float) -> tuple[float, float, float]:
    """Pointing-error shape parameters (gamma, kappa, mu).

    gamma = w_hat / (2 sigma_s); kappa normalizes E[Hp^2] to 1;
    mu = sigma_R^2 (gamma^2 + 1).
    """
    if wz_hat_sq <= 0.0 or sigma_s <= 0.0:
        raise ValueError("wz_hat_sq and sigma_s must be positive")
    gamma = math.sqrt(wz_hat_sq) / (2.0 * sigma_s)
    g2 = gamma * gamma
    kappa = math.sqrt((g2 + 2.0) / g2)
    mu = sigma_r2 * (g2 + 1.0)
    return gamma, kappa, mu


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


@dataclass(frozen=True)
class LinkGeometry:
    """Deterministic optics and link parameters with derived constants, each
    computed once, on first use."""

    wavelength: float  # m
    distance_z: float  # m
    divergence_theta: float  # rad
    aperture_radius_a: float  # m
    conversion_alpha: float = 1.0  # W/A
    responsivity_beta: float = 0.5  # A/W
    noise_sigma_n: float = 1e-7  # A
    attenuation_sigma_lambda: float = 0.2208  # per-km coefficient

    def __post_init__(self):
        for name in ("wavelength", "distance_z", "divergence_theta",
                     "aperture_radius_a", "conversion_alpha",
                     "responsivity_beta", "noise_sigma_n"):
            if not 0.0 < getattr(self, name) < math.inf:  # false for nan too
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.attenuation_sigma_lambda < math.inf:
            raise ValueError("attenuation_sigma_lambda must be >= 0 and finite")

    @property
    def beam_waist_wz(self) -> float:
        return self.divergence_theta * self.distance_z / 2.0

    @property
    def eta(self) -> float:
        return self.conversion_alpha * self.responsivity_beta

    @cached_property
    def h_l(self) -> float:
        return beer_lambert_loss(self.attenuation_sigma_lambda, self.distance_z / 1000.0)

    @cached_property
    def _spread(self) -> tuple[float, float]:
        return geometric_spread(self.aperture_radius_a, self.beam_waist_wz)

    @property
    def v0(self) -> float:
        return self._spread[0]

    @property
    def h_g(self) -> float:
        return self._spread[1]

    @cached_property
    def wz_hat_sq(self) -> float:
        return equivalent_beam_width_sq(self.beam_waist_wz, self.v0)


@dataclass(frozen=True)
class FadingModel:
    """Stochastic channel parameters and their derived constants, each computed
    once, on first use.

    sigma2 (the log-variance of the turbulence gain) is identified with the
    Rytov variance, valid in the weak-turbulence regime sigma_R^2 < 1, and
    the log-mean is fixed at -sigma2 so that E[Ha^2] = 1.
    """

    geometry: LinkGeometry
    rytov_var_sigma_r2: float
    jitter_sigma_s: float  # m

    def __post_init__(self):
        if not (0.0 < self.rytov_var_sigma_r2 <= 1.0):
            raise ValueError("rytov variance must lie in (0, 1] for weak turbulence")
        if not 0.0 < self.jitter_sigma_s < math.inf:
            raise ValueError("jitter_sigma_s must be positive and finite")
        # the log-gain coordinates ln(h / h_hat) need a normal h_hat
        if not self.h_hat >= sys.float_info.min:
            raise ValueError(f"the breakpoint h_hat = h_g h_l kappa exp(-mu) = {self.h_hat!r} "
                             f"is not a positive normal double (mu = {self.mu:g}, "
                             f"h_g h_l = {self.hg_hl:g})")

    @property
    def sigma2(self) -> float:
        return self.rytov_var_sigma_r2

    @property
    def delta(self) -> float:
        return -self.sigma2

    @cached_property
    def _pointing(self) -> tuple[float, float, float]:
        return pointing_params(self.geometry.wz_hat_sq, self.jitter_sigma_s,
                               self.rytov_var_sigma_r2)

    @property
    def gamma(self) -> float:
        return self._pointing[0]

    @property
    def kappa(self) -> float:
        return self._pointing[1]

    @property
    def mu(self) -> float:
        return self._pointing[2]

    @cached_property
    def hg_hl(self) -> float:
        return self.geometry.h_g * self.geometry.h_l

    @cached_property
    def h_hat(self) -> float:
        """Breakpoint h_g h_l kappa exp(-mu) where v changes sign."""
        return self.hg_hl * self.kappa * math.exp(-self.mu)

    @cached_property
    def log_gain_params(self) -> LogGainParams:
        """The constants of the composite density in log-gain coordinates."""
        g2, sig2 = self.gamma**2, self.sigma2
        return LogGainParams(g2, sig2, self.h_hat, -(g2 * g2) * sig2 / 2.0,
                             math.sqrt(2.0 * sig2), g2 * sig2, g2 * sig2 + 45.0 * math.sqrt(sig2))


def power_error(p_watts: float) -> ValueError | None:
    """The error of a transmit power that is not positive and finite, or None."""
    if not math.isfinite(p_watts) or p_watts <= 0.0:
        return ValueError("transmit power must be positive and finite")
    return None


@dataclass(frozen=True)
class OperatingPoint:
    """Everything an average error-rate computation needs."""

    geometry: LinkGeometry
    fading: FadingModel
    modulation_order_m: int
    transmit_power_p: float  # W

    def __post_init__(self):
        m = self.modulation_order_m
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError("modulation order must be a power of two >= 2")
        error = power_error(self.transmit_power_p)
        if error is not None:
            raise error
        if self.fading.geometry is not self.geometry and self.fading.geometry != self.geometry:
            raise ValueError("fading model was derived from a different geometry")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.modulation_order_m))

    def with_power(self, p_watts: float) -> "OperatingPoint":
        return OperatingPoint(self.geometry, self.fading, self.modulation_order_m, p_watts)

    def with_modulation(self, m: int) -> "OperatingPoint":
        return OperatingPoint(self.geometry, self.fading, m, self.transmit_power_p)


def pdf_turbulence(h_a, sigma2: float):
    """Log-normal turbulence density with log-mean -sigma2, log-variance sigma2."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    h_a = np.asarray(h_a, dtype=float)
    if not np.all(h_a > 0.0):  # false for nan too
        raise ValueError("turbulence gain must be positive")
    out = np.exp(-((np.log(h_a) + sigma2) ** 2) / (2.0 * sigma2)) / (
        h_a * math.sqrt(2.0 * math.pi * sigma2)
    )
    return float(out) if out.ndim == 0 else out


def pdf_pointing(h_p, gamma: float, kappa: float):
    """Pointing-gain density gamma^2 / kappa^gamma^2 * h_p^(gamma^2-1) on [0, kappa]."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    h_p = np.asarray(h_p, dtype=float)
    if not np.all(h_p >= 0.0):  # false for nan too
        raise ValueError("pointing gain must be non-negative")
    g2 = gamma * gamma
    out = np.where(h_p <= kappa, g2 / kappa**g2 * h_p ** (g2 - 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the composite density in log-gain coordinates, and averages over it for many
# conditionals at once

# argument beyond which exp(-x^2) terms are treated as exactly zero
ARG_CUTOFF = 30.0


@dataclass(frozen=True)
class LogGainParams:
    """Constants of the composite density in log-gain coordinates."""

    g2: float          # gamma^2
    sig2: float        # log variance
    h_hat: float
    log_amp: float     # combined log prefactor exponent: -gamma^4 sigma^2 / 2
    sqrt2s: float
    y_star: float      # centre of the Gaussian bump above h_hat
    y_top: float       # its upper end, 45 standard deviations above the centre

    @cached_property
    def y_plan(self) -> np.ndarray:
        """The points of the upper piece's plan: -inf and inf (its ends), 0
        (h_hat), y* + k sigma for k in Y_SIGMAS, and the offsets Y_COND from
        the conditional's anchor y_c."""
        s = math.sqrt(self.sig2)
        return np.array([-math.inf, math.inf, 0.0, *(self.y_star + k * s for k in Y_SIGMAS),
                         *Y_COND])

    @cached_property
    def w_plan(self) -> np.ndarray:
        """The points of the lower piece's plan, in w: -inf and inf (its
        ends), the knee of the lower form at W_KNEES times sqrt(2 sig2), and
        the offsets from the conditional's peak w*: W_LADDER over g2,
        W_WIDTHS times the peak's width 1 / sqrt(2 g2), and W_BELOW."""
        width = 1.0 / math.sqrt(2.0 * self.g2)
        return np.array([-math.inf, math.inf, *(k * self.sqrt2s for k in W_KNEES),
                         *(k / self.g2 for k in W_LADDER), *(j * width for j in W_WIDTHS),
                         *W_BELOW])


def pdf_composite(h, model: FadingModel):
    """Density of the composite gain H = h_l h_g Ha Hp, in the log-gain form
    that density_average integrates. With y = ln(h / h_hat) and
    v = y / sqrt(2 sig2) it is (g2 / 2h) e^(log_amp + g2 y) erfc(v) below
    h_hat and (g2 / 2h) e^(-(y - y*)^2 / (2 sig2)) erfcx(v) above it, so no
    factor overflows where the other underflows."""
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0.0):  # false for nan too
        raise ValueError("composite gain must be positive")
    par = model.log_gain_params
    y = np.log(h / par.h_hat)
    # each branch sees y clamped to its own side of h_hat, where it cannot overflow
    y_low, y_high = np.minimum(y, 0.0), np.maximum(y, 0.0)
    out = par.g2 / (2.0 * h) * np.where(
        y <= 0.0,
        np.exp(par.log_amp + par.g2 * y_low) * erfc(y_low / par.sqrt2s),
        np.exp(-((y_high - par.y_star) ** 2) / (2.0 * par.sig2))
        * erfcx(y_high / par.sqrt2s))
    return float(out) if out.ndim == 0 else out


def y_splits(par: LogGainParams):
    """Splits of the upper piece at y* + k sigma (k = -6, -3, 0, 3, 6) above 0."""
    s = math.sqrt(par.sig2)
    return tuple(p for p in sorted({par.y_star + k * s for k in (-6, -3, 0, 3, 6)}) if p > 0.0)


def low_w_splits(s_hat: float):
    """Splits around the onset of decay of exp(-(s_hat e^-w)^2) below h_hat."""
    if s_hat <= 1.0:
        return ()
    w_c = math.log(s_hat)
    return (w_c / 2.0, w_c, 2.0 * w_c)


def y_cut(s_hat: float) -> float:
    """Upper y beyond which exp(-(s_hat e^y)^2) underflows."""
    if s_hat <= 0:
        return math.inf
    return math.log(ARG_CUTOFF / s_hat) if s_hat < math.inf else -math.inf


# The engine's panel plans, LogGainParams.w_plan and y_plan. A plan's row for
# an anchor x is its points + x mask: the points of mask 1 are offsets from
# the anchor, the others fixed. The first two points, -inf and inf, stand for
# the ends of the piece.
#
# The lower piece's plan is anchored at the conditional's peak. A conditional
# with a Gaussian tail in t = s_hat e^-w, c(t) ~ e^(-t^2), makes the integrand
# e^(-g2 w) c(t) peak where d/dw (-g2 w - t^2) = -g2 + 2 t^2 = 0: at
# t* = sqrt(g2 / 2), so w* = ln(s_hat / t*) if s_hat > t* and 0 otherwise.
# There its log has curvature -4 t*^2 = -2 g2, a width of 1 / sqrt(2 g2).
# Past the peak the integrand decays as e^(-g2 (w - w*)), on a ladder of
# 1 / g2 scales down to e^-64. Below it t^2 grows by e^2 per unit of w, so the
# integrand falls as e^(-g2 (e^(2 d) - 1 - 2 d) / 2) at d = w* - w: within a
# few widths where g2 is large, within a few units of w where it is small.
# The knee of the lower form is at sqrt(2 sig2) and 4 sqrt(2 sig2), where
# erfc(-4) is 2 - 1.5e-8; the piecewise form 2 / (1 + e^(2.565 z)) comes within
# e^-25 of 2 only at z = -10.
W_KNEES = (1.0, 4.0, 10.0)  # times sqrt(2 sig2)
W_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)  # times 1 / g2 past w*
W_WIDTHS = (-6.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0)  # times the peak's width
W_BELOW = (-1.0, -2.0, -3.0)  # below w*
# The upper piece's plan is anchored at y_c = -ln(s_hat), where the
# conditional's argument t = s_hat e^y is 1. Past y_c + d, c(t) ~ e^(-t^2)
# with t^2 = e^(2 d): each half step multiplies t^2 by e, from d = -2, where
# erfc(t) is still 0.85, to t^2 = e^6 = 403 at d = 3, short of
# y_cut = y_c + ln 30.
Y_COND = (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# The Gaussian bump's splits: y_splits, and y* -+ 10 sigma, where it has
# fallen to e^-50 on either side. Without y* - 10 sigma, a bump far above
# h_hat (y* >> 6 sigma) leaves its lower tail in the one cell [0, y* - 6 sigma].
Y_SIGMAS = (-10.0, -6.0, -3.0, 0.0, 3.0, 6.0, 10.0)
W_MASK = np.array([0.0] * (2 + len(W_KNEES)) + [1.0] * (len(W_LADDER) + len(W_WIDTHS)
                                                      + len(W_BELOW)))
Y_MASK = np.array([0.0] * (3 + len(Y_SIGMAS)) + [1.0] * len(Y_COND))


def low_w_plan(par: LogGainParams, y_c):
    """Initial panel edges of the lower piece in w = -ln(h / h_hat), one row
    for each entry of the array y_c = -ln(s_hat) (finite), -inf and inf
    standing for the piece's ends: the plan par.w_plan anchored at the
    conditional's peak w* = max(ln(s_hat / t*), 0)."""
    w_star = np.maximum(-0.5 * math.log(par.g2 / 2.0) - y_c, 0.0)
    return w_star[:, None] * W_MASK + par.w_plan


# the density's erfc factor as a pair: erfc(v) for v <= 0 below h_hat, and
# exp(v^2) erfc(v) for v >= 0 above it, its exp(-v^2) being folded into the
# Gaussian bump
EXACT_WEIGHT = (erfc, erfcx)


def flush_subnormal(x: float) -> float:
    """x, or 0.0 where |x| is below the smallest normal double: an average
    there has lost its relative precision, as the engine converges only to
    abs 1e-319."""
    return 0.0 if abs(x) < sys.float_info.min else x


def density_average(fm: FadingModel, u, weight, cond, h_power: float = 0.0,
                    y_lo: float = 0.0, y_extra=()):
    """The average of h^h_power cond(h, u) over the composite density, for
    each entry of u at once; cond decays on the h-scale 1 / u.

    weight is the density's erfc factor as a pair (lower form, upper form),
    EXACT_WEIGHT or an approximation of it. The integral runs in
    y = ln(h / h_hat). Below h_hat, over [-700 / g2, 0], it is taken against
    e^(log_amp + (g2 + h_power) y) times the lower form at y / sqrt(2 sig2);
    above it, over [0, y_up], against the Gaussian bump
    e^(-(y - y*)^2 / (2 sig2) + h_power y) times the upper form at
    y / sqrt(2 sig2). Without a lower form (None) the lower piece is dropped
    and the upper one starts at y_lo. With s_hat = u h_hat, y_up is y_cut,
    capped at y* + 45 sigma. The initial panels of an entry are cut at the
    points of low_w_plan below h_hat, and above it at those of
    LogGainParams.y_plan anchored at y_c = -ln(s_hat), and at y_extra.
    cond receives the gains as an array and u as a matching column. Every
    panel of every entry is integrated in one quadrature.integrate_panels
    batch.

    Returns (values, errors): errors[i] is None, or the QuadratureError of
    entry i, whose value is then nan. A value below the smallest normal
    double is returned as 0, as flush_subnormal does.
    """
    par = fm.log_gain_params
    w_low, w_high = weight
    s_hat = [x * par.h_hat for x in u]
    y_up = np.array([max(y_lo, min(par.y_top, y_cut(s))) for s in s_hat])
    # the plans' anchor, kept finite where s_hat is 0 or inf
    y_c = np.array([min(max(-math.log(s), -800.0), 800.0) if s > 0.0 else 800.0
                    for s in s_hat])
    mask, points = Y_MASK, par.y_plan
    if y_extra:
        mask, points = np.append(mask, np.zeros(len(y_extra))), np.append(points, y_extra)
    # the edges of each entry as one row, the upper piece's and the lower one's
    edges = np.minimum(np.maximum(y_c[:, None] * mask + points, y_lo), y_up[:, None])
    if w_low is not None:
        low = np.minimum(np.maximum(low_w_plan(par, y_c), 0.0), 700.0 / par.g2)
        edges = np.concatenate([-low, edges], axis=1)
    edges.sort(axis=1)
    keep = edges[:, 1:] > edges[:, :-1]
    lo, hi, owner = edges[:, :-1][keep], edges[:, 1:][keep], keep.nonzero()[0]
    u_col = np.array(u, dtype=float)[:, None]

    def integrand(y, owner):
        out = np.empty_like(y)
        low = y[:, 10] < 0.0  # the side of h_hat of each panel's centre: y = 0 is an edge
        if low.any():
            out[low] = (np.exp(par.log_amp + (par.g2 + h_power) * y[low])
                        * w_low(y[low] / par.sqrt2s))
        if not low.all():
            high = ~low
            out[high] = (np.exp(-((y[high] - par.y_star) ** 2) / (2.0 * par.sig2)
                                + h_power * y[high]) * w_high(y[high] / par.sqrt2s))
        return out * cond(par.h_hat * np.exp(y), u_col[owner])

    value, error, ok = quadrature.integrate_panels(integrand, lo, hi, owner, len(u))
    value *= par.g2 / 2.0 * par.h_hat**h_power
    errors = [None if good else quadrature.QuadratureError(
        "no convergence within the panel budget" if math.isfinite(v + e)
        else "integrand produced a non-finite value", value=v, error_estimate=e)
        for good, v, e in zip(ok, value.tolist(), error.tolist())]
    value[~ok] = math.nan
    return [flush_subnormal(v) for v in value.tolist()], errors


def single_value(result) -> float:
    """The value of a one-entry (values, errors) result, as density_average
    returns them; raises its error."""
    (value,), (error,) = result
    if error is not None:
        raise error
    return value


def composite_expectation(model: FadingModel, func=None) -> float:
    """E[func(H)] under pdf_composite, by density_average with EXACT_WEIGHT.

    func receives an array of gains and returns an array of the same shape,
    or a scalar; it defaults to 1 (normalization). Raises QuadratureError
    when the integral does not converge.
    """
    cond = (lambda h, u: 1.0) if func is None else (lambda h, u: func(h))
    return single_value(density_average(model, [0.0], EXACT_WEIGHT, cond))


def moment_composite(model: FadingModel, order: int) -> float:
    """Closed-form first or second moment of the composite gain."""
    g2 = model.gamma**2
    if order == 1:
        return (
            model.hg_hl
            * math.exp(-model.sigma2 / 2.0)
            * model.kappa * g2 / (g2 + 1.0)
        )
    if order == 2:
        return model.hg_hl**2
    raise ValueError("order must be 1 or 2")


def sample_composite(model: FadingModel, rng: np.random.Generator, size=None):
    """Draw gains h_l h_g Ha Hp = h_l h_g kappa exp(sigma Z - sigma2 + ln(U)/gamma^2).

    Ha is log-normal with log-mean -sigma2. The radial displacement is Rayleigh
    by inverse CDF from one uniform U in (0, 1], so Hp = kappa U^(1/gamma^2).
    Z and U are the draws `lognormal` and `random` would make, in that order.
    """
    x = np.asarray(rng.standard_normal(size=size))
    x *= math.sqrt(model.sigma2)
    x += model.delta
    u = np.asarray(rng.random(size=size))
    np.log(np.subtract(1.0, u, out=u), out=u)
    x += np.divide(u, model.gamma**2, out=u)
    np.exp(x, out=x)
    x *= model.hg_hl * model.kappa
    return x[()]


def mean_symbol_power_sq(modulation_order_m: int, p_watts: float) -> float:
    """E[X^2] over uniform M-PAM levels {j 2P/(M-1)}: 2 P^2 (2M-1) / (3(M-1))."""
    m = modulation_order_m
    return 2.0 * p_watts**2 * (2.0 * m - 1.0) / (3.0 * (m - 1.0))


def snr_electrical(op: OperatingPoint) -> float:
    """Average received electrical SNR in dB, eta^2 E[X^2] E[H^2] / sigma_n^2.

    It is summed as log10 terms, E[X^2] at 1 W and its P^2 as 2 log10 P, so it
    stays finite where the product itself would overflow.
    """
    geo = op.geometry
    ex2_1w = mean_symbol_power_sq(op.modulation_order_m, 1.0)
    return 10.0 * (math.log10(ex2_1w * moment_composite(op.fading, 2))
                   + 2.0 * (math.log10(geo.eta) + math.log10(op.transmit_power_p)
                            - math.log10(geo.noise_sigma_n)))


def snr_optical(op: OperatingPoint) -> float:
    """Average received optical SNR in dB: detector signal photocurrent over
    the noise standard deviation (an amplitude-like ratio, reported as
    10 log10 of the ratio itself)."""
    geo = op.geometry
    ratio = geo.eta * op.transmit_power_p * moment_composite(op.fading, 1) / geo.noise_sigma_n
    return 10.0 * math.log10(ratio)
