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
from math import exp, inf, log, sqrt  # density_average's, bound here: its loops read no module

import numpy as np

from . import quadrature
from .specfun import erfc, erfcx


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


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
        for name in ("wavelength", "distance_z", "divergence_theta", "aperture_radius_a",
                     "conversion_alpha", "responsivity_beta", "noise_sigma_n"):
            if not 0.0 < getattr(self, name) < math.inf:  # false for nan too
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.attenuation_sigma_lambda < math.inf:
            raise ValueError("attenuation_sigma_lambda must be >= 0 and finite")
        # wz before v0, which divides by it
        _require_normal("beam_waist_wz", self.beam_waist_wz)
        _require_normal("eta", self.eta)
        self.sqrt_2var  # checks 2 sigma_n^2, which the erfc argument's noise scale reads
        _require_normal("v0", self.v0)
        _require_normal("wz_hat_sq", self.wz_hat_sq)

    @property
    def beam_waist_wz(self) -> float:
        return self.divergence_theta * self.distance_z / 2.0

    @property
    def eta(self) -> float:
        return self.conversion_alpha * self.responsivity_beta

    @cached_property
    def sqrt_2var(self) -> float:  # 2 sigma_n^2 by *, as ** raises on overflow
        two_var = 2.0 * self.noise_sigma_n * self.noise_sigma_n
        _require_normal("2 noise_sigma_n^2", two_var)
        return math.sqrt(two_var)

    @cached_property
    def h_l(self) -> float:  # Beer-Lambert loss, z in km
        return math.exp(-self.attenuation_sigma_lambda * (self.distance_z / 1000.0))

    @cached_property
    def v0(self) -> float:
        return math.sqrt(math.pi) * self.aperture_radius_a / (math.sqrt(2.0) * self.beam_waist_wz)

    @cached_property
    def h_g(self) -> float:  # the share of the beam the aperture captures, centred
        return math.erf(self.v0) ** 2

    @cached_property
    def wz_hat_sq(self) -> float:  # equivalent beam width squared; inf where den underflows
        wz, v0 = self.beam_waist_wz, self.v0
        den = 2.0 * v0 * math.exp(-v0 * v0)
        return wz * wz * math.sqrt(math.pi) * math.erf(v0) / den if den else math.inf


def _require_normal(name: str, x: float) -> None:
    if not sys.float_info.min <= x < math.inf:  # false for nan too
        raise ValueError(f"{name} = {x!r} is not a positive normal finite double")


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
        _require_normal("gamma^2", self.g2)  # kappa divides by it
        # the log-gain coordinates ln(h / h_hat) need a normal h_hat
        if not sys.float_info.min <= self.h_hat < math.inf:  # false for nan too
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
    def gamma(self) -> float:  # w_hat / (2 sigma_s): Farid & Hranilovic, JLT 2007
        return math.sqrt(self.geometry.wz_hat_sq) / (2.0 * self.jitter_sigma_s)

    @cached_property
    def g2(self) -> float:  # gamma^2, the one product every reader shares
        return self.gamma * self.gamma

    @cached_property
    def kappa(self) -> float:  # normalizes E[Hp^2] to 1
        return math.sqrt((self.g2 + 2.0) / self.g2)

    @cached_property
    def mu(self) -> float:
        return self.rytov_var_sigma_r2 * (self.g2 + 1.0)

    @cached_property
    def hg_hl(self) -> float:
        return self.geometry.h_g * self.geometry.h_l

    @cached_property
    def h_hat(self) -> float:
        """Breakpoint h_g h_l kappa exp(-mu) where v changes sign."""
        return self.hg_hl * self.kappa * math.exp(-self.mu)

    @cached_property
    def log_amp(self) -> float:  # the log-gain density's log prefactor: -gamma^4 sigma^2 / 2
        return -(self.g2 * self.g2) * self.sigma2 / 2.0

    @cached_property
    def sqrt2s(self) -> float:
        return math.sqrt(2.0 * self.sigma2)

    @cached_property
    def y_star(self) -> float:  # centre of the Gaussian bump above h_hat
        return self.g2 * self.sigma2

    @cached_property
    def y_top(self) -> float:  # its upper end, 45 standard deviations above the centre
        return self.y_star + 45.0 * math.sqrt(self.sigma2)

    @cached_property
    def plan(self) -> np.ndarray:
        """The points of both pieces' plans in y as rows of shape (2, 1, B), to
        go with PLAN_MASK. Row 0 is the lower piece's plan in w = -y, negated:
        -inf and inf (its ends), the knee of the lower form at W_KNEES times
        sqrt(2 sig2), and the offsets from the conditional's peak w*: W_LADDER
        over g2, W_WIDTHS times the peak's width 1 / sqrt(2 g2), and W_BELOW.
        Row 1 is the upper piece's plan, padded with -inf: -inf and inf (its
        ends), 0 (h_hat), y* + k sigma for k in Y_SIGMAS, and the offsets
        Y_COND from the conditional's anchor y_c."""
        s, width = math.sqrt(self.sigma2), 1.0 / math.sqrt(2.0 * self.g2)
        offsets = [*(k / self.g2 for k in W_LADDER), *(j * width for j in W_WIDTHS), *W_BELOW]
        # an offset within a twentieth of the peak's width of an earlier one
        # takes its value: the sliver of a panel between them would carry
        # nothing and cost a panel
        for i, x in enumerate(offsets):
            offsets[i] = next((y for y in offsets[:i] if abs(x - y) < 0.05 * width), x)
        lower = [-math.inf, math.inf, *(k * self.sqrt2s for k in W_KNEES), *offsets]
        upper = [-math.inf, math.inf, 0.0, *(self.y_star + k * s for k in Y_SIGMAS), *Y_COND]
        return np.array([[[-w for w in lower]],
                         [upper + [-math.inf] * (len(lower) - len(upper))]])


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
        if not 2 <= m <= 1024 or (m & (m - 1)) != 0:
            raise ValueError("modulation order must be a power of two from 2 to 1024")
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
    if not 0.0 < sigma2 < math.inf:  # false for nan too
        raise ValueError("sigma2 must be positive and finite")
    h_a = np.asarray(h_a, dtype=float)
    if not np.all(h_a > 0.0):  # false for nan too
        raise ValueError("turbulence gain must be positive")
    out = np.exp(-((np.log(h_a) + sigma2) ** 2) / (2.0 * sigma2)) / (
        h_a * math.sqrt(2.0 * math.pi * sigma2)
    )
    return float(out) if out.ndim == 0 else out


def pdf_pointing(h_p, gamma: float, kappa: float):
    """Pointing-gain density gamma^2 / kappa^gamma^2 * h_p^(gamma^2-1) on [0, kappa]."""
    for name, value in (("gamma", gamma), ("kappa", kappa)):
        if not 0.0 < value < math.inf:  # false for nan too
            raise ValueError(f"{name} must be positive and finite")
    h_p = np.asarray(h_p, dtype=float)
    if not np.all(h_p >= 0.0):  # false for nan too
        raise ValueError("pointing gain must be non-negative")
    g2 = gamma * gamma
    # (h_p / kappa)^(g2 - 1), raised on the support alone, where no factor
    # overflows for g2 >= 1; at h_p = 0 with g2 < 1 it is the density's own
    # value there, inf
    with np.errstate(divide="ignore"):
        power = np.power(h_p / kappa, g2 - 1.0, out=np.zeros_like(h_p), where=h_p <= kappa)
    out = g2 / kappa * power
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the composite density in log-gain coordinates, and averages over it for many
# conditionals at once

# argument beyond which exp(-x^2) terms are treated as exactly zero
ARG_CUTOFF = 30.0
_SQRT_PI = math.sqrt(math.pi)


def pdf_composite(h, model: FadingModel):
    """Density of the composite gain H = h_l h_g Ha Hp, in the log-gain form
    that density_average integrates. With y = ln(h / h_hat) and
    v = y / sqrt(2 sig2) it is (g2 / 2h) e^(log_amp + g2 y) erfc(v) below
    h_hat and (g2 / 2h) e^(-(y - y*)^2 / (2 sig2)) erfcx(v) above it, so no
    factor overflows where the other underflows. A gain below the smallest
    normal double is refused."""
    h = np.asarray(h, dtype=float)
    if not np.all(h >= sys.float_info.min):  # false for nan too
        raise ValueError("composite gain must be positive and a normal double")
    y = np.log(h / model.h_hat)
    # each branch sees y clamped to its own side of h_hat, where it cannot overflow
    y_low, y_high = np.minimum(y, 0.0), np.maximum(y, 0.0)
    form = np.where(y <= 0.0,
                    np.exp(model.log_amp + model.g2 * y_low) * erfc(y_low / model.sqrt2s),
                    np.exp(-((y_high - model.y_star) ** 2) / (2.0 * model.sigma2))
                    * erfcx(y_high / model.sqrt2s))
    # where the form underflows to 0 so does the density, also where g2 / 2h
    # overflows; where it overflows and the form does not, h divides last
    with np.errstate(over="ignore"):
        scale = model.g2 / (2.0 * h)
        out = np.multiply(scale, form, out=np.zeros_like(form), where=form > 0.0)
        np.divide(model.g2 / 2.0 * form, h, out=out, where=(scale == math.inf) & (form > 0.0))
    return float(out) if out.ndim == 0 else out


# The engine's panel plans, the rows of FadingModel.plan. A plan's row for
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
# The Gaussian bump's splits: y* + k sigma for k = -6, -3, 0, 3, 6, and
# y* -+ 10 sigma, where it has fallen to e^-50 on either side. Without
# y* - 10 sigma, a bump far above h_hat (y* >> 6 sigma) leaves its lower tail
# in the one cell [0, y* - 6 sigma].
Y_SIGMAS = (-10.0, -6.0, -3.0, 0.0, 3.0, 6.0, 10.0)
W_MASK = np.array([0.0] * (2 + len(W_KNEES)) + [1.0] * (len(W_LADDER) + len(W_WIDTHS)
                                                      + len(W_BELOW)))
Y_MASK = np.array([0.0] * (3 + len(Y_SIGMAS)) + [1.0] * len(Y_COND))
PLAN_MASK = np.array([[W_MASK], [np.append(Y_MASK, [0.0] * (len(W_MASK) - len(Y_MASK)))]])
# From a cut-off y_lo > 0, edges y = 10^(k/2), k = -23 ... -1, resolve in one
# round an upper form that blows up as 1/y there, as the one-term erfc tail
# does; where that end carries nothing, the tail bounds clip the steps away
_LADDER = np.array([[[math.inf] * 23], [[10.0 ** (k / 2.0) for k in range(-23, 0)]]])
_LADDER_MASK = np.concatenate([PLAN_MASK, np.zeros_like(_LADDER)], axis=2)


# the density's erfc factor as a pair: erfc(v) for v <= 0 below h_hat, and
# exp(v^2) erfc(v) for v >= 0 above it, its exp(-v^2) being folded into the
# Gaussian bump
EXACT_WEIGHT = (erfc, erfcx)


def flush_subnormal(x: float) -> float:
    """x, or 0.0 where |x| is below the smallest normal double: an average
    there has lost its relative precision, as the engine converges only to
    abs 1e-319."""
    return 0.0 if abs(x) < sys.float_info.min else x


# A tail of an entry's integral goes where a closed-form bound puts it below
# _TAIL_REL times a lower bound on the integral (see density_average's bound pass)
_TAIL_REL = 1e-14
_LOG_TAIL_REL = math.log(_TAIL_REL)
_LN2 = math.log(2.0)
_COND_MIN = np.array(1e-300)  # the least value the bounds read cond as
_INF = np.array(math.inf)  # 0-d, as numpy converts a Python float operand on every call


def density_average(fm: FadingModel, u, weight, cond, h_power: float = 0.0,
                    y_lo: float = 0.0):
    """The average of h^h_power cond(h, u) over the composite density, for
    each entry of u at once; cond decays on the h-scale 1 / u.

    weight is the density's erfc factor as a pair (lower form, upper form),
    EXACT_WEIGHT or an approximation of it, called only at the integrand's
    nodes: the bound pass takes the upper form at v to be at most 1, and at
    most 1 / (v sqrt(pi)) where v > 0, as erfcx is. The integral runs in
    y = ln(h / h_hat). Below h_hat it is taken against
    e^(log_amp + (g2 + h_power) y) times the lower form at y / sqrt(2 sig2);
    above it, against the Gaussian bump e^(-(y - y*)^2 / (2 sig2) + h_power y)
    times the upper form at y / sqrt(2 sig2). A cut-off y_lo > 0 drops the
    lower piece, whose form then sees no node, and starts the upper one at
    y_lo; a y_lo that is negative, infinite or nan raises ValueError. The
    pieces' fixed ends are -700 / (g2 + h_power) and, with s_hat = u h_hat,
    y_cut = ln(ARG_CUTOFF / s_hat), where exp(-(s_hat e^y)^2) underflows,
    capped at y* + 45 sigma. Where u > 0, cond is taken to be non-negative
    and monotone in h, and each piece ends sooner, where closed-form bounds
    put its tail below rel 1e-14 of the integral (the bound pass, below); an
    entry with u = 0, such as composite_expectation passes, keeps the fixed
    ends. An entry's initial panels are cut at the points of FadingModel.plan,
    anchored below h_hat at the conditional's peak w* and above it at
    y_c = -ln(s_hat), and from a cut-off also at the fixed edges _LADDER,
    which resolve an upper form that blows up as 1/y there. cond gets the
    gains as an array, finite also where e^y overflows, and u as a column.
    Every panel of every entry is integrated in one integrate_panels batch.

    Returns (values, errors): errors[i] is None, or the QuadratureError of
    entry i, whose value is then nan, and whose error estimate counts the
    bounds of the tails left out. A value below the smallest normal double
    is returned as 0, as flush_subnormal does.
    """
    # The bound pass first gives each entry its anchors, the lower piece's peak
    # -w* and the upper one's y_c, the ends its pieces are clipped to, in y,
    # and the bound of the tails beyond them. An entry with u = 0 keeps the
    # fixed ends [-w_end, 0] and [y_lo, y_up]. Any other entry's bounds read
    # cond, taken non-negative and monotone in h, at nine probe gains, in one
    # cond call for all entries: over a tail cond is at most c, the larger of
    # its values at the tail's two ends. The integrand is h^h_power cond times
    # the density's form.
    #
    # The integral is at least the larger of two panels' products of each
    # factor's minimum: [yl0, yl1] around the lower piece's peak, where the
    # lower form is at least 1, and [yu0, yu1] around the upper one's, where
    # the upper form is at least 2 / (sqrt(pi) (v + sqrt(v^2 + 2))), as erfcx
    # and its approximations are. A tail goes where its bound is below
    # _TAIL_REL times that floor:
    # - below h_hat, past w: 2 c e^(log_amp - rate w) / rate;
    # - above h_hat, past a start (yu1, y_c + 2 or y_c + 2.5): c times the
    #   upper form's envelope there times the bump's erfc tail, with
    #   erfc(x) <= e^(-x^2); a start below h_hat takes its whole tail, at most
    #   2 c e^log_amp / rate below h_hat and the whole bump above it, or none;
    # - above h_hat, below yu0: c times the bump at the cut times the upper
    #   form's integral there, at most its envelope or
    #   sqrt(2 sig2) / sqrt(pi) ln(y / y_lo).
    # Each tail left out adds its bound, at most _TAIL_REL times the floor, to
    # the entry's bound. cond is read as at least _COND_MIN, and as inf where
    # it is nan, which keeps every tail it bounds.
    if not 0.0 <= y_lo < inf:  # false for nan too
        raise ValueError(f"the cut-off y_lo must be >= 0 and finite, not {y_lo}")
    u = np.array(u, dtype=float)
    w_low, w_high = weight
    g2, sig2, h_hat, log_amp, y_star, sqrt2s, y_top = (
        fm.g2, fm.sigma2, fm.h_hat, fm.log_amp, fm.y_star, fm.sqrt2s, fm.y_top)
    # the lower piece decays as e^(rate y), rate > 0 (h_power = -1 comes with g2 > 1), to
    # e^-700 at its end; from a cut-off y_lo > 0 it is empty
    sigma, rate = sqrt(sig2), g2 + h_power
    w_end = 0.0 if y_lo > 0.0 else 700.0 / rate
    # w_peak = -ln t*: the lower piece peaks at w* = w_peak - y_c, or at 0 (see
    # W_LADDER). b = min(sigma, 1 / 2) is the half-width of the upper piece's
    # probe panel, and a that of the lower piece's, to either side of its peak
    w_peak, b, a = -0.5 * log(g2 / 2.0), min(sigma, 0.5), 1.0 / rate
    far = -w_end if w_end else y_lo  # the lower end of the lower piece, or of the upper one
    low_log = log_amp + log(2.0 / rate) - _LOG_TAIL_REL
    # the bump e^(-(y - y*)^2 / (2 sig2) + h_power y) is e^(k - (y - m)^2 / (2 sig2));
    # k_log is k - ln _TAIL_REL, and bump_log adds the log of its integral over
    # sigma, sqrt(pi / 2). The upper form is at most 1, and at most e^log_scale / y at y > 0:
    # log_env bounds its log on the upper piece, by 0 from h_hat and log_scale - ln y_lo above
    k_log = h_power * y_star + h_power * h_power * sig2 / 2.0 - _LOG_TAIL_REL
    bump_log = k_log + log(sigma * sqrt(math.pi / 2.0))
    m, s_sqrt2, inv_2sig2 = y_star + h_power * sig2, sigma * sqrt(2.0), 0.5 / sig2
    log_scale = log(sqrt2s / _SQRT_PI)
    log_env = log_scale - log(y_lo) if y_lo > 0.0 else 0.0
    mask, points = PLAN_MASK, fm.plan
    if y_lo > 0.0:
        mask, points = _LADDER_MASK, np.concatenate([points, _LADDER], axis=2)
    # a gain h_hat e^y is formed as (h_hat e^shift) e^(y - shift), as e^y overflows past
    # y = 709.78 where the gain does not; below y_top = 700, shift = 0 changes no bit
    shift = y_top - 700.0 if y_top > 700.0 else 0.0
    h_shift, minus_2sig2 = h_hat * exp(shift), -2.0 * sig2
    scale = g2 / 2.0 * h_hat**h_power
    anchors, lowers, uppers, tails = [], [], [], []  # pairs of each piece's ends, flat
    rows, probes, u_list = [], [], u.tolist()  # probes: each entry's nine, flat
    for x in u_list:
        s_hat = x * h_hat
        if 0.0 < s_hat < inf:
            y_c, y_up = -log(s_hat), log(ARG_CUTOFF / s_hat)
        else:
            y_c, y_up = (-800.0, -inf) if s_hat == inf else (800.0, inf)
        # the lower piece is probed on [yl0, yl1]: low, the log of that panel's width
        # times the density's least value on it, is its floor before cond's factor
        w_star = w_peak - y_c if w_peak > y_c else 0.0
        yl0 = -(w_star + a) if w_star + a < w_end else -w_end
        yl1 = a - w_star if w_star > a else 0.0
        low = log(yl1 - yl0) + log_amp + rate * yl0 if yl1 > yl0 else None
        anchors += -w_star, y_c
        y_up = y_lo if y_up < y_lo else y_top if y_top < y_up else y_up
        # above h_hat the integrand peaks at y*, or below it where cond falls off
        y_peak = y_star if y_star < y_c - 0.5 else y_c - 0.5
        yu0 = y_peak - b if y_peak - b > y_lo else y_lo
        yu1 = y_peak + b if y_peak + b < y_up else y_up
        y_2 = y_c + 2.0 if y_c + 2.0 < y_up else y_up
        y_3 = y_c + 2.5 if y_c + 2.5 < y_up else y_up
        rows.append((x > 0.0, y_up, low, yu0, yu1, y_2, y_3))
        probes += far, y_lo, yl0, yl1, yu0, yu1, y_2, y_3, y_up
    logs = rows  # read only where an entry is probed
    if any(u_list):
        y = np.fromiter(probes, float, len(probes)).reshape(len(u_list), 9) - shift
        h = h_shift * np.exp(y, out=y)
        values = np.maximum(cond(h, u[:, None]), _COND_MIN, out=h)  # cond may return a scalar
        logs = np.fmin(np.log(values, out=values), _INF, out=values).tolist()  # nan to inf
    for (probed, y_up, low, yu0, yu1, y_2, y_3), lc in zip(rows, logs):
        floor = -inf  # its log
        if probed:
            l_far, l_lo, l_l0, l_l1, l_u0, l_u1, l_2, l_3, l_up = lc
            if low is not None:
                floor = low + (l_l0 if l_l0 < l_l1 else l_l1)
            if yu1 > yu0:
                v, e0, e1 = yu1 / sqrt2s, yu0 - y_star, yu1 - y_star
                e0 = h_power * yu0 - e0 * e0 * inv_2sig2
                e1 = h_power * yu1 - e1 * e1 * inv_2sig2
                up = (log(2.0 * (yu1 - yu0) / (_SQRT_PI * (v + sqrt(v * v + 2.0))))
                      + (e0 if e0 < e1 else e1) + (l_u0 if l_u0 < l_u1 else l_u1))
                floor = up if up > floor else floor
        w_top, w_bot, y_bot, top, cuts = 0.0, w_end, y_lo, y_up, 0
        if -inf < floor < inf:  # else the entry keeps its fixed ends
            c = l_far if l_far > l_lo else l_lo
            if w_end > 0.0 and c < inf:
                w = (low_log + c - floor) / rate
                if w < w_end:
                    w_bot, cuts = (w if w > 0.0 else 0.0), 1
            for start, l_start in ((yu1, l_u1), (y_2, l_2), (y_3, l_3)):  # ascending
                if start >= top:
                    break
                c = l_start if l_start > l_up else l_up
                if not c < inf:
                    continue
                env = log_scale - log(start) if start > 0.0 else log_env
                r = c + (env if env < log_env else log_env) + bump_log - floor
                if start >= 0.0:
                    end = start if r <= -_LN2 else m if r <= 0.0 else m + s_sqrt2 * sqrt(r)
                    top = start if end < start else end if end < top else top
                elif (w_end > 0.0 and -start > w_top and low_log + c - floor <= -_LN2
                      and (y_up <= y_lo or r <= -2.0 * _LN2)):
                    top, w_top = y_lo, -start
            cuts += top < y_up
            c = l_lo if l_lo > l_u0 else l_u0
            if yu0 > y_lo and c < inf:
                foot = log_env + log(yu0 - y_lo)
                if y_lo > 0.0:
                    x = log_scale + log(log(yu0 / y_lo))
                    foot = x if x < foot else foot
                r = c + foot + k_log - floor
                bottom = yu0 if r <= 0.0 else m - s_sqrt2 * sqrt(r)
                if y_lo < bottom:
                    y_bot, cuts = (bottom if bottom < yu0 else yu0), cuts + 1
        lowers += -w_bot, y_bot
        uppers += -w_top, top
        tails.append(cuts * _TAIL_REL * exp(floor) if cuts else 0.0)
    # each piece's edges of each entry as one row, the lower piece first
    anchor, lower, upper = (np.array(x).reshape(len(u_list), 2).T[:, :, None]
                            for x in (anchors, lowers, uppers))
    edges = np.minimum(np.maximum(anchor * mask + points, lower), upper)
    edges.sort()
    keep = edges[..., 1:] > edges[..., :-1]
    lo, hi, owner = edges[..., :-1][keep], edges[..., 1:][keep], keep.nonzero()[1]

    def integrand(y, owner):
        # the panels below h_hat come first: the lower piece's are given first,
        # later rounds are in ascending order, and y = 0 is an edge, so no
        # centre is -0.0
        n = np.count_nonzero(np.signbit(y[:, 10]))
        low, high, out, v = y[:n], y[n:], np.empty(y.shape), y / sqrt2s
        np.multiply(np.exp(log_amp + rate * low), w_low(v[:n]), out=out[:n])
        bump = (high - y_star) ** 2 / minus_2sig2
        if h_power:
            bump += h_power * high
        np.multiply(np.exp(bump), w_high(v[n:]), out=out[n:])
        out *= cond(h_shift * np.exp(y - shift), u[owner][:, None])
        return out

    value, error, ok = quadrature.integrate_panels(integrand, lo, hi, owner, len(u))
    values, errors = [flush_subnormal(v * scale) for v in value.tolist()], [None] * len(u)
    # a converged entry fails too where its scale g2 / 2 h_hat^h_power overflows
    if not (all(ok.tolist()) and -inf < sum(values) < inf):
        for i, converged in enumerate(ok.tolist()):
            # the estimate counts the bound of the tails left out
            v, e = value.item(i) * scale, (error.item(i) + tails[i]) * scale
            if not math.isfinite(value.item(i) + error.item(i)):
                message = "integrand produced a non-finite value"
            elif not math.isfinite(v + e):
                message = f"the value overflows when scaled by g2 / 2 h_hat^{h_power:g}"
            elif not converged:
                message = "no convergence within the panel budget"
            else:
                continue
            errors[i] = quadrature.QuadratureError(message, value=v, error_estimate=e)
            values[i] = math.nan
    return values, errors


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
    or a scalar; it defaults to 1 (normalization). It need not be monotone:
    the entry's u = 0 keeps the engine's fixed ends -700 / g2 and
    y* + 45 sigma, without the tail bounds that read the conditional at the
    ends of its tails. Raises QuadratureError when the integral does not
    converge.
    """
    cond = (lambda h, u: 1.0) if func is None else (lambda h, u: func(h))
    return single_value(density_average(model, [0.0], EXACT_WEIGHT, cond))


def _moment_factors(model: FadingModel, order: int) -> tuple:
    """The factors of the composite gain's first or second moment. Each is a
    positive double, but on a link the model accepts their product can
    underflow to 0, so the SNRs sum their log10s."""
    g2 = model.g2
    if order == 1:
        return model.hg_hl, math.exp(-model.sigma2 / 2.0), model.kappa, g2 / (g2 + 1.0)
    if order == 2:
        return model.hg_hl, model.hg_hl
    raise ValueError("order must be 1 or 2")


def moment_composite(model: FadingModel, order: int) -> float:
    """Closed-form first or second moment of the composite gain."""
    return math.prod(_moment_factors(model, order))


# draws per block: sample_composite folds its uniforms into the gains, and a
# Monte Carlo batch draws and detects its noise, this many at a time, so each
# block's float64 temporaries take 128 KiB
BLOCK = 1 << 14


def sample_composite(model: FadingModel, rng: np.random.Generator, size=None, out=None):
    """Draw gains h_l h_g Ha Hp = h_l h_g kappa exp(sigma Z - sigma2 + ln(U)/gamma^2).

    Ha is log-normal with log-mean -sigma2. The radial displacement is Rayleigh
    by inverse CDF from one uniform U in (0, 1], so Hp = kappa U^(1/gamma^2).
    Z and U are the draws `lognormal` and `random` would make, in that order:
    all of Z, then U in blocks of BLOCK, which continue one stream. Beside the
    gains, only one block of uniforms is held. The same draws fill out, a
    caller-owned buffer (Monte Carlo's: one per worker, reused by every batch).
    """
    x = np.asarray(rng.standard_normal(size=size, out=out))
    x *= math.sqrt(model.sigma2)
    x += model.delta
    flat = x.reshape(-1)
    for s in range(0, flat.size, BLOCK):
        xb = flat[s:s + BLOCK]
        u = rng.random(size=xb.size)
        np.log(np.subtract(1.0, u, out=u), out=u)
        xb += np.divide(u, model.g2, out=u)
    np.exp(x, out=x)
    x *= model.hg_hl * model.kappa
    return x[()]


def mean_symbol_power_sq(modulation_order_m: int, p_watts: float) -> float:
    """E[X^2] over uniform M-PAM levels {j 2P/(M-1)}: 2 P^2 (2M-1) / (3(M-1))."""
    m = modulation_order_m
    return 2.0 * p_watts**2 * (2.0 * m - 1.0) / (3.0 * (m - 1.0))


def snr_electrical(op: OperatingPoint) -> float:
    """Average received electrical SNR in dB, eta^2 E[X^2] E[H^2] / sigma_n^2.

    It is summed as log10 terms, E[X^2] at 1 W and its P^2 as 2 log10 P, and
    E[H^2] factor by factor, so it stays finite where the product itself would
    overflow or underflow.
    """
    geo = op.geometry
    ex2_1w = mean_symbol_power_sq(op.modulation_order_m, 1.0)
    return 10.0 * (sum(map(math.log10, (ex2_1w, *_moment_factors(op.fading, 2))))
                   + 2.0 * (math.log10(geo.eta) + math.log10(op.transmit_power_p)
                            - math.log10(geo.noise_sigma_n)))


def snr_optical(op: OperatingPoint) -> float:
    """Average received optical SNR in dB: detector signal photocurrent over
    the noise standard deviation (an amplitude-like ratio, reported as
    10 log10 of the ratio itself). It is summed as log10 terms, E[H] factor by
    factor, as snr_electrical is, so it stays finite where the ratio or E[H]
    would underflow."""
    geo = op.geometry
    factors = (geo.eta, op.transmit_power_p, *_moment_factors(op.fading, 1))
    return 10.0 * (sum(map(math.log10, factors)) - math.log10(geo.noise_sigma_n))
