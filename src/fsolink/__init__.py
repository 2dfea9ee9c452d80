"""Average BER/SER computation for M-PAM IM/DD free-space optical links under
weak log-normal turbulence, Rayleigh pointing jitter, geometric spread, and
atmospheric attenuation, with a symbol-level Monte Carlo oracle."""

from .channel import (FadingModel, LinkGeometry, OperatingPoint,
                      beer_lambert_loss, composite_expectation, dbm_to_watts,
                      moment_composite, pdf_composite, pdf_pointing,
                      pdf_turbulence, rytov_variance, sample_composite,
                      snr_electrical, snr_optical, watts_to_dbm)
from .errorrates import (ErrorRateCurve, NoCrossingError,
                         avg_ber_mpam, avg_ber_ook_approx_piecewise,
                         avg_ber_ook_approx_simple, avg_ber_ook_exact,
                         avg_ser_approx, avg_ser_dense,
                         avg_ser_dense_highpower, avg_ser_exact,
                         conditional_ber_approx, conditional_ber_exact,
                         conditional_ber_ook, conditional_ser_pam,
                         crossing_power, delta_gap,
                         power_increase_for_next_bit, sweep_curve)
from .montecarlo import (McConfig, McEstimate, brgc_decode, brgc_encode,
                         ml_detect, simulate)
from .quadrature import BracketError, QuadratureError, find_crossing, integrate
from .specfun import erfc, erfc_piecewise_approx, erfc_simple_tail, q_function

__version__ = "0.1.0"
