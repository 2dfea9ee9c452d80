"""Average BER/SER computation for M-PAM IM/DD free-space optical links under
weak log-normal turbulence, Rayleigh pointing jitter, geometric spread, and
atmospheric attenuation, with a symbol-level Monte Carlo oracle."""

from .channel import (FadingModel, LinkGeometry, OperatingPoint,
                      composite_expectation, dbm_to_watts, moment_composite,
                      pdf_composite, pdf_pointing, pdf_turbulence,
                      sample_composite, snr_electrical, snr_optical)
from .errorrates import (ErrorRateCurve, NoCrossingError, avg_ber_exact,
                         avg_ber_ook_approx_piecewise,
                         avg_ber_ook_approx_simple, avg_ber_ook_exact,
                         avg_ser_approx, avg_ser_dense,
                         avg_ser_dense_highpower, avg_ser_exact,
                         crossing_power, delta_gap,
                         power_increase_for_next_bit, sweep_curve)
from .montecarlo import (McConfig, McEstimate, brgc_decode, brgc_encode,
                         ml_detect, simulate, simulate_powers)
from .quadrature import QuadratureError, find_crossing, integrate
from .specfun import erfc, erfc_simple_tail

__version__ = "0.1.0"
