"""Shared constants and helpers for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import fsolink
from fsolink import errorrates, specfun
from fsolink.channel import FadingModel, LinkGeometry, OperatingPoint, dbm_to_watts
from fsolink.quadrature import QuadratureError

# default link budget used throughout the headline results
GEOMETRY_KW = dict(
    wavelength=1550e-9,
    distance_z=3000.0,
    divergence_theta=1.32e-3,
    aperture_radius_a=0.05,
)

# the three headline (jitter sigma_s [m], Rytov variance) operating points,
# in the figure order pink / orange / green
HEADLINE_POINTS = [(0.35, 0.1), (0.25, 0.5), (0.2, 0.9)]

# the full nine-point grid of the expectation table
GRID_POINTS = [(s, r) for s in (0.35, 0.25, 0.2) for r in (0.1, 0.5, 0.9)]

HD_FEC_BER = 3.84e-3
SER_TARGET = 1e-3


def make_geometry(**overrides) -> LinkGeometry:
    kw = dict(GEOMETRY_KW)
    kw.update(overrides)
    return LinkGeometry(**kw)


def make_fading(sigma_s: float, rytov: float, geometry=None) -> FadingModel:
    geo = geometry if geometry is not None else make_geometry()
    return FadingModel(geo, rytov, sigma_s)


def make_op(sigma_s: float, rytov: float, m: int = 2, p_dbm: float = 0.0,
            geometry=None) -> OperatingPoint:
    fm = make_fading(sigma_s, rytov, geometry)
    return OperatingPoint(fm.geometry, fm, m, dbm_to_watts(p_dbm))


def q_function(z):
    """Gaussian tail probability Q(z) = erfc(z / sqrt(2)) / 2, of a scalar or an array."""
    return 0.5 * specfun.erfc(z / math.sqrt(2.0))


def conditional_ser_pam(m_order: int, a_snr: float) -> float:
    """SER of M-PAM at conditional amplitude SNR A: ((M-1)/M) erfc(A / (2 sqrt(2) (M-1)))."""
    return (m_order - 1) / m_order * math.erfc(a_snr / (2.0 * math.sqrt(2.0) * (m_order - 1)))


def conditional_ber_exact(m_order: int, a_snr: float) -> float:
    """Exact conditional BER of Gray-mapped M-PAM at conditional amplitude SNR A,
    the scalar reference of errorrates._gray_ber: its terms added one at a time,
    up to the first whose erfc argument is past errorrates._ERFC_ZERO."""
    terms = errorrates._gray_ber_terms(m_order)  # first: it raises for M = 1 too
    t, total = a_snr / (2.0 * math.sqrt(2.0) * (m_order - 1)), 0.0
    for c, k in zip(*(x.tolist() for x in terms)):
        if k * t > errorrates._ERFC_ZERO:
            break
        total += c * math.erfc(k * t)
    return total


def as_average(fake):
    """fake, a callable op -> value, as an average of fsolink.errorrates: a
    one-power call whose batch evaluates fake at each entry's power and order,
    an entry that raises QuadratureError or ValueError failing alone."""
    def batch(op, p_watts, orders):
        values, errors = [], []
        for p, m in zip(p_watts, orders):
            try:
                values.append(fake(op.with_power(p).with_modulation(m)))
                errors.append(None)
            except (QuadratureError, ValueError) as exc:
                values.append(math.nan)
                errors.append(exc)
        return values, errors

    def average(op):
        return fake(op)

    average.batch = batch
    return average


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fsolink."""
    src = str(Path(fsolink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
