"""Shared constants and helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import fsolink
from fsolink.channel import FadingModel, LinkGeometry, OperatingPoint, dbm_to_watts

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


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fsolink."""
    src = str(Path(fsolink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
