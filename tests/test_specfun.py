import math

import numpy as np
import pytest
from scipy import special

from fsolink.specfun import (erfc, erfc_piecewise_approx, erfc_simple_tail,
                             q_function)
from support import run_python


def test_erfc_matches_reference_scalar():
    for z in (-3.0, -0.5, 0.0, 0.7, 2.5, 8.0):
        assert erfc(z) == pytest.approx(special.erfc(z), rel=1e-15)


def test_erfc_array_input():
    z = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(erfc(z), special.erfc(z), rtol=1e-15)


def test_q_function_identity():
    # Q(z) = erfc(z / sqrt(2)) / 2
    for z in (-2.0, 0.0, 1.0, 3.5):
        assert q_function(z) == pytest.approx(0.5 * math.erfc(z / math.sqrt(2)))
    assert q_function(0.0) == pytest.approx(0.5)


def test_piecewise_approx_branches_continuous_at_zero():
    assert erfc_piecewise_approx(0.0) == pytest.approx(1.0, abs=1e-15)
    eps = 1e-12
    assert erfc_piecewise_approx(eps) == pytest.approx(1.0, abs=1e-9)
    assert erfc_piecewise_approx(-eps) == pytest.approx(1.0, abs=1e-9)


def test_piecewise_approx_positive_branch_value():
    # (2/sqrt(pi)) exp(-z^2) / (z + sqrt(z^2 + 4/pi))
    z = 1.7
    expect = (2.0 / math.sqrt(math.pi)) * math.exp(-z * z) / (
        z + math.sqrt(z * z + 4.0 / math.pi))
    assert erfc_piecewise_approx(z) == pytest.approx(expect, rel=1e-14)


def test_piecewise_approx_negative_branch_value():
    z = -1.3
    x = math.exp(-2.0 * math.pi * z / math.sqrt(6.0))
    expect = 1.0 + (x - 1.0) / (x + 1.0)
    assert erfc_piecewise_approx(z) == pytest.approx(expect, rel=1e-14)


def test_piecewise_approx_tails():
    # asymptotically tight in both directions
    assert erfc_piecewise_approx(6.0) == pytest.approx(special.erfc(6.0), rel=0.05)
    assert erfc_piecewise_approx(-8.0) == pytest.approx(2.0, abs=1e-8)
    # overflow-safe for very negative arguments
    assert erfc_piecewise_approx(-1e6) == pytest.approx(2.0)


def test_piecewise_approx_moderate_accuracy():
    z = np.linspace(0.5, 5.0, 50)
    ratio = erfc_piecewise_approx(z) / special.erfc(z)
    assert np.all(ratio > 0.9) and np.all(ratio < 1.2)


def test_simple_tail_value_and_asymptotics():
    z = 2.0
    assert erfc_simple_tail(z) == pytest.approx(
        math.exp(-z * z) / (z * math.sqrt(math.pi)), rel=1e-14)
    # ratio to true erfc tends to 1 for large z
    assert erfc_simple_tail(10.0) / special.erfc(10.0) == pytest.approx(1.0, rel=0.01)


def test_simple_tail_rejects_nonpositive():
    with pytest.raises(ValueError):
        erfc_simple_tail(0.0)
    with pytest.raises(ValueError):
        erfc_simple_tail(-1.0)
    with pytest.raises(ValueError):
        erfc_simple_tail(np.array([1.0, -0.5]))


def test_piecewise_approx_array_shape():
    z = np.array([[-1.0, 0.5], [2.0, -3.0]])
    out = erfc_piecewise_approx(z)
    assert out.shape == z.shape
    assert out[0, 0] == pytest.approx(erfc_piecewise_approx(-1.0))


@pytest.mark.parametrize("imports", ["import scipy.special; import fsolink",
                                     "import fsolink; import scipy.special, scipy.integrate"])
def test_specfun_shares_scipys_ufuncs_in_either_import_order(imports):
    """Whichever of scipy.special and fsolink loads first, specfun's erfc and
    erfcx are scipy's own ufuncs, and scipy.special is the real package."""
    code = f"""
{imports}
import sys
import numpy as np
import scipy.special
from fsolink import channel, specfun
assert channel.EXACT_WEIGHT[1] is specfun.erfcx is scipy.special.erfcx
z = np.linspace(-6.0, 30.0, 73)
assert np.array_equal(specfun.erfc(z), scipy.special.erfc(z))
assert sys.modules["scipy.special"] is scipy.special
assert scipy.special.__file__.endswith("__init__.py")
print("ok")
"""
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
