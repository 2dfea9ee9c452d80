import math

import numpy as np
import pytest
from scipy import special

from fsolink import specfun
from fsolink.specfun import (erfc, erfc_piecewise_negative, erfc_piecewise_positive,
                             erfc_simple_tail, erfcx_piecewise_approx)
from support import run_python


def test_erfc_matches_reference_scalar():
    for z in (-3.0, -0.5, 0.0, 0.7, 2.5, 8.0):
        assert erfc(z) == pytest.approx(special.erfc(z), rel=1e-15)


def test_erfc_array_input():
    z = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(erfc(z), special.erfc(z), rtol=1e-15)


# each function of specfun with its arguments before the one varied, and the
# grid of that argument on the function's own domain: erfc and erfcx over
# 3.0, 10.0, 26.9 and the band 26.64-27.3 where scipy's erfc reaches 0 and
# libm's has subnormals
_REAL = np.concatenate([[3.0, 10.0, 26.9], np.linspace(-6.0, 30.0, 145),
                        np.linspace(26.64, 27.3, 67)])
_POSITIVE = _REAL[_REAL > 0.0]
_DOMAINS = [
    (specfun.erfc, (), _REAL),
    (specfun.erfcx, (), _REAL),
    (specfun.erfc_piecewise_positive, (), np.append(_POSITIVE, 0.0)),
    (specfun.erfcx_piecewise_approx, (), np.append(_POSITIVE, 0.0)),
    (specfun.erfc_piecewise_negative, (), np.append(-_POSITIVE, 0.0)),
    (specfun.erfc_simple_tail, (), _POSITIVE),
    (specfun.erfcx_simple_tail, (), _POSITIVE),
    (specfun.hyp1f1, (1.0, 3.5), _POSITIVE),
    (specfun.gammainc, (0.5,), _POSITIVE),
    (specfun.gammaincc, (0.5,), _POSITIVE),
    (specfun.gammaln, (), _POSITIVE),
]


@pytest.mark.parametrize("func, args, grid", _DOMAINS, ids=[f.__name__ for f, _, _ in _DOMAINS])
def test_scalar_and_array_inputs_take_one_path(func, args, grid):
    """A scalar gives the bits its one-element array gives, as a numpy.float64."""
    for x in grid.tolist():
        scalar = func(*args, x)
        assert np.float64(scalar).tobytes() == func(*args, np.array([x]))[0].tobytes(), x
        assert type(scalar) is np.float64, (x, type(scalar))


def test_piecewise_approx_branches_continuous_at_zero():
    # the z >= 0 and z < 0 branches of the two-branch approximation meet at 1
    assert erfc_piecewise_positive(0.0) == pytest.approx(1.0, abs=1e-15)
    assert erfc_piecewise_negative(0.0) == pytest.approx(1.0, abs=1e-15)
    eps = 1e-12
    assert erfc_piecewise_positive(eps) == pytest.approx(1.0, abs=1e-9)
    assert erfc_piecewise_negative(-eps) == pytest.approx(1.0, abs=1e-9)


def test_piecewise_approx_positive_branch_value():
    # (2/sqrt(pi)) exp(-z^2) / (z + sqrt(z^2 + 4/pi))
    z = 1.7
    expect = (2.0 / math.sqrt(math.pi)) * math.exp(-z * z) / (
        z + math.sqrt(z * z + 4.0 / math.pi))
    assert erfc_piecewise_positive(z) == pytest.approx(expect, rel=1e-14)
    # it is exp(-z^2) times erfcx_piecewise_approx, with the operations of the
    # formula written out, so the same bits
    z = np.concatenate([[0.0], np.logspace(-8.0, 2.0, 201)])
    z2 = z * z
    written = np.exp(-z2) * (2.0 / math.sqrt(math.pi) / (z + np.sqrt(z2 + 4.0 / math.pi)))
    assert np.array_equal(erfc_piecewise_positive(z), written)
    assert np.array_equal(np.exp(-z * z) * erfcx_piecewise_approx(z), written)


def test_piecewise_approx_negative_branch_value():
    z = -1.3
    x = math.exp(-2.0 * math.pi * z / math.sqrt(6.0))
    expect = 1.0 + (x - 1.0) / (x + 1.0)
    assert erfc_piecewise_negative(z) == pytest.approx(expect, rel=1e-14)


def test_piecewise_approx_tails():
    # asymptotically tight in both directions
    assert erfc_piecewise_positive(6.0) == pytest.approx(special.erfc(6.0), rel=0.05)
    assert erfc_piecewise_negative(-8.0) == pytest.approx(2.0, abs=1e-8)
    # overflow-safe for very negative arguments
    assert erfc_piecewise_negative(-1e6) == pytest.approx(2.0)


def test_piecewise_approx_moderate_accuracy():
    z = np.linspace(0.5, 5.0, 50)
    ratio = erfc_piecewise_positive(z) / special.erfc(z)
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
    for branch in (erfc_piecewise_positive, erfc_piecewise_negative):
        out = branch(z)
        assert out.shape == z.shape
        assert out[0, 0] == pytest.approx(branch(-1.0))
        assert out[1, 0] == pytest.approx(branch(2.0))


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
assert channel.EXACT_WEIGHT[0] is specfun.erfc is scipy.special.erfc
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
