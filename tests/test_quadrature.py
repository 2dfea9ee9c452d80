import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink import quadrature
from fsolink.quadrature import QuadratureError, find_crossing, integrate

# (integrand, lo, hi, exact value) — a varied battery for checking that the
# reported error estimate actually bounds the true error
_KNOWN_INTEGRALS = [
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: math.sin(x), 0.0, math.pi, 2.0),
    (lambda x: math.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: math.exp(-x * x), 0.0, math.inf, math.sqrt(math.pi) / 2),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, math.pi / 2),
    (lambda x: x * math.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: x**4 * math.exp(-x), 0.0, math.inf, 24.0),
    (lambda x: math.log(x), 0.0, 1.0, -1.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: math.cos(10.0 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
    (lambda x: math.exp(-abs(x - 0.3)), 0.0, 1.0, 2.0 - math.exp(-0.3) - math.exp(-0.7)),
    (lambda x: x**7, 0.0, 2.0, 32.0),
    (lambda x: math.exp(-x) * math.sin(x), 0.0, math.inf, 0.5),
    (lambda x: 1.0 / (1.0 + x)**2, 0.0, math.inf, 1.0),
    (lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), 0.0, math.inf, 0.5),
    (lambda x: x * math.log(x), 0.0, 1.0, -0.25),
    (lambda x: math.sqrt(x), 0.0, 4.0, 16.0 / 3.0),
    (lambda x: math.exp(-x * x) * x * x, 0.0, math.inf, math.sqrt(math.pi) / 4),
    (lambda x: 1.0 / (x * x), 1.0, math.inf, 1.0),
    (lambda x: math.sin(x) / x if x else 1.0, 0.0, 1.0, 0.9460830703671831),
]


@pytest.mark.parametrize("f,lo,hi,exact", _KNOWN_INTEGRALS)
def test_known_integrals_within_reported_error(f, lo, hi, exact):
    value, err = integrate(f, lo, hi)
    assert value == pytest.approx(exact, rel=1e-8, abs=1e-12)
    assert abs(value - exact) <= max(err * 10.0, 1e-12)


def test_split_points_land_on_panel_edges():
    # a kink at 0.3 is resolved exactly when declared as a split point
    f = lambda x: abs(x - 0.3)
    value, _ = integrate(f, 0.0, 1.0, (0.3,))
    assert value == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-12)


def test_split_points_outside_interval_ignored():
    value, _ = integrate(lambda x: x, 0.0, 1.0, (-5.0, 0.5, 99.0))
    assert value == pytest.approx(0.5, rel=1e-12)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: math.nan, 0.0, 1.0)


def test_nan_value_without_a_quadpack_message_raises(monkeypatch):
    # QUADPACK reports its own failures, nearly always also for a NaN
    # integrand; a NaN or an infinity it returns as converged still raises
    import scipy.integrate
    for bad in (math.nan, math.inf, -math.inf):
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *args, **kwargs: (bad, 0.0, {"neval": 21}))
        with pytest.raises(QuadratureError, match="integrand produced a non-finite value") \
                as exc_info:
            integrate(lambda x: x, 0.0, 1.0)
        value = exc_info.value.value
        assert value == bad or math.isnan(bad) and math.isnan(value), bad
        assert exc_info.value.error_estimate == 0.0
    monkeypatch.undo()
    # and QUADPACK itself returns an infinite integrand's integral unflagged
    with pytest.raises(QuadratureError, match="integrand produced a non-finite value"):
        integrate(lambda x: math.inf, 0.0, 1.0)


def test_nonconvergence_raises_with_estimate():
    # oscillating too fast for the 2,000 subdivisions
    with pytest.raises(QuadratureError, match=r"maximum number of subdivisions \(2000\)") \
            as exc_info:
        integrate(lambda x: math.sin(1000.0 * x * x), 0.0, 30.0)
    error = exc_info.value
    assert math.isfinite(error.value)
    assert math.isfinite(error.error_estimate) and error.error_estimate > 0.0


def test_find_crossing_monotone():
    x = find_crossing(lambda t: t * t, 2.0, 0.0, 3.0, tol=1e-10)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_find_crossing_endpoint_hits():
    assert find_crossing(lambda t: t, 0.0, 0.0, 1.0) == 0.0
    assert find_crossing(lambda t: t, 1.0, 0.0, 1.0) == 1.0


def test_find_crossing_bracket_error():
    with pytest.raises(ValueError, match="target 5.0 not bracketed on"):
        find_crossing(lambda t: t, 5.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="lo must be < hi"):
        find_crossing(lambda t: t, 0.5, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):  # a non-finite endpoint value
        with pytest.raises(ValueError, match="are not finite"):
            find_crossing(lambda t: bad if t == 0.0 else t, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="are not finite"):
            find_crossing(lambda t: bad if t == 1.0 else t, 0.5, 0.0, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_find_crossing_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        find_crossing(lambda t: t, 0.5, 0.0, 1.0, tol=tol)


def test_find_crossing_evaluates_each_endpoint_once():
    xs = []

    def curve(t):
        xs.append(t)
        return math.exp(t)

    find_crossing(curve, 2.0, 0.0, 3.0, tol=1e-12)
    assert xs[:2] == [0.0, 3.0]
    assert xs.count(0.0) == 1 and xs.count(3.0) == 1


def test_find_crossing_nonconvergence_raises():
    # a step at 0 is bisected, and 100 halvings of [-1, 2] stay far above 1e-300
    with pytest.raises(QuadratureError) as exc_info:
        find_crossing(lambda t: 1.0 if t > 0.0 else -1.0, 0.0, -1.0, 2.0, tol=1e-300)
    assert isinstance(exc_info.value, RuntimeError)
    assert abs(exc_info.value.value) < 1e-25


# (function, lo, hi, xtol): smooth, flat, steep, stepped and non-converging cases
_BRENT_CASES = [
    (lambda x: x**3 - 2.0, 0.0, 3.0, 1e-12),
    (lambda x: x**3 - 2.0, -1.0, 5.0, 1e-4),
    (lambda x: math.tanh(5.0 * (x - 0.3)), -4.0, 2.0, 1e-8),
    (lambda x: math.exp(x) - 10.0, -3.0, 7.0, 1e-5),
    (lambda x: (x - 0.7) ** 5, -2.0, 1.0, 1e-14),
    (lambda x: (x - 0.7) ** 5, -2.0, 1.0, 1e-200),
    (lambda x: math.atan(x - 1.5) + 1e-3 * (x - 1.5) ** 3, -3.0, 4.0, 1e-10),
    (lambda x: math.sin(x) - 0.2, -1.5, 1.5, 2e-12),
    (lambda x: 1.0 if x > 0.1 else -1.0, -1.0, 2.0, 1e-6),
    (lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 2.0, 1e-300),
    (lambda x: math.log10(x) + 3.0, 1e-6, 1.0, 1e-5),
]


@pytest.mark.parametrize("f,lo,hi,xtol", _BRENT_CASES)
def test_brentq_matches_scipy_bit_for_bit(f, lo, hi, xtol):
    from scipy.optimize import brentq

    expected, result = brentq(f, lo, hi, xtol=xtol, full_output=True, disp=False)
    try:
        root = find_crossing(f, 0.0, lo, hi, tol=xtol)
        converged = True
    except QuadratureError as exc:
        root, converged = exc.value, False
    assert converged == result.converged
    assert root == expected


def test_brentq_lanes_match_scipy_bit_for_bit():
    # every case is a lane of one solve, each round one call for all
    # unfinished lanes; the non-converging lane fails alone
    from scipy.optimize import brentq

    rounds = []

    def f(lanes, xs):
        rounds.append(lanes)
        return [_BRENT_CASES[i][0](x) for i, x in zip(lanes, xs)], [None] * len(lanes)

    lanes = [quadrature.brent_steps(lo, hi, g(lo), g(hi), xtol)
             for g, lo, hi, xtol in _BRENT_CASES]
    roots, errors = quadrature.run_lanes(f, lanes)
    calls, converged = [], []
    for (g, lo, hi, xtol), root, error in zip(_BRENT_CASES, roots, errors):
        expected, result = brentq(g, lo, hi, xtol=xtol, full_output=True, disp=False)
        calls.append(result.function_calls - 2)  # scipy counts both endpoints
        converged.append(result.converged)
        if result.converged:
            assert error is None and root == expected
        else:
            assert isinstance(error, QuadratureError) and math.isnan(root)
            assert error.value == expected  # its last iterate
    assert any(converged) and not all(converged)
    # round k evaluates exactly the lanes that take more than k steps
    assert rounds == [[i for i, c in enumerate(calls) if c > k] for k in range(max(calls))]


def test_brentq_lanes_fail_alone():
    # a lane whose function reports an error, or is not finite at an iterate,
    # stops alone; the others keep the roots of their own solves
    from scipy.optimize import brentq

    def f(lanes, xs):
        values, errors = [], []
        for i, x in zip(lanes, xs):
            values.append(-math.inf if i == 1 and x > 1.2 else x * x - 2.0)
            errors.append(RuntimeError("lane 2 fails") if i == 2 else None)
        return values, errors

    roots, errors = quadrature.run_lanes(
        f, [quadrature.brent_steps(0.0, 3.0, -2.0, 7.0, 1e-12) for _ in range(4)])
    alone = brentq(lambda x: x * x - 2.0, 0.0, 3.0, xtol=1e-12)
    assert roots[0] == roots[3] == alone
    assert isinstance(errors[1], QuadratureError) and "not finite" in str(errors[1])
    assert str(errors[2]) == "lane 2 fails"
    assert math.isnan(roots[1]) and math.isnan(roots[2])
    assert errors[0] is None and errors[3] is None


def test_run_lanes_mix_lanes_and_keep_their_errors():
    # lanes of any kind share the rounds: a lane that catches a thrown error
    # goes on, one that lets it through or raises a QuadratureError of its own
    # fails alone with it, and the rest keep their roots
    from scipy.optimize import brentq

    def catching():
        total = 0.0
        for x in (1.0, 2.0, 3.0):
            try:
                total += yield x
            except RuntimeError:
                total += 100.0
        return total

    def passing():
        yield 1.0
        yield 2.0
        return 0.0

    def raising():
        yield 1.0
        raise QuadratureError("lane 3 fails")

    rounds = []

    def f(ids, xs):
        rounds.append(ids)
        return [x * x - 2.0 for x in xs], [RuntimeError(f"at {x}") if x == 2.0 else None
                                           for x in xs]

    lanes = [quadrature.brent_steps(0.0, 3.0, -2.0, 7.0, 1e-12), catching(), passing(), raising()]
    roots, errors = quadrature.run_lanes(f, lanes)
    assert roots[0] == brentq(lambda x: x * x - 2.0, 0.0, 3.0, xtol=1e-12)
    assert roots[1] == -1.0 + 100.0 + 7.0 and errors[:2] == [None, None]
    assert str(errors[2]) == "at 2.0" and isinstance(errors[2], RuntimeError)
    assert str(errors[3]) == "lane 3 fails" and isinstance(errors[3], QuadratureError)
    assert math.isnan(roots[2]) and math.isnan(roots[3])
    assert rounds[:3] == [[0, 1, 2, 3], [0, 1, 2], [0, 1]]
    assert all(ids == [0] for ids in rounds[3:])

    # an exception f did not report, such as a lane's own bug, is not a
    # lane's failure: it leaves the driver
    def buggy():
        yield 1.0
        raise TypeError("a bug")

    with pytest.raises(TypeError, match="a bug"):
        quadrature.run_lanes(lambda ids, xs: (list(xs), [None] * len(xs)),
                             [quadrature.brent_steps(0.0, 3.0, -2.0, 7.0, 1e-12), buggy()])


def test_split_points_with_an_infinite_end_raise():
    # the split points are QUADPACK's qagp breakpoints, which need finite ends;
    # points outside the interval are dropped before, so they do not raise
    with pytest.raises(ValueError, match="break points"):
        integrate(lambda x: math.exp(-x), 0.0, math.inf, (1.0, 2.0))
    value, _ = integrate(lambda x: math.exp(-x), 0.0, math.inf, (-1.0,))
    assert value == pytest.approx(1.0, rel=1e-10)


# (integrand on an array of nodes, lo, hi, initial panels) for one
# integrate_panels batch that mixes every way an integral ends
_FLAT_CASES = [
    (np.sqrt, 0.0, 1.0, 1),  # the derivative is singular at 0: many rounds
    (lambda x: x * x, 0.0, 1.0, 1),  # exact in round 1
    (lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, 4),  # not finite
    (lambda x: (1e7 * x) % 1.0, 0.0, 1.0, 1),  # never converges: over _MAX_PANELS
    (np.exp, -1.0, 2.0, 1500),  # with the others, over _CHUNK panels in round 1
]


def _integrate_cases(cases, engine=None):
    """Integrate each of cases as one integral of one integrate_panels batch,
    counting the panels of each _gk21 call in rounds."""
    engine = engine or quadrature.integrate_panels
    lo, hi, owner = [], [], []
    for i, (_, a, b, n) in enumerate(cases):
        edges = np.linspace(a, b, n + 1)
        lo += edges[:-1].tolist()
        hi += edges[1:].tolist()
        owner += [i] * n

    def f(x, owner):
        out = np.empty_like(x)
        for i, (g, *_) in enumerate(cases):
            rows = owner == i
            out[rows] = g(x[rows])
        return out

    return engine(f, lo, hi, owner, len(cases))


def _stacked_integrate_panels(f, lo, hi, owner, n_owners):
    """The reference engine: panels stacked as one 4 x n array and one owner
    array per round, each round evaluated in chunks of _CHUNK panels."""
    def gk21(lo, hi, owner):
        value, error = np.empty(lo.size), np.empty(lo.size)
        for s in range(0, lo.size, quadrature._CHUNK):
            a, b = lo[s:s + quadrature._CHUNK], hi[s:s + quadrature._CHUNK]
            half = 0.5 * (b - a)
            fx = f((0.5 * (a + b))[:, None] + half[:, None] * quadrature._NODES,
                   owner[s:s + quadrature._CHUNK])
            resk, resg = np.einsum("kj,ij->ik", quadrature._WEIGHTS, fx, order="F").T
            resabs = np.einsum("kj,j->k", np.abs(fx), quadrature._KRONROD)
            resasc = np.einsum("kj,j->k", np.abs(fx - 0.5 * resk[:, None]),
                               quadrature._KRONROD)
            err = np.abs(resk - resg)
            big = (resasc > 0.0) & (err > 0.0)
            err[big] = resasc[big] * np.minimum(1.0, (200.0 * err[big] / resasc[big]) ** 1.5)
            err = np.where(resabs > np.finfo(float).tiny / quadrature._ROUNDOFF,
                           np.maximum(quadrature._ROUNDOFF * resabs, err), err)
            value[s:s + quadrature._CHUNK] = half * resk
            error[s:s + quadrature._CHUNK] = half * err
        return value, error

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    value, error = np.zeros(n_owners), np.zeros(n_owners)
    ok = np.ones(n_owners, dtype=bool)
    kept, kept_owner = np.empty((4, 0)), np.empty(0, dtype=np.intp)
    while lo.size:
        panels = np.concatenate([kept, [lo, hi, *gk21(lo, hi, owner)]], axis=1)
        owner = np.concatenate([kept_owner, owner])
        val, err = panels[2], panels[3]
        count = np.bincount(owner, minlength=n_owners)
        total = np.bincount(owner, val, n_owners)
        estimate = np.bincount(owner, err, n_owners)
        ok[owner[~np.isfinite(val + err)]] = False
        tol = np.maximum(quadrature._ABS_TOL, quadrature._REL_TOL * np.abs(total))
        busy = ok & (estimate > tol)
        ok[busy & (count > quadrature._MAX_PANELS)] = False
        busy &= ok
        done = (count > 0) & ~busy
        value[done], error[done] = total[done], estimate[done]
        if not busy.any():
            return value, error, ok
        busy = busy[owner]
        cut = busy & (err * count[owner] > tol[owner])
        kept, kept_owner = panels[:, busy & ~cut], owner[busy & ~cut]
        edges = panels[0, cut] + (panels[1, cut] - panels[0, cut]) * quadrature._FRACTIONS
        lo, hi = edges[:-1].ravel(), edges[1:].ravel()
        owner = np.concatenate([owner[cut]] * quadrature._SPLIT)
    return value, error, ok


def test_flat_rounds_bit_for_bit(monkeypatch):
    # each integral of a mixed batch gets the (value, error, ok) of its own
    # one-entry call, and the whole batch that of the stacked reference engine
    rounds = []
    gk21 = quadrature._gk21

    def counting(f, lo, hi, owner):
        rounds.append(lo.size)
        return gk21(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    batch = _integrate_cases(_FLAT_CASES)
    assert max(rounds) > quadrature._CHUNK
    assert batch[2].tolist() == [True, True, False, False, True]
    for i, case in enumerate(_FLAT_CASES):
        rounds.clear()
        alone = _integrate_cases([case])
        # exact equality, nan equal to nan
        np.testing.assert_array_equal([r[i] for r in batch], [r[0] for r in alone])
        assert len(rounds) >= 3 if i in (0, 3) else len(rounds) == 1
    reference = _integrate_cases(_FLAT_CASES, _stacked_integrate_panels)
    for got, expected in zip(batch, reference):
        np.testing.assert_array_equal(got, expected)
    assert batch[0][1] == 1.0 / 3.0 and batch[0][4] == pytest.approx(math.e**2 - 1.0 / math.e)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_gk21_panels_batch_invariant(n, seed):
    # panel i's integrand is scale[i] (x - c[i]) (x - d[i]) above cut[i] and 0
    # below it, scale[i] 0 or of magnitude 1e-300 to 1e300: exactly rounded
    # arithmetic, whose values do not depend on the batch either
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, n)
    hi = lo + rng.uniform(0.0, 1.0, n)
    scale = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    scale[rng.random(n) < 0.1] = 0.0
    c, d, cut = rng.uniform(-1.0, 2.0, (3, n))

    def f(x, owner):
        s, c_, d_, cut_ = (a[owner][:, None] for a in (scale, c, d, cut))
        return np.where(x > cut_, s * (x - c_) * (x - d_), 0.0)

    owner = np.arange(n)  # every panel its own integral
    batch = np.stack(quadrature._gk21(f, lo, hi, owner))
    alone = np.hstack([quadrature._gk21(f, lo[i:i + 1], hi[i:i + 1], owner[i:i + 1])
                       for i in range(n)])
    np.testing.assert_array_equal(batch, alone)


def test_integrate_panels_without_panels_returns_float_zeros():
    def f(x, owner):
        raise AssertionError("no panel to evaluate")

    value, error, ok = quadrature.integrate_panels(f, [], [], [], 3)
    for zeros in (value, error):
        assert zeros.dtype == np.float64
        np.testing.assert_array_equal(zeros, [0.0, 0.0, 0.0])
    assert ok.tolist() == [True, True, True]
