import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fsolink import montecarlo
from fsolink.channel import BLOCK, dbm_to_watts
from fsolink.errorrates import avg_ber_exact, avg_ser_exact, crossing_power, sweep_curve
from fsolink.montecarlo import (McConfig, brgc_decode, brgc_encode, ml_detect,
                                simulate, simulate_powers)
from support import conditional_ser_pam, make_geometry, make_fading, make_op

PINK = (0.35, 0.1)


# ---------------------------------------------------------------------------
# Gray code

def test_brgc_two_bit_table():
    words = ["".join(map(str, brgc_encode(j, 2))) for j in range(4)]
    assert words == ["00", "01", "11", "10"]


def test_brgc_adjacent_hamming_distance_one():
    for m in range(1, 9):
        for j in range(2**m - 1):
            a = brgc_encode(j, m)
            b = brgc_encode(j + 1, m)
            assert int(np.sum(a != b)) == 1, (m, j)


def test_brgc_bijection_exhaustive():
    for m in range(1, 11):
        seen = set()
        for j in range(2**m):
            bits = brgc_encode(j, m)
            assert brgc_decode(bits) == j
            seen.add(tuple(int(b) for b in bits))
        assert len(seen) == 2**m


def test_brgc_rejects_out_of_range():
    with pytest.raises(ValueError):
        brgc_encode(4, 2)
    with pytest.raises(ValueError):
        brgc_encode(-1, 3)


def test_brgc_vectorized():
    bits = brgc_encode(np.arange(8), 3)
    assert bits.shape == (8, 3)
    assert brgc_decode(bits[5]) == 5
    assert type(brgc_decode(bits[5])) is int
    # each codeword of an array decodes alone: the sum over the last axis only
    for m in range(1, 11):
        j = np.arange(2**m)
        np.testing.assert_array_equal(brgc_decode(brgc_encode(j, m)), j)
    words = brgc_encode(np.arange(8).reshape(2, 4), 3)
    np.testing.assert_array_equal(brgc_decode(words), np.arange(8).reshape(2, 4))


# ---------------------------------------------------------------------------
# detection

def test_detect_exact_levels():
    # the received sample eta h j 2P/(M-1) over the level spacing eta h 2P/(M-1)
    m, p = 8, 2e-3
    eta_h = 3.7e-4
    spacing = 2.0 * p / (m - 1)
    for j in range(m):
        y = eta_h * j * spacing
        assert ml_detect(y / (eta_h * spacing), m) == j


def test_detect_midpoint_tie_breaks_low():
    m = 4
    assert ml_detect(1.5, m) == 1  # exactly between levels 1 and 2
    assert ml_detect(0.5, m) == 0 and ml_detect(2.5, m) == 2


def test_detect_clips_to_constellation():
    m, p = 4, 1e-3
    spacing = 2.0 * p / (m - 1)
    assert ml_detect(-1.0 / spacing, m) == 0
    assert ml_detect(1.0 / spacing, m) == m - 1


def test_detect_noiseless_loop():
    rng = np.random.default_rng(3)
    m, p = 16, 5e-3
    spacing = 2.0 * p / (m - 1)
    for _ in range(50):
        h = rng.lognormal(-0.1, 0.3)
        j = rng.integers(0, m)
        assert ml_detect(0.5 * h * j * spacing / (0.5 * h * spacing), m) == j
    # an array of samples is decided element by element
    np.testing.assert_array_equal(ml_detect(np.array([-0.7, 0.49, 7.5, 7.51, 20.0]), m),
                                  [0, 0, 7, 8, 15])


def _largest_z(q, h):
    """The largest double z with z / h <= q, each a positive double."""
    z = q * h
    while z / h > q:
        z = np.nextafter(z, 0.0)
    while np.nextafter(z, math.inf) / h <= q:
        z = np.nextafter(z, math.inf)
    return z


def test_symbols_below_the_detection_limit_are_decided_as_sent():
    # a batch detects only the symbols with q = |z|/h at or above its power's
    # limit, and counts the others as decided as sent: at q one ulp below the
    # limit and at it, for z of both signs, the full rule on r = (z/c)/h
    # decides the sent level
    geo = make_geometry()
    for m in (2, 4, 16, 1024):
        scales = [geo.eta * 2.0 * dbm_to_watts(p) / ((m - 1) * geo.noise_sigma_n)
                  for p in (-10.0, 0.0, 20.0, 50.0)]
        z, c, h, q = np.array([(s * _largest_z(q, h), c, h, q)
                               for c in scales
                               for limit in [(0.5 - m * 2.0**-50) * c * (1.0 - 1e-12)]
                               for q in (np.nextafter(limit, 0.0), limit)
                               for h in (1.0, 0.7, 1.3e-3)
                               for s in (1.0, -1.0)]).T
        assert (np.abs(z) / h <= q).all() and (np.abs(z) / h == q)[h == 1.0].all()
        r = z / c
        r /= h
        for j in sorted({0, m // 2, m - 1}):
            j_sent = np.full(r.size, j, dtype=np.int16)
            np.testing.assert_array_equal(ml_detect(j_sent + r, m), j_sent,
                                          err_msg=f"M={m} j={j}")


# ---------------------------------------------------------------------------
# simulation

def test_simulate_noiseless_zero_errors():
    geo = make_geometry(noise_sigma_n=1e-30)
    fm = make_fading(*PINK, geo)
    from fsolink.channel import OperatingPoint
    op = OperatingPoint(geo, fm, 8, 1e-3)
    est = simulate(op, McConfig(n_symbols=100_000, seed=11))
    assert est.ser_hat == 0.0
    assert est.bit_errors == 0


def test_simulate_vanishing_power_guess_rate():
    op = make_op(*PINK, 8, 0.0).with_power(1e-30)
    est = simulate(op, McConfig(n_symbols=300_000, seed=11))
    assert est.ser_hat == pytest.approx(7.0 / 8.0, abs=3.0 * est.ci95_ser / 1.96)


def test_simulate_deterministic_across_worker_counts():
    op = make_op(*PINK, 4, 4.0)
    base = McConfig(n_symbols=1_200_000, seed=99, batch_size=250_000, workers=1)
    est1 = simulate(op, base)
    est2 = simulate(op, McConfig(n_symbols=1_200_000, seed=99, batch_size=250_000,
                                 workers=4))
    est3 = simulate(op, McConfig(n_symbols=1_200_000, seed=99, batch_size=250_000,
                                 workers=7))
    assert est1 == est2 == est3


def test_simulate_seed_sensitivity():
    op = make_op(*PINK, 4, 4.0)
    est1 = simulate(op, McConfig(n_symbols=500_000, seed=1))
    est2 = simulate(op, McConfig(n_symbols=500_000, seed=2))
    assert est1.symbol_errors != est2.symbol_errors


@pytest.mark.parametrize("m, p_dbm", [(4, 0.0), (32, 10.0)])
def test_bit_error_rate_matches_exact_ber(m, p_dbm):
    # the exact Gray-mapped BER, and not SER / log2 M, is what the simulation
    # counts: at M = 4, 0 dBm SER / 2 is 3.6 % below it
    op = make_op(*PINK, m, p_dbm)
    ber, ser_over_bits = avg_ber_exact(op), avg_ser_exact(op) / op.bits_per_symbol
    assert ber >= 1e-3
    est = simulate(op, McConfig(n_symbols=1_000_000, seed=3))
    # a symbol's bit errors are correlated: bound the standard error of
    # ber_hat by that of log2 M bits all in error at once, sqrt(BER / n)
    se = math.sqrt(ber / est.n_symbols)
    assert abs(est.ber_hat - ber) < 5.0 * se
    assert abs(est.ber_hat - ser_over_bits) > 5.0 * se


def test_bit_symbol_error_bracket():
    op = make_op(*PINK, 16, 6.0)
    est = simulate(op, McConfig(n_symbols=1_000_000, seed=5))
    m = 4
    assert est.ber_hat <= est.ser_hat <= m * est.ber_hat + 1e-15
    assert est.symbol_errors <= est.n_symbols
    assert est.bit_errors <= m * est.n_symbols


def test_conditional_error_rate_frozen_channel():
    # freeze the gain and compare against the conditional SER formula
    op = make_op(*PINK, 4, 0.0)
    h = op.fading.h_hat
    a = 2.0 * op.transmit_power_p * op.geometry.eta * h / op.geometry.noise_sigma_n
    expect = conditional_ser_pam(4, a)
    est = simulate(op, McConfig(n_symbols=10_000_000, seed=17, workers=4),
                   fixed_gain=h)
    se = est.ci95_ser / 1.96
    assert abs(est.ser_hat - expect) < 3.0 * se


def test_simulate_matches_quadrature_at_crossing():
    op = make_op(*PINK, 4, 0.0)
    grid = [g * 2.0 for g in range(-5, 16)]
    pstar = crossing_power(sweep_curve(op, avg_ser_exact, grid), 1e-3)
    op2 = op.with_power(dbm_to_watts(pstar))
    est = simulate(op2, McConfig(n_symbols=10_000_000, seed=23, workers=4))
    se = est.ci95_ser / 1.96
    assert abs(est.ser_hat - 1e-3) < 3.0 * se


@pytest.mark.parametrize("sigma_s, rytov, m, p_dbm", [
    (5.0, 1e-4, 2, 80.0),     # gamma^2 = 0.039
    (3.0, 1.0, 4, 60.0),      # gamma^2 = 0.11
    (2.0, 1.0, 1024, 70.0),   # gamma^2 = 0.25
    (0.05, 1.0, 1024, 40.0),  # gamma^2 = 392
    (0.03, 1e-4, 16, 10.0),   # gamma^2 = 1090
])
def test_simulate_matches_exact_ser_off_grid(sigma_s, rytov, m, p_dbm):
    # far from the headline grid in gamma^2, turbulence and order, where the
    # exact SER lies in [1e-3, 0.3]
    op = make_op(sigma_s, rytov, m, p_dbm)
    exact = avg_ser_exact(op)
    assert 1e-3 <= exact <= 0.3
    est = simulate(op, McConfig(n_symbols=1_000_000, seed=41))
    assert abs(est.ser_hat - exact) < 5.0 * math.sqrt(exact * (1.0 - exact) / est.n_symbols)


def test_one_worker_runs_every_batch_on_one_thread_in_order(monkeypatch):
    # one batch at a time, so one batch's memory at a time
    calls = []
    run_batch = montecarlo._run_batch

    def recording(op, p_watts, seed, batch_index, n, fixed_gain=None, gains=None):
        calls.append((threading.get_ident(), batch_index))
        return run_batch(op, p_watts, seed, batch_index, n, fixed_gain, gains)

    monkeypatch.setattr(montecarlo, "_run_batch", recording)
    simulate(make_op(*PINK, 2, 0.0), McConfig(n_symbols=300_000, seed=31, batch_size=100_000))
    assert [b for _, b in calls] == [0, 1, 2]
    assert len({thread for thread, _ in calls}) == 1


def test_one_worker_draws_every_batch_into_one_buffer(monkeypatch):
    # the run allocates the gains memory once: with one worker, each of three
    # batches, the last one partial, draws into the same caller-owned buffer,
    # and counts what a batch drawing into a new array counts
    outs = []
    sample = montecarlo.sample_composite

    def recording(model, rng, size=None, out=None):
        outs.append(out)
        return sample(model, rng, size, out)

    monkeypatch.setattr(montecarlo, "sample_composite", recording)
    op = make_op(*PINK, 4, 0.0)
    est = simulate(op, McConfig(n_symbols=250_000, seed=31, batch_size=100_000))
    assert [out.size for out in outs] == [100_000, 100_000, 50_000]
    assert all(out.base is outs[0].base for out in outs) and outs[0].base.size == 100_000
    monkeypatch.undo()
    counts = [montecarlo._run_batch(op, [op.transmit_power_p], 31, b, n)[0]
              for b, n in enumerate((100_000, 100_000, 50_000))]
    assert (est.symbol_errors, est.bit_errors) == tuple(map(sum, zip(*counts)))


def test_concurrent_batches_never_share_a_buffer(monkeypatch):
    # more workers than cores, switching threads often: a running batch holds
    # its buffer alone, the run allocates one buffer per worker, and the counts
    # are one worker's
    lock, held, seen = threading.Lock(), set(), set()
    run_batch = montecarlo._run_batch

    def recording(op, p_watts, seed, batch_index, n, fixed_gain=None, gains=None):
        with lock:
            assert id(gains) not in held
            held.add(id(gains))
            seen.add(id(gains))
        try:
            return run_batch(op, p_watts, seed, batch_index, n, fixed_gain, gains)
        finally:
            with lock:
                held.discard(id(gains))

    op = make_op(*PINK, 4, 0.0)
    p_watts = [dbm_to_watts(p) for p in (-3.0, 0.0, 3.0)]
    one = simulate_powers(op, p_watts, McConfig(n_symbols=200_001, seed=5, batch_size=20_000))
    monkeypatch.setattr(montecarlo, "_run_batch", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = simulate_powers(op, p_watts, McConfig(n_symbols=200_001, seed=5,
                                                     batch_size=20_000, workers=4))
    finally:
        sys.setswitchinterval(interval)
    assert four == one
    assert len(seen) == 4 and not held


def test_early_stop_disabled_runs_full_n():
    op = make_op(*PINK, 2, -5.0)
    est = simulate(op, McConfig(n_symbols=400_000, seed=31, batch_size=100_000))
    assert est.n_symbols == 400_000


def test_ci_wilson_at_low_counts():
    # a run with very few errors still reports a usable positive half-width
    op = make_op(*PINK, 2, 4.0)
    est = simulate(op, McConfig(n_symbols=200_000, seed=2))
    assert est.ci95_ser > 0.0
    assert est.ci95_ber > 0.0


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(n_symbols=0, seed=1)
    with pytest.raises(ValueError):
        McConfig(n_symbols=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(n_symbols=10, seed=1, batch_size=0)
    with pytest.raises(ValueError):
        McConfig(n_symbols=10, seed=1, workers=0)
    # only integers as operator.index takes them, and no bool
    for kwargs in (dict(n_symbols=10.5, seed=1), dict(n_symbols=10, seed=1.5),
                   dict(n_symbols=10, seed=1, batch_size=2.5),
                   dict(n_symbols=10, seed=1, workers=2.0),
                   dict(n_symbols=True, seed=1), dict(n_symbols=10, seed=np.float64(1.0)),
                   dict(n_symbols=10, seed=False), dict(n_symbols="10", seed=1)):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**kwargs)
    assert McConfig(n_symbols=np.int64(10), seed=np.uint64(2**64 - 1)).n_symbols == 10


# ---------------------------------------------------------------------------
# the batch against its unfused form

def _unfused_batch(op, seed, batch_index, n, fixed_gain=None):
    """One batch as computed before the fused sampler and the screened
    detection: a log-normal gain times the inverse-CDF Rayleigh pointing gain,
    the received signal y, and y over the scaled spacing, decided for every
    symbol as ml_detect does."""
    rng = montecarlo._batch_rng(seed, batch_index)
    m, geo, fm = op.modulation_order_m, op.geometry, op.fading
    j_sent = rng.integers(0, m, size=n)
    if fixed_gain is not None:
        h = fixed_gain
    else:
        h_a = rng.lognormal(mean=fm.delta, sigma=math.sqrt(fm.sigma2), size=n)
        r_sq = -2.0 * fm.jitter_sigma_s**2 * np.log(1.0 - rng.random(size=n))
        h = fm.hg_hl * h_a * (fm.kappa * np.exp(-2.0 * r_sq / geo.wz_hat_sq))
    noise = rng.normal(0.0, geo.noise_sigma_n, size=n)
    spacing = 2.0 * op.transmit_power_p / (m - 1)
    y = geo.eta * h * (j_sent * spacing) + noise
    t = y / (geo.eta * h * 2.0 * op.transmit_power_p / (m - 1))
    j_hat = np.clip(np.ceil(t - 0.5), 0, m - 1).astype(np.int64)
    gray = (j_sent ^ (j_sent >> 1)) ^ (j_hat ^ (j_hat >> 1))
    return int(np.count_nonzero(j_hat != j_sent)), int(np.bitwise_count(gray).sum())


@pytest.mark.parametrize("sigma_s", [0.05, 0.35, 5.0])
def test_batch_counts_equal_unfused_batch(sigma_s):
    # the domain's corners in turbulence, order and power, at each jitter; an
    # odd count of symbols leaves the high half of its last word unread, in
    # the first block, either side of a block's end or in a partial last block
    for rytov, m, p_dbm in itertools.product((1e-4, 0.1, 1.0), (2, 16, 1024),
                                             (-30.0, 0.0, 20.0, 80.0)):
        op = make_op(sigma_s, rytov, m, p_dbm)
        for n in (1, BLOCK - 1, BLOCK + 1, 50_000, 50_001):
            assert (montecarlo._run_batch(op, [op.transmit_power_p], 13, 2, n)
                    == [_unfused_batch(op, 13, 2, n)]), (rytov, m, p_dbm, n)


def test_fixed_gain_batch_counts_equal_unfused_batch():
    op = make_op(*PINK, 4, 0.0)
    h = op.fading.h_hat
    (counts,) = montecarlo._run_batch(op, [op.transmit_power_p], 17, 0, 50_000, h)
    assert counts[0] > 0
    assert counts == _unfused_batch(op, 17, 0, 50_000, h)


# ---------------------------------------------------------------------------
# the seed-to-stream contract

@pytest.mark.parametrize("b", range(1, 11))
def test_integers_read_the_top_bits_of_each_half_word(b):
    # the contract a batch reads its symbols by: for M = 2^b, numpy's
    # integers(0, M) takes the top b bits of the 32-bit halves of the
    # stream's words, low half first, with no rejection, from exactly
    # ceil(n/2) words, so the draws after it start where they would
    for n in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        drawn, read = montecarlo._batch_rng(8, 3), montecarlo._batch_rng(8, 3)
        words = read.bit_generator.random_raw((n + 1) // 2)
        np.testing.assert_array_equal(
            drawn.integers(0, 2**b, size=n),
            words.astype("<u8", copy=False).view("<u4")[:n] >> (32 - b), err_msg=f"n={n}")
        np.testing.assert_array_equal(drawn.standard_normal(5), read.standard_normal(5),
                                      err_msg=f"n={n}")


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_batch_stream_is_the_spawned_child(seed):
    children = np.random.SeedSequence(seed).spawn(6)
    for b in (0, 1, 5):
        spawned = np.random.Generator(np.random.SFC64(children[b]))
        assert np.array_equal(montecarlo._batch_rng(seed, b).integers(0, 2**63, 8),
                              spawned.integers(0, 2**63, 8))


def test_batch_counts_known_answer():
    # pins the stream: a change to the generator, its seeding or the order of
    # the draws moves these counts
    op = make_op(*PINK, 4, 4.0)
    assert montecarlo._run_batch(op, [op.transmit_power_p], 1, 0, 100_000) == [(2859, 2860)]
    assert montecarlo._run_batch(op, [op.transmit_power_p], 1, 3, 100_000) == [(2848, 2855)]


# ---------------------------------------------------------------------------
# memory and the shared draws of simulate_powers

@pytest.mark.parametrize("m, p_dbm", [(2, -30.0), (1024, 20.0), (4, 4.0)])
def test_batch_memory_is_bounded(m, p_dbm):
    # a batch holds its gains whole, 8 bytes a symbol, and its symbols, noise
    # and detection per block: at -30 dBm (M = 2) and 20 dBm (M = 1024)
    # nearly every symbol's noise reaches a midpoint, so every block detects
    # nearly all of its symbols
    op = make_op(*PINK, m, p_dbm)
    montecarlo._run_batch(op, [op.transmit_power_p], 1, 0, 1_000)
    tracemalloc.start()
    try:
        montecarlo._run_batch(op, [op.transmit_power_p], 1, 0, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 2**20


@pytest.mark.parametrize("m", [2, 16, 1024])
@pytest.mark.parametrize("workers, fixed", [(1, False), (2, False), (2, True)])
def test_simulate_powers_equals_simulate_at_each_power(m, workers, fixed):
    # unsorted and duplicate powers over the accepted -30..80 dBm, and 40,001
    # symbols: batches of 17,000, 17,000 and 6,001, none a multiple of a block
    p_dbm = [10.0, -30.0, 80.0, 4.0, 10.0, 0.5, 25.0, -3.0, 4.0]
    op = make_op(*PINK, m, 0.0)
    mc = McConfig(n_symbols=40_001, seed=7, batch_size=17_000, workers=workers)
    h = op.fading.h_hat if fixed else None
    estimates = simulate_powers(op, [dbm_to_watts(p) for p in p_dbm], mc, h)
    assert estimates == [simulate(op.with_power(dbm_to_watts(p)), mc, h) for p in p_dbm]
    assert estimates[1].symbol_errors > 0  # the low powers see errors
    assert simulate_powers(op, [], mc) == []


def test_simulate_powers_equals_batches_at_each_power():
    # the shared draws count what the one-power batch counts, power by power,
    # on a grid as fine as the mc command's default
    op = make_op(*PINK, 16, 0.0)
    p_watts = [dbm_to_watts(-10.0 + 0.25 * i) for i in range(121)]
    shared = montecarlo._run_batch(op, p_watts, 5, 1, 70_000)
    assert shared == [montecarlo._run_batch(op, [p], 5, 1, 70_000)[0] for p in p_watts]


@pytest.mark.parametrize("m", [2, 16])
@pytest.mark.parametrize("fixed", [False, True])
def test_nested_error_sets_count_as_one_power_batches(m, fixed):
    # each power detects only the errors of the power below: at a repeated
    # power and at its neighbours one ulp apart, as at powers far apart, the
    # counts are those of a batch at that power alone
    op = make_op(*PINK, m, 0.0)
    h = op.fading.h_hat if fixed else None
    p_watts = [dbm_to_watts(-10.0)]
    for p in (dbm_to_watts(0.0), dbm_to_watts(8.0)):
        p_watts += [np.nextafter(p, 0.0), p, p, np.nextafter(p, math.inf)]
    p_watts += [dbm_to_watts(30.0)] * 2
    shared = montecarlo._run_batch(op, p_watts, 3, 0, 40_000, h)
    assert shared == [montecarlo._run_batch(op, [p], 3, 0, 40_000, h)[0] for p in p_watts]
    assert shared[1][0] > 0  # the lower cluster sees errors; at M = 2 the upper one none


def test_a_symbol_decided_as_sent_stays_so_as_the_power_rises():
    # noise within ulps of a midpoint, detected at scales one ulp apart: once
    # the rule decides the sent level, it decides it at every higher scale
    for m, c0, h in itertools.product((2, 16, 1024), (0.37, 2.9e3), (1.0, 0.7, 1.3e-3)):
        scales = [c0]
        for _ in range(40):
            scales.append(np.nextafter(scales[-1], math.inf))
        zs = [0.5 * c0 * h]  # and 30 ulps to either side, of both signs
        for _ in range(30):
            zs = [np.nextafter(zs[0], 0.0), *zs, np.nextafter(zs[-1], math.inf)]
        z = np.array(zs + [-x for x in zs])
        for j in sorted({0, 1, m // 2, m - 1}):
            j_sent = np.full(z.size, j, dtype=np.int16)
            right = np.array([ml_detect(j_sent + (z / c) / h, m) == j
                              for c in scales])
            assert (right[1:] >= right[:-1]).all(), (m, c0, h, j)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_simulate_powers_rejects_bad_powers(bad):
    op = make_op(*PINK, 4, 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        simulate_powers(op, [1e-3, bad], McConfig(n_symbols=10, seed=1))
