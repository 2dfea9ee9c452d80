"""Symbol-level Monte Carlo oracle for M-PAM over the composite fading
channel: BRGC-mapped symbols, i.i.d. channel gains, AWGN, ML detection with
perfect channel knowledge, and SER/BER estimation with 95% confidence
intervals.

Each batch draws from its own SFC64 stream, child batch_index of
SeedSequence(seed), so a run is bit-identical for a fixed seed no matter how
many workers shard the batches. The stream holds a batch's symbol indices,
then its gains (each with one exp), then its noise; the batch reads each
block's symbols beside its noise, from a second copy of the stream. It runs
ml_detect, the nearest-level rule, at its lowest power only on symbols whose
noise can reach a midpoint, and at each higher power only on the symbols the
power below decided wrongly: a symbol decided as sent stays so as the power
rises.

Memory is bounded per worker: a run allocates one gains buffer (8 bytes a
symbol) per worker, once, on the calling thread, and each batch draws into one
it takes and puts back. Symbols, noise and detection go in blocks of BLOCK =
16,384 symbols (about 1.3 MiB), so a worker on 10^6-symbol batches peaks near
9 MiB. All the powers of simulate_powers share one set of draws: each block is
detected at every power before the next is drawn.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import BLOCK, OperatingPoint, power_error, sample_composite

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McConfig:
    n_symbols: int
    seed: int
    batch_size: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        for name in ("n_symbols", "seed", "batch_size", "workers"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    ser_hat: float
    ber_hat: float
    symbol_errors: int
    bit_errors: int
    n_symbols: int
    ci95_ser: float
    ci95_ber: float


def brgc_encode(j, m: int):
    """Binary reflected Gray codeword of symbol index j as m bits (MSB first)."""
    j_arr = np.asarray(j)
    if np.any(j_arr < 0) or np.any(j_arr >= 2**m):
        raise ValueError(f"symbol index out of range for m={m} bits")
    g = j_arr ^ (j_arr >> 1)
    bits = (g[..., np.newaxis] >> np.arange(m - 1, -1, -1)) & 1
    return bits


def brgc_decode(bits):
    """Inverse of brgc_encode: the bit vectors (MSB first) along the last axis
    back to symbol indices, an int for one vector and an int array otherwise."""
    bits = np.asarray(bits)
    m = bits.shape[-1]
    j = np.sum(bits * (1 << np.arange(m - 1, -1, -1)), axis=-1)
    shift = 1
    while shift < m:
        j ^= j >> shift
        shift <<= 1
    return int(j) if j.ndim == 0 else j


def ml_detect(t, m_order: int):
    """Nearest-level detection of t, the received sample in level spacings
    eta h 2P/(M-1): ceil(t - 1/2) clipped to 0..M-1, midpoint ties low."""
    return np.clip(np.ceil(t - 0.5), 0, m_order - 1).astype(np.int64)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The stream of one batch: child batch_index of SeedSequence(seed).spawn(...)."""
    seq = np.random.SeedSequence(seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _run_batch(op: OperatingPoint, p_watts, seed: int, batch_index: int, n: int,
               fixed_gain=None, gains=None):
    """Simulate one batch at each of the ascending powers p_watts on one set of
    draws; returns a list of (symbol_errors, bit_errors), one per power. The
    gains go to gains[:n] when a buffer is given, else to a new array."""
    rng = _batch_rng(seed, batch_index)
    m_order = op.modulation_order_m
    geo = op.geometry
    # the level spacing eta h 2P/(M-1) over sigma_n, per unit gain, at each power
    scales = [geo.eta * 2.0 * p / ((m_order - 1) * geo.noise_sigma_n) for p in p_watts]
    # the noise is r = (z/c)/h in level spacings, and q = |z|/h is |r| c to within three
    # roundings, 2^-51 relative. So a symbol with q < limit has |r| < 1/2 - M 2^-50 at the
    # lowest power: j + r - 1/2 lies M 2^-50 inside (j - 1, j), beyond the two roundings of
    # at most M 2^-53 each of the nearest-level rule, which decides j for it. Each rounding
    # of r, j + r and the rule is monotone in c, and r = 0 decides j, so a symbol decided as
    # sent at one power is at every higher one: a higher power detects only the errors of
    # the power below
    limit = (0.5 - m_order * 2.0**-50) * scales[0] * (1.0 - 1e-12)

    # integers(0, M) would draw the symbols first, from ceil(n/2) words: skip those
    words = _batch_rng(seed, batch_index).bit_generator  # and read each block's from a copy
    rng.bit_generator.random_raw((n + 1) // 2, output=False)
    if fixed_gain is not None:
        h = np.broadcast_to(np.asarray(fixed_gain, dtype=float), (n,))
    else:
        h = sample_composite(op.fading, rng, size=n, out=None if gains is None else gains[:n])

    counts = [(0, 0)] * len(scales)
    noise, screen = np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK))
    for s in range(0, n, BLOCK):
        z = rng.standard_normal(out=noise[:min(BLOCK, n - s)])
        hb, q = h[s:s + z.size], screen[:z.size]
        jb = words.random_raw((z.size + 1) // 2).astype("<u8", copy=False).view("<u4")[:z.size]
        with np.errstate(divide="ignore", over="ignore"):  # an underflowed gain: q, r = inf
            cand = np.flatnonzero(np.divide(np.abs(z, out=q), hb, out=q) >= limit)  # q >= limit
            jb[cand] >>= 32 - op.bits_per_symbol  # top b bits of each 32-bit half, low half first
            for k, c in enumerate(scales):
                if cand.size == 0:
                    break
                r = z[cand] / c
                r /= hb[cand]
                j_cand = jb[cand]
                j_hat = ml_detect(j_cand + r, m_order)
                d = np.bitwise_xor(j_hat, j_cand, out=j_hat)
                cand = cand[d != 0]  # this power's errors, the next power's candidates
                d ^= d >> 1  # the Gray words of sent and decided differ in these bits
                counts[k] = (counts[k][0] + cand.size,
                             counts[k][1] + int(np.bitwise_count(d).sum()))
    return counts


def _wilson_halfwidth(errors: int, n: int) -> float:
    z2 = _Z95 * _Z95
    p = errors / n
    return (_Z95 / (1.0 + z2 / n)) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def _ci95(errors: int, n: int) -> float:
    if errors < 20:
        return _wilson_halfwidth(errors, n)
    p = errors / n
    return _Z95 * math.sqrt(p * (1.0 - p) / n)


def simulate(op: OperatingPoint, mc: McConfig, fixed_gain=None) -> McEstimate:
    """Estimate SER and BER for the operating point by symbol-level simulation.

    fixed_gain freezes the channel at a deterministic gain (conditional-error
    validation); otherwise each symbol sees an i.i.d. composite fading draw.
    The counts are summed over the batches, so they do not depend on the
    worker count.
    """
    return simulate_powers(op, [op.transmit_power_p], mc, fixed_gain)[0]


def simulate_powers(op: OperatingPoint, p_watts, mc: McConfig,
                    fixed_gain=None) -> list[McEstimate]:
    """Estimate SER and BER at each transmit power of p_watts (W, in any order),
    one estimate per power, each equal to simulate's at that power.

    All powers share one set of draws: each block of a batch is drawn once and
    detected at every power, in ascending order, each power on the errors of
    the one below. Workers shard the batches, as in simulate.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: at import it cost every start 15 ms
    from queue import SimpleQueue  # and the queue, which no start imports either
    for p in p_watts:
        error = power_error(p)
        if error is not None:
            raise error
    order = sorted(range(len(p_watts)), key=lambda i: p_watts[i])
    ascending = [p_watts[i] for i in order]
    if not ascending:
        return []
    sizes = [min(mc.batch_size, mc.n_symbols - s) for s in range(0, mc.n_symbols, mc.batch_size)]
    buffers = SimpleQueue()  # the gains memory: one buffer per worker, allocated here once
    for _ in range(min(mc.workers, len(sizes))):
        buffers.put(None if fixed_gain is not None else np.empty(sizes[0]))
    def run(b, n):
        gains = buffers.get()
        try:
            return _run_batch(op, ascending, mc.seed, b, n, fixed_gain, gains)
        finally:
            buffers.put(gains)
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        counts = list(pool.map(run, range(len(sizes)), sizes))
    n_symbols, n_bits = mc.n_symbols, mc.n_symbols * op.bits_per_symbol
    estimates = [None] * len(order)
    for i, per_batch in zip(order, zip(*counts)):
        sym_total, bit_total = map(sum, zip(*per_batch))
        estimates[i] = McEstimate(
            ser_hat=sym_total / n_symbols,
            ber_hat=bit_total / n_bits,
            symbol_errors=sym_total,
            bit_errors=bit_total,
            n_symbols=n_symbols,
            ci95_ser=_ci95(sym_total, n_symbols),
            ci95_ber=_ci95(bit_total, n_bits),
        )
    return estimates
