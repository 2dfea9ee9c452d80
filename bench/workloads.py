"""The benchmark's workloads: seeded job lists of fsolink calls, each with the
check that decides whether its output is correct.

A workload is a list of `Op`s. `Op.run` is the timed call into the library;
`Op.check` runs untimed afterwards and returns None when the output is
correct, else a one-line reason. An op also fails when `run` raises. Inputs
come only from the seed; no input is filtered on whether the library
handles it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import fsolink.cli
from fsolink import channel, errorrates, montecarlo

# nine-point headline grid: jitter sigma_s [m] x Rytov variance
SIGMA_S = (0.2, 0.25, 0.35)
RYTOV = (0.1, 0.5, 0.9)

# default link geometry of the CLI and the test suite
GEOMETRY_KW = dict(wavelength=1550e-9, distance_z=3000.0,
                   divergence_theta=1.32e-3, aperture_radius_a=0.05)

POWER_STEP_M8_DB = 3.02      # acceptance criterion 8
POWER_STEP_M8_TOL_DB = 0.05
NESTED_REL_TOL = 1e-8        # acceptance criterion 10
NORMALISATION_TOL = 1e-9
MC_SIGMAS = 5.0


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    symbols: int = 0  # Monte Carlo symbols simulated by run
    kernel: str = "scalar"  # the reference kernel whose work is like run's
    # what must repeat exactly when the op is run again
    output: Callable[[Any], Any] = repr


@dataclass
class Perturb:
    """Reference offsets for the harness self-check: each makes correct
    outputs fail their check."""

    power_step_db: float = 0.0
    normalisation: float = 0.0
    mc_reference_scale: float = 1.0


def _latin(rng: random.Random):
    """One (sigma_s, rytov) pair per sigma_s, with the Rytov values permuted,
    so every instance set covers each grid row and column once."""
    cols = list(range(3))
    rng.shuffle(cols)
    return [(SIGMA_S[i], RYTOV[c]) for i, c in enumerate(cols)]


def _shuffled(rng: random.Random, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _cli_op(kind, label, argv, out, check_rows):
    def run():
        return fsolink.cli.main(argv + ["--out", out])

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        return check_rows(_read_csv(out))

    def output(rc):
        with open(out) as fh:
            return rc, fh.read()

    return Op(kind, label, run, check, output=output)


def _check_sweep(rows):
    values = [float(r["exact"]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        return "non-finite exact value"
    for row in rows:
        if row["errors"]:
            return f"row error: {row['errors']}"
    for a, b in zip(values, values[1:]):
        if b > a:
            return f"exact SER increases with power: {a!r} -> {b!r}"
    return None


def _check_delta(rows):
    for row in rows:
        if row["error"] or not _finite(row["delta_db"]):
            return f"{row['pair']}: delta {row['delta_db']} {row['error']}"
    return None


def _check_power_step(expected_db):
    def check(rows):
        by_m = {r["m"]: r for r in rows}
        for row in rows:
            if row["error"] or not _finite(row["delta_p_db"]):
                return f"m={row['m']}: {row['delta_p_db']} {row['error']}"
        if "8" not in by_m:
            return "no m=8 row"
        got = float(by_m["8"]["delta_p_db"])
        if abs(got - expected_db) > POWER_STEP_M8_TOL_DB:
            return f"m=8 step {got} dB, expected {expected_db} +- {POWER_STEP_M8_TOL_DB}"
        return None
    return check


def _check_pdf(rows):
    for row in rows:
        v = float(row["pdf"])
        if not (math.isfinite(v) and v >= 0.0):
            return f"pdf {row['pdf']} at h={row['h']}"
    return None


def _check_close(reference, rel):
    def check(value):
        if not (math.isfinite(value) and abs(value - reference) <= rel * abs(reference)):
            return f"{value!r} vs reference {reference!r} (rel tol {rel:g})"
        return None
    return check


def _op_point(sigma_s, rytov, m, p_dbm):
    geo = channel.LinkGeometry(**GEOMETRY_KW)
    fm = channel.FadingModel(geo, rytov, sigma_s)
    return channel.OperatingPoint(geo, fm, m, channel.dbm_to_watts(p_dbm))


def curves(seed: int, tmpdir: str, tiny: bool, perturb: Perturb):
    """Analytic CLI jobs on the headline grid, plus nested-oracle points."""
    rng = random.Random(seed)
    offset = rng.uniform(0.0, 0.25)
    ops = []

    def point_args(sigma_s, rytov):
        return ["--jitter_sigma_m", repr(sigma_s), "--rytov_variance", repr(rytov)]

    def out(label):
        return os.path.join(tmpdir, label + ".csv")

    def approx_names(m):
        names = ["exact", "approx", "dense", "dense_highpower"]
        return names + ["ook_simple"] if m == 2 else names

    sweep_ms = _shuffled(rng, (2, 4, 16))
    for (sigma_s, rytov), m in zip(_latin(rng), sweep_ms):
        label = f"sweep_s{sigma_s}_r{rytov}_M{m}"
        grid = (["--p_dbm_min", repr(-10.0 + offset), "--p_dbm_max", repr(-9.0 + offset)]
                if tiny else
                ["--p_dbm_min", repr(-10.0 + offset), "--p_dbm_max", repr(20.0 + offset)])
        argv = (["sweep"] + point_args(sigma_s, rytov) + grid
                + ["--modulation_m", str(m), "--expressions", ",".join(approx_names(m))])
        ops.append(_cli_op("sweep", label, argv, out(label), _check_sweep))
        if tiny:
            break

    delta_ms = _shuffled(rng, (2, 4, 64))
    for (sigma_s, rytov), m in zip(_latin(rng), delta_ms):
        label = f"delta_s{sigma_s}_r{rytov}_M{m}"
        step = 5.0 if tiny else 1.0
        argv = (["delta"] + point_args(sigma_s, rytov)
                + ["--p_dbm_min", repr(-10.0 + offset), "--p_dbm_max", repr(40.0 + offset),
                   "--p_dbm_step", repr(step), "--modulation_m", str(m),
                   "--expressions", ",".join(approx_names(m))])
        ops.append(_cli_op("delta", label, argv, out(label), _check_delta))
        if tiny:
            break

    # six cells: the grid minus a seeded transversal, so the seed moves the
    # costliest job kind's total by less than three cells would
    skipped = set(_latin(rng))
    cells = [(s, r) for s in SIGMA_S for r in RYTOV if (s, r) not in skipped]
    for sigma_s, rytov in cells:
        label = f"power_step_s{sigma_s}_r{rytov}"
        m_range = ["--m-min", "8", "--m-max", "8"] if tiny else ["--m-min", "1", "--m-max", "9"]
        argv = (["power-step"] + point_args(sigma_s, rytov)
                + ["--target-ser", "1e-3"] + m_range)
        expected = POWER_STEP_M8_DB + perturb.power_step_db
        ops.append(_cli_op("power_step", label, argv, out(label), _check_power_step(expected)))
        if tiny:
            break

    for sigma_s, rytov in _latin(rng):
        label = f"pdf_s{sigma_s}_r{rytov}"
        argv = ["pdf"] + point_args(sigma_s, rytov) + (["--h_points", "10"] if tiny else [])
        ops.append(_cli_op("pdf", label, argv, out(label), _check_pdf))
        if tiny:
            break

    nested_ms = _shuffled(rng, (2, 4, 64))
    for (sigma_s, rytov), m in zip(_latin(rng), nested_ms):
        p_dbm = rng.uniform(-5.0, 25.0)
        op = _op_point(sigma_s, rytov, m, p_dbm)
        reference = errorrates.avg_ser_exact(op)
        label = f"nested_s{sigma_s}_r{rytov}_M{m}_P{p_dbm:.3f}"
        ops.append(Op("nested", label,
                      lambda op=op: fsolink.errorrates.avg_ser_exact(op, nested=True),
                      _check_close(reference, NESTED_REL_TOL)))
        if tiny:
            break
    return ops


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def domain(seed: int, tmpdir: str, tiny: bool, perturb: Perturb):
    """Single-point evaluations drawn over the whole accepted input domain,
    plus two fixed nested-oracle probes off the headline grid."""
    del tmpdir
    rng = random.Random(seed)
    norm_reference = 1.0 + perturb.normalisation
    ops = []
    for i in range(5 if tiny else 1000):
        rytov = _log_uniform(rng, 1e-4, 1.0)
        sigma_s = _log_uniform(rng, 0.05, 5.0)
        m = 2 ** rng.randint(1, 10)
        p_dbm = rng.uniform(-30.0, 80.0)
        op = _op_point(sigma_s, rytov, m, p_dbm)
        fm = op.fading
        tag = f"{i}_s{sigma_s:.4g}_r{rytov:.4g}_g2_{fm.gamma ** 2:.4g}_M{m}_P{p_dbm:.2f}"
        ops.append(Op("normalisation", "norm_" + tag,
                      lambda fm=fm: fsolink.channel.composite_expectation(fm),
                      _check_normalisation(norm_reference)))
        ops.append(Op("exact", "exact_" + tag,
                      lambda op=op: fsolink.errorrates.avg_ser_exact(op),
                      _check_ser_range(m)))
        ops.append(Op("approx", "approx_" + tag,
                      lambda op=op: fsolink.errorrates.avg_ser_approx(op), _check_finite))
        ops.append(Op("dense", "dense_" + tag,
                      lambda op=op: fsolink.errorrates.avg_ser_dense(op), _check_finite))

    # off-grid oracle probes: the nested value must match the exact one
    for sigma_s in (5.0, 1.0):
        op = _op_point(sigma_s, 0.01, 4, 0.0)
        tag = f"probe_s{sigma_s}_r0.01_M4_P0"
        exact_value = {}

        def run_exact(op=op, store=exact_value):
            store["v"] = fsolink.errorrates.avg_ser_exact(op)
            return store["v"]

        def check_nested(value, store=exact_value):
            if "v" not in store:
                return "no exact value to compare with"
            return _check_close(store["v"], NESTED_REL_TOL)(value)

        ops.append(Op("probe_exact", "exact_" + tag, run_exact, _check_ser_range(4)))
        ops.append(Op("probe_nested", "nested_" + tag,
                      lambda op=op: fsolink.errorrates.avg_ser_exact(op, nested=True),
                      check_nested))
    return ops


def _check_normalisation(reference):
    def check(value):
        if not abs(value - reference) <= NORMALISATION_TOL:
            return f"normalisation {value!r}, expected {reference} +- {NORMALISATION_TOL:g}"
        return None
    return check


def _check_ser_range(m):
    def check(value):
        if not 0.0 <= value <= (m - 1) / m:
            return f"SER {value!r} outside [0, {(m - 1) / m}]"
        return None
    return check


def _check_finite(value):
    return None if math.isfinite(value) else f"non-finite value {value!r}"


def mc(seed: int, tmpdir: str, tiny: bool, perturb: Perturb):
    """Monte Carlo runs at headline points where the exact SER lies in
    [1e-4, 1e-2], each with one worker and then two on the same seed."""
    del tmpdir
    rng = random.Random(seed)
    n_symbols, batch = (200_000, 100_000) if tiny else (2_000_000, 1_000_000)
    grid = [-10.0 + i for i in range(51)]
    ops = []
    for m in (4,) if tiny else (2, 4, 16, 2, 4, 16):
        sigma_s, rytov = rng.choice(SIGMA_S), rng.choice(RYTOV)
        target = _log_uniform(rng, 1e-4, 1e-2)
        op = _op_point(sigma_s, rytov, m, 0.0)
        curve = errorrates.sweep_curve(op, errorrates.avg_ser_exact, grid)
        p_dbm = errorrates.crossing_power(curve, target)
        op = op.with_power(channel.dbm_to_watts(p_dbm))
        exact = errorrates.avg_ser_exact(op) * perturb.mc_reference_scale
        mc_seed = rng.getrandbits(32)
        label = f"s{sigma_s}_r{rytov}_M{m}_P{p_dbm:.3f}"
        w1_result = {}

        def run(op=op, workers=1, mc_seed=mc_seed):
            cfg = montecarlo.McConfig(n_symbols=n_symbols, seed=mc_seed,
                                      batch_size=batch, workers=workers)
            return fsolink.montecarlo.simulate(op, cfg)

        def check_w1(est, exact=exact, store=w1_result):
            store["est"] = est
            se = math.sqrt(exact * (1.0 - exact) / est.n_symbols)
            if not abs(est.ser_hat - exact) <= MC_SIGMAS * se:
                return (f"ser_hat {est.ser_hat:.6e} vs exact {exact:.6e}: "
                        f"{abs(est.ser_hat - exact) / se:.1f} standard errors")
            return None

        def check_w2(est, store=w1_result):
            if "est" not in store:
                return "no workers=1 estimate to compare with"
            if dataclasses.astuple(est) != dataclasses.astuple(store["est"]):
                return f"workers=2 estimate {est} differs from workers=1 {store['est']}"
            return None

        ops.append(Op("mc_w1", "w1_" + label, run, check_w1, symbols=n_symbols,
                      kernel="vector"))
        ops.append(Op("mc_w2", "w2_" + label, lambda run=run: run(workers=2), check_w2,
                      symbols=n_symbols, kernel="vector"))
    return ops


WORKLOADS = {"curves": curves, "domain": domain, "mc": mc}
