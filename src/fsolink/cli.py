"""Command-line front end: key=value configuration, power sweeps, PDF dumps,
threshold-gap and power-step analyses, and Monte Carlo runs, all emitted as
CSV.

Exit codes: 0 success, 2 configuration error, 3 numeric non-convergence in
any requested row.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import errorrates as er
from .channel import (FadingModel, LinkGeometry, OperatingPoint, dbm_to_watts, order_error,
                      pdf_composite, snr_electrical, snr_optical)
from .montecarlo import McConfig, simulate_powers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# points in the power or pdf grid at most: an exact-SER sweep holds about 3 KB
# and takes about 29 us a point, so 0.3 GB and 3 s an expression at the limit
_MAX_GRID = 100_001

_JITTER_MODES = ("jitter_sigma_m", "jitter_angle_mrad")
_ONE_JITTER = "set exactly one of jitter_sigma_m / jitter_angle_mrad"


@dataclass
class RunConfig:
    """Flat run configuration; defaults reproduce the reference link budget."""

    wavelength_nm: float = 1550.0
    link_distance_km: float = 3.0
    divergence_mrad: float = 1.32
    aperture_radius_m: float = 0.05
    alpha_w_per_a: float = 1.0
    beta_a_per_w: float = 0.5
    noise_sigma_a: float = 1e-7
    attenuation_per_km: float = 0.2208
    rytov_variance: float = 0.1
    jitter_sigma_m: float | None = 0.35
    jitter_angle_mrad: float | None = None
    p_dbm_min: float = -10.0
    p_dbm_max: float = 20.0
    p_dbm_step: float = 0.25
    modulation_m: int = 2
    n_symbols: int = 10_000_000
    seed: int = 1
    expressions: tuple[str, ...] = ("exact",)
    ber_threshold: float = 3.84e-3
    ser_threshold: float = 1e-3
    h_min: float = 1e-6
    h_max: float = 1.6e-3
    h_points: int = 200

    def __post_init__(self):
        if (self.jitter_sigma_m is None) == (self.jitter_angle_mrad is None):
            raise ConfigError(_ONE_JITTER)
        m = self.modulation_m
        if order_error(m) is not None:
            raise ConfigError("modulation_m must be a power of two from 2 to 1024")
        sweep = (self.p_dbm_min, self.p_dbm_max, self.p_dbm_step)
        if (not all(math.isfinite(v) for v in sweep)
                or self.p_dbm_step <= 0 or self.p_dbm_max < self.p_dbm_min):
            raise ConfigError("invalid power sweep range")
        if self._steps() + 1 > _MAX_GRID:
            raise ConfigError(f"power grid has more than {_MAX_GRID:,} points")
        # the grid's top power, up to half a step above p_dbm_max, squared must
        # fit a double in watts (about 1,571 dBm): a fixed input limit, inside
        # dbm_to_watts's own overflow at about 3,112 dBm
        top = max(self.p_dbm_max, self.p_dbm_min + self._steps() * self.p_dbm_step)
        try:
            fits = math.isfinite(dbm_to_watts(top) ** 2)
        except OverflowError:
            fits = False
        if not fits:
            raise ConfigError(f"power grid reaches {top:g} dBm, whose square in watts "
                              "overflows a double")
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")
        if not all(sys.float_info.min <= h < math.inf for h in (self.h_min, self.h_max)):
            raise ConfigError("h_min and h_max must be positive and finite normal doubles")
        if self.h_points < 1:
            raise ConfigError("h_points must be >= 1")
        if self.h_points > _MAX_GRID:
            raise ConfigError(f"h_points must be <= {_MAX_GRID:,}")
        # a threshold below the smallest normal double is subnormal, as are the
        # averages near it, which have lost precision there
        for name in ("ber_threshold", "ser_threshold"):
            if not sys.float_info.min <= getattr(self, name) < 1.0:  # false for nan too
                raise ConfigError(f"{name} must lie in [{sys.float_info.min!r}, 1)")
        unknown = set(self.expressions) - set(EXPRESSIONS)
        if unknown:
            raise ConfigError(f"unknown expressions: {sorted(unknown)}; "
                              f"available: {sorted(EXPRESSIONS)}")
        if not self.expressions or len(set(self.expressions)) < len(self.expressions):
            raise ConfigError(f"expressions must be distinct and one or more: {self.expressions}")
        if "ook_simple" in self.expressions and m != 2:
            raise ConfigError("ook_simple is an OOK expression and requires modulation_m = 2")

    @property
    def jitter_m(self) -> float:
        if self.jitter_sigma_m is not None:
            return self.jitter_sigma_m
        return self.jitter_angle_mrad * 1e-3 * self.link_distance_km * 1e3

    def geometry(self) -> LinkGeometry:
        return LinkGeometry(
            wavelength=self.wavelength_nm * 1e-9,
            distance_z=self.link_distance_km * 1e3,
            divergence_theta=self.divergence_mrad * 1e-3,
            aperture_radius_a=self.aperture_radius_m,
            conversion_alpha=self.alpha_w_per_a,
            responsivity_beta=self.beta_a_per_w,
            noise_sigma_n=self.noise_sigma_a,
            attenuation_sigma_lambda=self.attenuation_per_km,
        )

    def fading(self) -> FadingModel:
        return FadingModel(self.geometry(), self.rytov_variance, self.jitter_m)

    def operating_point(self) -> OperatingPoint:
        fading = self.fading()
        return OperatingPoint(fading.geometry, fading, self.modulation_m,
                              dbm_to_watts(self.p_dbm_min))

    def _steps(self):
        """The number of steps of the power grid, a float, rounded."""
        return round((self.p_dbm_max - self.p_dbm_min) / self.p_dbm_step, 0)

    def power_grid(self):
        n = int(self._steps()) + 1
        return [self.p_dbm_min + i * self.p_dbm_step for i in range(n)]


# the expressions the command line accepts. The commands evaluate the batches
# of er.AVERAGES, so replacing a value of this copy changes nothing they compute.
EXPRESSIONS = dict(er.AVERAGES)

# each RunConfig field's declared kind: its annotation, kept as text by
# `from __future__ import annotations`
_KINDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _KINDS[key]
    if kind == "tuple[str, ...]":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if kind == "float | None" and raw.lower() in ("", "none"):
        return None
    return int(raw) if kind == "int" else float(raw)


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; # starts a comment; blank lines ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return out


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The defaults, then the file at path, then overrides, each layer over
    the ones below it. A layer that sets one jitter mode to a number clears
    the other mode below it; a layer that sets both is an error."""
    layers = [overrides]
    if path is not None:
        with open(path) as fh:
            layers.insert(0, parse_config_text(fh.read()))
    data = {}
    for layer in layers:
        modes = [k for k in _JITTER_MODES if layer.get(k) is not None]
        if len(modes) == 2:
            raise ConfigError(_ONE_JITTER)
        if modes:
            data.update(dict.fromkeys(_JITTER_MODES))
        data.update(layer)
    try:
        return RunConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV helpers

def _fmt_prob(x: float) -> str:
    return "%.12e" % x


def _fmt_db(x: float) -> str:
    return "%.4f" % x


def _cells(value, error, fmt) -> list[str]:
    """A result's value cell and error cell: fmt(value) and "", or "nan" and the error's text."""
    return [fmt(value), ""] if error is None else ["nan", str(error)]


# ---------------------------------------------------------------------------
# subcommands, each (cfg, op, args) -> (header, rows), rows the lists of a
# row's cells. A last column named error or errors is the row's error

def cmd_pdf(cfg: RunConfig, op: OperatingPoint, args):
    grid = np.logspace(math.log10(cfg.h_min), math.log10(cfg.h_max), cfg.h_points)
    # 10^log10(h) may round below h, and below the smallest normal double
    grid = np.maximum(grid, min(cfg.h_min, cfg.h_max))
    rows = [[_fmt_prob(h), _fmt_prob(p)] for h, p in zip(grid, pdf_composite(grid, op.fading))]
    return ["h", "pdf"], rows


def cmd_sweep(cfg: RunConfig, op: OperatingPoint, args):
    grid = cfg.power_grid()
    watts = [dbm_to_watts(p) for p in grid]
    names = list(cfg.expressions)
    results = [er.averages_at_powers(er.AVERAGES[name], op, watts) for name in names]
    header = ["p_dbm", "snr_opt_db", "snr_elec_db"] + names + ["errors"]
    rows = []
    for i, (p, w) in enumerate(zip(grid, watts)):
        op_p = op.with_power(w)
        row = [_fmt_db(p), _fmt_db(snr_optical(op_p)), _fmt_db(snr_electrical(op_p))]
        errs = []
        for name, (values, errors) in zip(names, results):
            if errors[i] is None:
                row.append(_fmt_prob(values[i]))
            else:
                row.append("nan")
                errs.append(f"{name}: {errors[i]}")
        row.append("; ".join(errs))
        rows.append(row)
    return header, rows


def cmd_delta(cfg: RunConfig, op: OperatingPoint, args):
    grid = cfg.power_grid()
    threshold = cfg.ber_threshold if cfg.modulation_m == 2 else cfg.ser_threshold
    header = ["jitter_sigma_m", "rytov_variance", "m", "pair", "threshold", "delta_db",
              "error"]
    names = [name for name in cfg.expressions if name != "exact"]
    # every crossing searched and refined in lockstep; a row's own error first
    gaps = er.delta_gaps_on_grid(op, er.AVERAGES["exact"], [er.AVERAGES[n] for n in names],
                                 grid, threshold)
    rows = [[f"{cfg.jitter_m:g}", f"{cfg.rytov_variance:g}", str(cfg.modulation_m),
             f"{name}-vs-exact", _fmt_prob(threshold), *_cells(d, error, _fmt_db)]
            for name, d, error in zip(names, *gaps)]
    return header, rows


def cmd_power_step(cfg: RunConfig, op: OperatingPoint, args):
    header = ["m", "delta_p_db", "error"]
    m_range = range(args.m_min, args.m_max + 1)
    rows = [[str(m), *_cells(d, error, _fmt_db)]
            for m, d, error in zip(m_range, *er.power_steps(op, m_range, args.target_ser))]
    rows.append(["dense_reference", _fmt_db(10.0 * math.log10(2.0)), ""])
    return header, rows


def cmd_mc(cfg: RunConfig, op: OperatingPoint, args):
    grid = cfg.power_grid()
    header = ["p_dbm", "m", "ser_hat", "ber_hat", "symbol_errors", "bit_errors",
              "n_symbols", "ci95_ser", "ci95_ber", "seed"]
    rows = []
    # a thread per usable CPU; the pool starts at most one per batch. The counts do not depend on it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    mc = McConfig(n_symbols=cfg.n_symbols, seed=cfg.seed, workers=cpus or 1)
    estimates = simulate_powers(op, [dbm_to_watts(p) for p in grid], mc)
    for p, est in zip(grid, estimates):
        rows.append([_fmt_db(p), str(cfg.modulation_m),
                     _fmt_prob(est.ser_hat), _fmt_prob(est.ber_hat),
                     str(est.symbol_errors), str(est.bit_errors),
                     str(est.n_symbols),
                     _fmt_prob(est.ci95_ser), _fmt_prob(est.ci95_ber),
                     str(cfg.seed)])
    return header, rows


# the subcommands by name, in the order the help lists them
COMMANDS = {"pdf": cmd_pdf, "sweep": cmd_sweep, "delta": cmd_delta,
            "power-step": cmd_power_step, "mc": cmd_mc}


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once and shared: a caller must not
    change it. Every subcommand takes the configuration flags, --config,
    --out and one per RunConfig field, from one parent parser."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", default=None)
    config.add_argument("--out", metavar="PATH", default=None)
    for f in fields(RunConfig):
        config.add_argument(f"--{f.name}", default=None, metavar="V")
    parser = argparse.ArgumentParser(
        prog="fsolink",
        description="Average BER/SER computation for M-PAM free-space optical "
                    "links under log-normal turbulence and pointing errors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[config])
        if name == "power-step":
            p.add_argument("--target-ser", type=float, required=True)
            p.add_argument("--m-min", type=int, default=1)
            p.add_argument("--m-max", type=int, default=9)
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for f in fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is None:
            continue
        overrides[f.name] = _coerce(f.name, raw)
    return overrides


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes a value such as -1e-05 for a flag
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        op = cfg.operating_point()  # surface model-domain violations as config errors
        if args.command == "delta" and not set(cfg.expressions) - {"exact"}:
            raise ConfigError("delta needs an expression besides exact to compare with it")
        if args.command == "power-step":
            if not sys.float_info.min <= args.target_ser < 0.5:  # false for nan too
                raise ConfigError(f"target-ser must lie in [{sys.float_info.min!r}, 0.5)")
            # m-max 9 steps up to 1024-PAM, the largest order an average accepts
            if not 1 <= args.m_min <= args.m_max <= 9:
                raise ConfigError("m-min and m-max must satisfy 1 <= m-min <= m-max <= 9")
        sink = open(args.out, "w", newline="") if args.out else sys.stdout
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:  # a non-finite average is its row's error, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            header, rows = COMMANDS[args.command](cfg, op, args)
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if sink is not sys.stdout:
            sink.close()
    # exit 3 where a command's last column is its error column and a row sets it
    failed = header[-1] in ("error", "errors") and any(row[-1] for row in rows)
    return EXIT_NUMERIC if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
