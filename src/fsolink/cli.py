"""Command-line front end: key=value configuration, power sweeps, PDF dumps,
threshold-gap and power-step analyses, and Monte Carlo runs, all emitted as
CSV.

Exit codes: 0 success, 2 configuration error, 3 numeric non-convergence in
any requested row.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import errorrates as er
from .channel import (FadingModel, LinkGeometry, OperatingPoint, dbm_to_watts,
                      pdf_composite, snr_electrical, snr_optical)
from .montecarlo import McConfig, simulate
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


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
        if self.jitter_sigma_m is not None and self.jitter_angle_mrad is not None:
            raise ConfigError("set exactly one of jitter_sigma_m / jitter_angle_mrad")
        if self.jitter_sigma_m is None and self.jitter_angle_mrad is None:
            raise ConfigError("set exactly one of jitter_sigma_m / jitter_angle_mrad")
        m = self.modulation_m
        if not 2 <= m <= 1024 or (m & (m - 1)) != 0:
            raise ConfigError("modulation_m must be a power of two from 2 to 1024")
        sweep = (self.p_dbm_min, self.p_dbm_max, self.p_dbm_step)
        if (not all(math.isfinite(v) for v in sweep)
                or self.p_dbm_step <= 0 or self.p_dbm_max < self.p_dbm_min):
            raise ConfigError("invalid power sweep range")
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
        if not (0.0 < self.h_min < math.inf and 0.0 < self.h_max < math.inf):
            raise ConfigError("h_min and h_max must be positive and finite")
        if self.h_points < 1:
            raise ConfigError("h_points must be >= 1")
        # a threshold below the smallest normal double is subnormal, as are the
        # averages near it, which have lost precision there
        for name in ("ber_threshold", "ser_threshold"):
            if not sys.float_info.min <= getattr(self, name) < 1.0:  # false for nan too
                raise ConfigError(f"{name} must lie in [{sys.float_info.min!r}, 1)")
        unknown = set(self.expressions) - set(EXPRESSIONS)
        if unknown:
            raise ConfigError(f"unknown expressions: {sorted(unknown)}; "
                              f"available: {sorted(EXPRESSIONS)}")

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


# the expressions the command line accepts. The commands look them up by name
# in er.AVERAGES, whose functions have batch forms over transmit powers, so
# replacing a value of this copy does not change what they compute.
EXPRESSIONS = dict(er.AVERAGES)

_INT_FIELDS = {"modulation_m", "n_symbols", "seed", "h_points"}
_OPTIONAL_FLOAT_FIELDS = {"jitter_sigma_m", "jitter_angle_mrad"}


def _coerce(key: str, raw: str):
    if key == "expressions":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if key in _INT_FIELDS:
        return int(raw)
    if key in _OPTIONAL_FLOAT_FIELDS and raw.lower() in ("", "none"):
        return None
    return float(raw)


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; # starts a comment; blank lines ignored."""
    valid = {f.name for f in fields(RunConfig)}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in valid:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return out


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if f.name == "expressions":
            val = ",".join(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data = {}
    if path is not None:
        with open(path) as fh:
            data = parse_config_text(fh.read())
    data.update(overrides)
    # a jitter override replaces the default/other-mode jitter rather than
    # clashing with it
    if "jitter_angle_mrad" in data and "jitter_sigma_m" not in data:
        data["jitter_sigma_m"] = None
    if data.get("jitter_sigma_m") is not None:
        data.setdefault("jitter_angle_mrad", None)
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


def _write_rows(out, header, rows):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_pdf(cfg: RunConfig, op: OperatingPoint, out) -> int:
    grid = np.logspace(math.log10(cfg.h_min), math.log10(cfg.h_max), cfg.h_points)
    rows = [[_fmt_prob(h), _fmt_prob(p)] for h, p in zip(grid, pdf_composite(grid, op.fading))]
    _write_rows(out, ["h", "pdf"], rows)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, op: OperatingPoint, out) -> int:
    grid = cfg.power_grid()
    watts = [dbm_to_watts(p) for p in grid]
    names = list(cfg.expressions)
    results = [er.averages_at_powers(er.AVERAGES[name], op, watts) for name in names]
    header = ["p_dbm", "snr_opt_db", "snr_elec_db"] + names + ["errors"]
    rows = []
    any_failure = False
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
                any_failure = True
        row.append("; ".join(errs))
        rows.append(row)
    _write_rows(out, header, rows)
    return EXIT_NUMERIC if any_failure else EXIT_OK


def cmd_delta(cfg: RunConfig, op: OperatingPoint, out) -> int:
    grid = cfg.power_grid()
    threshold = cfg.ber_threshold if cfg.modulation_m == 2 else cfg.ser_threshold
    header = ["jitter_sigma_m", "rytov_variance", "m", "pair", "threshold", "delta_db",
              "error"]
    rows = []
    any_failure = False
    try:
        exact_curve = er.sweep_curve(op, er.AVERAGES["exact"], grid)
    except (QuadratureError, ValueError) as exc:
        _write_rows(out, header, [["", "", "", "", "", "", str(exc)]])
        return EXIT_NUMERIC

    names = [name for name in cfg.expressions if name != "exact"]
    curves = []
    for name in names:
        try:
            curves.append(er.sweep_curve(op, er.AVERAGES[name], grid))
        except (QuadratureError, ValueError) as exc:
            curves.append(exc)
    # every crossing in one lockstep solve; a row's sweep error comes first
    for name, d, error in zip(names, *er.delta_gaps(exact_curve, curves, threshold)):
        row = [f"{cfg.jitter_m:g}", f"{cfg.rytov_variance:g}", str(cfg.modulation_m),
               f"{name}-vs-exact", _fmt_prob(threshold)]
        if error is None:
            row += [_fmt_db(d), ""]
        else:
            row += ["nan", str(error)]
            any_failure = True
        rows.append(row)
    _write_rows(out, header, rows)
    return EXIT_NUMERIC if any_failure else EXIT_OK


def cmd_power_step(op: OperatingPoint, out, target_ser: float, m_min: int, m_max: int) -> int:
    header = ["m", "delta_p_db", "error"]
    rows = []
    any_failure = False
    m_range = range(m_min, m_max + 1)
    for m, d, error in zip(m_range, *er.power_steps(op, m_range, target_ser)):
        if error is None:
            rows.append([str(m), _fmt_db(d), ""])
        else:
            rows.append([str(m), "nan", str(error)])
            any_failure = True
    rows.append(["dense_reference", _fmt_db(10.0 * math.log10(2.0)), ""])
    _write_rows(out, header, rows)
    return EXIT_NUMERIC if any_failure else EXIT_OK


def cmd_mc(cfg: RunConfig, op: OperatingPoint, out) -> int:
    grid = cfg.power_grid()
    header = ["p_dbm", "m", "ser_hat", "ber_hat", "symbol_errors", "bit_errors",
              "n_symbols", "ci95_ser", "ci95_ber", "seed"]
    rows = []
    # a thread per core, at most one per batch: the counts do not depend on it
    workers = min(os.cpu_count() or 1, -(-cfg.n_symbols // McConfig.batch_size))
    mc = McConfig(n_symbols=cfg.n_symbols, seed=cfg.seed, workers=workers)
    for p in grid:
        est = simulate(op.with_power(dbm_to_watts(p)), mc)
        rows.append([_fmt_db(p), str(cfg.modulation_m),
                     _fmt_prob(est.ser_hat), _fmt_prob(est.ber_hat),
                     str(est.symbol_errors), str(est.bit_errors),
                     str(est.n_symbols),
                     _fmt_prob(est.ci95_ser), _fmt_prob(est.ci95_ber),
                     str(cfg.seed)])
    _write_rows(out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", default=None)
    parser.add_argument("--out", metavar="PATH", default=None)
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None, metavar="V")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the command line argv. Only the subcommand argv names
    first gets the configuration flags, most of the parser's cost."""
    parser = argparse.ArgumentParser(
        prog="fsolink",
        description="Average BER/SER computation for M-PAM free-space optical "
                    "links under log-normal turbulence and pointing errors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pdf", "sweep", "delta", "power-step", "mc"):
        p = sub.add_parser(name)
        if name in argv[:1]:
            _add_config_flags(p)
        if name == "power-step":
            p.add_argument("--target-ser", type=float, required=True)
            p.add_argument("--m-min", type=int, default=1)
            p.add_argument("--m-max", type=int, default=9)
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is None:
            continue
        overrides[f.name] = _coerce(f.name, raw)
    return overrides


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        op = cfg.operating_point()  # surface model-domain violations as config errors
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

    try:
        if args.command == "pdf":
            return cmd_pdf(cfg, op, sink)
        if args.command == "sweep":
            return cmd_sweep(cfg, op, sink)
        if args.command == "delta":
            return cmd_delta(cfg, op, sink)
        if args.command == "power-step":
            return cmd_power_step(op, sink, args.target_ser, args.m_min, args.m_max)
        if args.command == "mc":
            return cmd_mc(cfg, op, sink)
        raise AssertionError(f"unhandled command {args.command}")
    finally:
        if sink is not sys.stdout:
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
