import argparse
import csv
import io
import math
import sys
from dataclasses import fields

import pytest

from fsolink import channel, cli
from fsolink import errorrates as er
from fsolink.cli import (ConfigError, RunConfig, load_config, main,
                         parse_config_text, serialize_config)
from support import run_python


def run_cli(argv):
    out = io.StringIO()
    import sys
    real = sys.stdout
    sys.stdout = out
    try:
        code = main(argv)
    finally:
        sys.stdout = real
    return code, out.getvalue()


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# configuration

def test_defaults_reproduce_link_budget():
    cfg = RunConfig()
    geo = cfg.geometry()
    assert geo.beam_waist_wz == pytest.approx(1.98)
    assert geo.h_l == pytest.approx(0.516, abs=1e-3)
    assert geo.h_g == pytest.approx(1.3e-3, abs=0.05e-3)
    assert cfg.ber_threshold == 3.84e-3
    assert cfg.ser_threshold == 1e-3


def test_parse_key_value_with_comments():
    text = """
    # a comment
    rytov_variance = 0.5
    modulation_m = 4   # trailing comment
    expressions = exact, approx
    """
    data = parse_config_text(text)
    assert data == {"rytov_variance": 0.5, "modulation_m": 4,
                    "expressions": ("exact", "approx")}


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("no_such_key = 1")


def test_parse_rejects_bad_line():
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def test_round_trip_idempotent():
    cfg = load_config(None, {"rytov_variance": 0.9, "jitter_sigma_m": 0.2,
                             "modulation_m": 8})
    text = serialize_config(cfg)
    cfg2 = RunConfig(**parse_config_text(text))
    assert serialize_config(cfg2) == text


def test_jitter_modes_exclusive():
    with pytest.raises(ConfigError):
        RunConfig(jitter_sigma_m=0.3, jitter_angle_mrad=0.1)
    with pytest.raises(ConfigError):
        RunConfig(jitter_sigma_m=None, jitter_angle_mrad=None)


def test_jitter_angle_conversion():
    cfg = load_config(None, {"jitter_angle_mrad": 0.1})
    # sigma_s = theta_s * z = 0.1 mrad * 3 km = 0.3 m
    assert cfg.jitter_m == pytest.approx(0.3)


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("rytov_variance = 0.5\nmodulation_m = 4\n")
    cfg = load_config(str(path), {"modulation_m": 8})
    assert cfg.rytov_variance == 0.5
    assert cfg.modulation_m == 8


def test_unknown_expression_rejected():
    with pytest.raises(ConfigError):
        RunConfig(expressions=("exact", "bogus"))


# ---------------------------------------------------------------------------
# subcommands

def test_pdf_output_format():
    code, out = run_cli(["pdf", "--h_points", "10"])
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["h", "pdf"]
    assert len(rows) == 11
    for h_str, pdf_str in rows[1:]:
        assert "e" in h_str  # %.12e formatting
        assert float(pdf_str) >= 0.0
    assert float(rows[1][0]) == pytest.approx(1e-6)
    assert float(rows[-1][0]) == pytest.approx(1.6e-3)


def test_sweep_columns_and_monotonicity():
    code, out = run_cli(["sweep", "--p_dbm_min", "-2", "--p_dbm_max", "4",
                         "--p_dbm_step", "1", "--expressions", "exact,approx"])
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["p_dbm", "snr_opt_db", "snr_elec_db", "exact", "approx",
                       "errors"]
    exact = [float(r[3]) for r in rows[1:]]
    approx = [float(r[4]) for r in rows[1:]]
    assert exact == sorted(exact, reverse=True)
    assert approx == sorted(approx, reverse=True)
    # dB columns use fixed-point formatting
    assert rows[1][0] == "-2.0000"


def test_sweep_crosses_fec_threshold_once():
    code, out = run_cli(["sweep", "--p_dbm_min", "-4", "--p_dbm_max", "20",
                         "--p_dbm_step", "0.25"])
    assert code == 0
    rows = rows_of(out)
    vals = [float(r[3]) for r in rows[1:]]
    signs = [v > 3.84e-3 for v in vals]
    assert signs.count(True) >= 1
    # single sign change along the sweep
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1


def test_delta_subcommand_value():
    code, out = run_cli(["delta", "--rytov_variance", "0.5",
                         "--jitter_sigma_m", "0.25", "--modulation_m", "4",
                         "--p_dbm_min", "-5", "--p_dbm_max", "30",
                         "--expressions", "exact,approx"])
    assert code == 0
    rows = rows_of(out)
    assert rows[0][:4] == ["jitter_sigma_m", "rytov_variance", "m", "pair"]
    assert rows[1][3] == "approx-vs-exact"
    assert float(rows[1][5]) == pytest.approx(0.057, abs=0.01)


def test_delta_no_crossing_reports_and_exit_code():
    # sweep range far below the crossing: no threshold crossing available
    code, out = run_cli(["delta", "--p_dbm_min", "-10", "--p_dbm_max", "-8",
                         "--expressions", "exact,approx"])
    assert code == 3
    rows = rows_of(out)
    assert rows[1][5] == "nan"
    assert rows[1][6] != ""


def test_power_step_rows():
    code, out = run_cli(["power-step", "--target-ser", "1e-3",
                         "--m-min", "1", "--m-max", "2"])
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["m", "delta_p_db", "error"]
    assert float(rows[1][1]) == pytest.approx(5.067, abs=0.01)
    assert float(rows[2][1]) == pytest.approx(3.789, abs=0.01)
    assert rows[3][0] == "dense_reference"
    assert rows[3][1] == "%.4f" % (10.0 * math.log10(2.0))


def test_power_step_solves_up_to_the_domain_top():
    # gamma^2 = 0.68: SER ~ P^-0.68, so 256- to 1024-PAM reach 1e-3 only
    # above 60 dBm, at 60.5, 63.5 and 66.5 dBm
    point = ["--jitter_sigma_m", "1.2", "--rytov_variance", "0.33"]
    code, out = run_cli(["power-step", "--target-ser", "1e-3"] + point)
    assert code == 0
    rows = rows_of(out)
    assert [r[1] for r in rows[7:10]] == ["3.0524", "3.0313", "3.0208"]
    # the high-power closed form, to four decimals
    g2 = RunConfig(jitter_sigma_m=1.2, rytov_variance=0.33).operating_point().fading.gamma**2
    assert g2 == pytest.approx(0.681, abs=5e-4)
    for m, row in zip((7, 8, 9), rows[7:10]):
        k = 2**m
        closed = (10.0 * math.log10((2 * k - 1) / (k - 1))
                  + 10.0 / g2 * math.log10((2 * k - 1) / (2 * (k - 1))))
        assert row[1] == "%.4f" % closed
    # 1e-6 lies beyond 80 dBm for every order from M = 4 up
    code, out = run_cli(["power-step", "--target-ser", "1e-6"] + point)
    assert code == 3
    rows = rows_of(out)
    assert all(r[1] == "nan" and r[2] == "target 1e-06 not reached in [-40.0, 80.0] dBm"
               for r in rows[1:10])


@pytest.mark.parametrize("flags", [["--ber_threshold", v] for v in ("0", "-1", "nan", "inf", "2")]
                         + [["--modulation_m", "4", "--ser_threshold", "0"]])
def test_delta_threshold_outside_unit_interval_is_config_error(flags, capsys):
    code, out = run_cli(["delta", "--expressions", "exact,approx"] + flags)
    assert code == 2
    assert out == ""
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--ser_threshold", "1e-320"], ["--ser_threshold", "2e-308"],
                                   ["--ber_threshold", "1e-310", "--modulation_m", "2"]])
def test_delta_subnormal_threshold_is_config_error(flags, capsys):
    # below the smallest normal double the averages have lost precision
    point = ["--jitter_sigma_m", "0.095", "--rytov_variance", "0.154", "--modulation_m", "4",
             "--p_dbm_min", "70", "--p_dbm_max", "80", "--p_dbm_step", "1",
             "--expressions", "exact,approx,dense"]
    code, out = run_cli(["delta"] + point + flags)
    assert code == 2
    assert out == ""
    assert "must lie in [2.2250738585072014e-308, 1)" in capsys.readouterr().err
    assert RunConfig(ser_threshold=sys.float_info.min).ser_threshold == sys.float_info.min


def test_sweep_prints_averages_below_the_smallest_normal_as_zero():
    code, out = run_cli(["sweep", "--jitter_sigma_m", "0.114", "--rytov_variance", "0.05473",
                         "--modulation_m", "2", "--p_dbm_min", "50", "--p_dbm_max", "60",
                         "--p_dbm_step", "2", "--expressions", "exact,dense"])
    assert code == 0
    cells = {row[0]: row[3:5] for row in rows_of(out)[1:]}
    # the exact SER at 52 dBm (8.9e-309) and the dense one at 56 dBm (6.1e-316) lie
    # below the smallest normal double
    assert cells["52.0000"][0] == cells["56.0000"][1] == "0.000000000000e+00"
    assert cells["50.0000"][0] == "1.108722778607e-293"


def test_delta_crossing_into_a_zero_average_exit_code():
    # gamma^2 = 109: the SER of 4-PAM falls from 1.5e-299 at 71 dBm to 0 at
    # 74 dBm, across the threshold
    code, out = run_cli(["delta", "--jitter_sigma_m", "0.095", "--rytov_variance", "0.154",
                         "--modulation_m", "4", "--p_dbm_min", "71", "--p_dbm_max", "80",
                         "--p_dbm_step", "3", "--ser_threshold", "1e-300",
                         "--expressions", "exact,approx,dense"])
    assert code == 3
    rows = rows_of(out)
    assert [r[3] for r in rows[1:]] == ["approx-vs-exact", "dense-vs-exact"]
    assert all(r[5] == "nan" and r[6] == "average is 0 at an end of [71.0, 74.0] dBm, "
               "the cell where it crosses 1e-300" for r in rows[1:])


def test_delta_row_errors_keep_their_order(monkeypatch):
    # a row carries its sweep's error, else its own crossing's, else the exact
    # crossing's, which is solved once for every row
    watts = {cli.dbm_to_watts(p) for p in range(-10, 21)}
    off_grid = []

    def on_grid_only(name, average):
        def expression(op):
            if op.transmit_power_p not in watts:
                off_grid.append(name)
                raise er.QuadratureError(f"{name} crossing fails")
            return average(op)
        return expression

    def failing_sweep(op):
        raise er.QuadratureError("approx sweep fails")

    for name in ("exact", "dense"):
        monkeypatch.setitem(er.AVERAGES, name, on_grid_only(name, er.AVERAGES[name]))
    monkeypatch.setitem(er.AVERAGES, "approx", failing_sweep)
    code, out = run_cli(["delta", "--p_dbm_step", "1",
                         "--expressions", "exact,approx,dense,ook_simple,dense_highpower"])
    assert code == 3
    assert [r[5:] for r in rows_of(out)[1:]] == [
        ["nan", "approx sweep fails"], ["nan", "dense crossing fails"],
        ["nan", "exact crossing fails"], ["nan", "exact crossing fails"]]
    assert sorted(off_grid) == ["dense", "exact"]


@pytest.mark.parametrize("flags", [["--target-ser", "0"], ["--target-ser", "-1"],
                                   ["--target-ser", "nan"], ["--target-ser", "0.5"],
                                   ["--target-ser", "1e-3", "--m-min", "0"],
                                   ["--target-ser", "1e-3", "--m-min", "5", "--m-max", "2"],
                                   # subnormal, as the thresholds below 2.2e-308 are
                                   ["--target-ser", "1e-316"], ["--target-ser", "5e-324"],
                                   # steps to 2048-PAM, and an OverflowError traceback
                                   ["--target-ser", "1e-3", "--m-max", "10"],
                                   ["--target-ser", "1e-3", "--m-min", "1023", "--m-max", "1024"]])
def test_power_step_bad_arguments_are_config_errors(flags, capsys):
    code, out = run_cli(["power-step"] + flags)
    assert code == 2
    assert out == ""
    assert "config error: " in capsys.readouterr().err


def test_commands_load_neither_quadpack_nor_optimize(tmp_path):
    """Start-up and every command's default path run on numpy and scipy's
    special-function extension alone: neither the scipy.special package, whose
    __init__ loads scipy's array-API layer, nor QUADPACK or scipy.optimize.
    Start-up does not load concurrent.futures either; only mc runs a pool."""
    out = tmp_path / "out.csv"
    code = f"""
import sys
import fsolink.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m in ("scipy.special", "scipy._lib._array_api")
                  or m.startswith(("scipy.integrate", "scipy.optimize")))

cli.RunConfig().operating_point()
assert loaded() == [] and "concurrent.futures" not in sys.modules, sorted(sys.modules)
out = ["--out", {str(out)!r}]
grid = ["--p_dbm_min", "-5", "--p_dbm_max", "30", "--p_dbm_step", "1"]
for argv in (["sweep", "--expressions", "exact,approx,dense,ook_simple"] + grid,
             ["delta", "--expressions", "exact,approx,dense"] + grid,
             ["power-step", "--target-ser", "1e-3", "--m-min", "1", "--m-max", "2"],
             ["pdf", "--h_points", "5"],
             ["mc", "--n_symbols", "1000", "--p_dbm_min", "0", "--p_dbm_max", "10",
              "--p_dbm_step", "5"]):
    assert cli.main(argv + out) == 0, argv
    assert loaded() == [], (argv, loaded())
print("ok")
"""
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_mc_seed_echo_and_determinism():
    argv = ["mc", "--p_dbm_min", "2", "--p_dbm_max", "2", "--p_dbm_step", "1",
            "--modulation_m", "4", "--n_symbols", "100000", "--seed", "77"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = rows_of(out1)
    assert rows[1][-1] == "77"
    assert 0.0 <= float(rows[1][2]) <= 1.0


def test_mc_output_independent_of_workers(monkeypatch):
    seen = []
    simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate",
                        lambda op, mc: seen.append(mc.workers) or simulate(op, mc))
    # three batches of the default 10^6 symbols: a thread per core, at most three
    argv = ["mc", "--p_dbm_min", "6", "--p_dbm_max", "6", "--modulation_m", "4",
            "--n_symbols", "2000001"]
    outs = []
    for cores in (None, 1, 2, 4):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
        code, out = run_cli(argv)
        assert code == 0
        outs.append(out)
    assert seen == [1, 1, 2, 3]
    assert outs[1:] == outs[:1] * 3
    assert len(rows_of(outs[0])) == 2


def test_out_file_written(tmp_path):
    path = tmp_path / "out.csv"
    code, _ = run_cli(["pdf", "--h_points", "5", "--out", str(path)])
    assert code == 0
    rows = rows_of(path.read_text())
    assert rows[0] == ["h", "pdf"]
    assert len(rows) == 6


def test_config_error_exit_code():
    code, _ = run_cli(["sweep", "--rytov_variance", "2.0"])
    assert code == 2
    code, _ = run_cli(["sweep", "--modulation_m", "3"])
    assert code == 2
    code, _ = run_cli(["sweep", "--config", "/no/such/file"])
    assert code == 2
    code, _ = run_cli(["mc", "--n_symbols", "0"])
    assert code == 2


def test_unwritable_out_is_config_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out = run_cli(["pdf", "--h_points", "5", "--out", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("flags", [["--p_dbm_min", "nan", "--p_dbm_max", "nan"],
                                   ["--p_dbm_max", "inf"],
                                   ["--p_dbm_step", "nan"]])
def test_non_finite_power_exit_code(flags):
    code, out = run_cli(["sweep"] + flags)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    # a SER of 0 with exit 0
    ["mc", "--n_symbols", "10", "--p_dbm_min", "0", "--p_dbm_max", "0", "--jitter_sigma_m", "nan"],
    # SER 0 and SNR inf with exit 0
    ["sweep", "--alpha_w_per_a", "inf"],
    # tracebacks
    ["sweep", "--jitter_sigma_m", "inf"], ["sweep", "--attenuation_per_km", "inf"],
    ["sweep", "--noise_sigma_a", "inf"],
    # non-finite integrands
    ["sweep", "--link_distance_km", "nan"], ["sweep", "--divergence_mrad", "nan"],
    ["sweep", "--aperture_radius_m", "nan"], ["sweep", "--jitter_angle_mrad", "nan"]])
def test_non_finite_link_parameter_is_config_error(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert " and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # a density of 0 everywhere, with exit 0
    ["pdf", "--jitter_sigma_m", "0.005", "--rytov_variance", "0.5"],
    # non-finite integrands, and a ZeroDivisionError traceback
    ["sweep", "--jitter_sigma_m", "0.005", "--rytov_variance", "0.5", "--p_dbm_min", "0",
     "--p_dbm_max", "0"],
    ["sweep", "--jitter_sigma_m", "0.005", "--rytov_variance", "0.5", "--p_dbm_min", "0",
     "--p_dbm_max", "0", "--expressions", "dense_highpower"],
    # counts on a channel no average can be computed on
    ["mc", "--jitter_sigma_m", "0.005", "--rytov_variance", "0.5", "--n_symbols", "10",
     "--p_dbm_min", "0", "--p_dbm_max", "0"],
    # h_l = exp(-900) = 0: a math domain error, and a density of 0
    ["sweep", "--attenuation_per_km", "300"], ["pdf", "--attenuation_per_km", "300"]])
def test_underflowing_breakpoint_is_config_error(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "is not a positive normal double (mu = " in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["pdf", "--h_min", "0"], "h_min and h_max must be positive and finite"),
    (["pdf", "--h_max", "inf"], "h_min and h_max must be positive and finite"),
    (["pdf", "--h_points", "-1"], "h_points must be >= 1"),
    # a header alone, with exit 0, before
    (["pdf", "--h_points", "0"], "h_points must be >= 1"),
    (["mc", "--seed", "-1"], "seed must lie in [0, 2**64)"),
    (["mc", "--seed", str(2**64)], "seed must lie in [0, 2**64)"),
    # a result with exit 0 before, and an OverflowError or ValueError traceback
    (["sweep", "--modulation_m", "2048"], "modulation_m must be a power of two from 2 to 1024"),
    (["sweep", "--modulation_m", str(2**1030)], "modulation_m must be a power of two from 2 to"),
    (["mc", "--modulation_m", str(2**1030)], "modulation_m must be a power of two from 2 to")])
def test_pdf_grid_and_mc_seed_are_config_errors(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_pdf_grid_and_mc_seed_limits_are_accepted():
    for kw in (dict(seed=0), dict(seed=2**64 - 1), dict(h_points=1),
               dict(h_min=5e-324, h_max=1.7e308)):
        RunConfig(**kw)


@pytest.mark.parametrize("command", ["sweep", "mc"])
@pytest.mark.parametrize("flags", [["--p_dbm_min", "0", "--p_dbm_max", "4000",
                                    "--p_dbm_step", "1000"],
                                   # the grid's top point, 4000 dBm, lies above p_dbm_max
                                   ["--p_dbm_min", "0", "--p_dbm_max", "3100",
                                    "--p_dbm_step", "2000"]])
def test_huge_power_exit_code(command, flags, capsys):
    code, out = run_cli([command] + flags)
    assert code == 2
    assert out == ""
    assert "power grid reaches 4000 dBm" in capsys.readouterr().err


def test_pdf_finite_at_large_gamma():
    # gamma^2 = 109: the density's bulk lies where h^(gamma^2 - 1) overflows
    code, out = run_cli(["pdf", "--jitter_sigma_m", "0.095", "--rytov_variance", "0.154",
                         "--h_min", "1e-4", "--h_max", "1e-3", "--h_points", "5"])
    assert code == 0
    rows = rows_of(out)[1:]
    assert len(rows) == 5
    assert all(math.isfinite(float(p)) and float(p) >= 0.0 for _, p in rows)


def test_sweep_snr_finite_at_top_power():
    # 1,560 dBm lies inside the configuration's power limit, where
    # eta^2 E[X^2] E[H^2] / sigma_n^2 itself overflows a double
    code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "1560",
                         "--p_dbm_step", "1560"])
    assert code == 0
    low, top = rows_of(out)[1:]
    assert float(top[1]) - float(low[1]) == pytest.approx(1560.0, abs=1e-3)
    assert float(top[2]) - float(low[2]) == pytest.approx(3120.0, abs=1e-3)


def test_power_step_requires_target_ser():
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(["power-step"])
    assert exc_info.value.code == 2


def test_parser_builds_only_the_invoked_commands_flags(monkeypatch):
    # the top-level parser and the five subcommands add their -h each, and
    # power-step its three flags; of the subcommands, sweep alone gets
    # --config, --out and a flag per RunConfig field
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "0"])
    assert code == 0 and len(rows_of(out)) == 2
    assert len(calls) == 6 + 3 + 2 + len(fields(RunConfig))


def test_command_builds_the_channel_model_once(monkeypatch):
    # main validates the operating point, and the command reuses it
    calls = []
    pointing_params = channel.pointing_params

    def counting(*args):
        calls.append(args)
        return pointing_params(*args)

    monkeypatch.setattr(channel, "pointing_params", counting)
    code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "0"])
    assert code == 0 and len(rows_of(out)) == 2
    assert len(calls) == 1


def test_command_line_read_from_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fsolink", "pdf", "--h_points", "3"])
    code, out = run_cli(None)
    assert code == 0 and len(rows_of(out)) == 4


@pytest.mark.parametrize("argv", [[], ["bogus"], ["sweep", "--target-ser", "1e-3"],
                                  ["pdf", "--m-min", "2"], ["--p_dbm_min", "0", "sweep"]])
def test_bad_command_lines_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "fsolink: error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pdf", "sweep", "delta", "power-step", "mc"])
def test_command_help_lists_every_config_flag(command, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    text = capsys.readouterr().out
    assert all(f"--{f.name} V" in text for f in fields(RunConfig))
    assert "--config PATH" in text and "--out PATH" in text
