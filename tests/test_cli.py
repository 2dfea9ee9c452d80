import argparse
import csv
import io
import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fsolink import cli
from fsolink import errorrates as er
from fsolink.cli import ConfigError, RunConfig, load_config, main, parse_config_text
from support import GRID_POINTS, as_average, run_python


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


def test_every_field_parses_with_its_declared_kind():
    # every field written as key = value text reads back as the same value, of
    # its declared kind: an int as int, a float as float, none for an optional
    # float, a comma list for the expressions
    cfg = RunConfig(jitter_sigma_m=None, jitter_angle_mrad=0.1, modulation_m=8, seed=7,
                    expressions=("approx", "exact"))
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}

    def as_text(v):
        return "none" if v is None else ",".join(v) if isinstance(v, tuple) else str(v)

    text = "".join(f"{key} = {as_text(v)}\n" for key, v in values.items())
    parsed = parse_config_text(text)
    assert parsed == values and RunConfig(**parsed) == cfg
    assert {key: type(v) for key, v in parsed.items()} == {key: type(v) for key, v in values.items()}
    assert [key for key, v in values.items() if type(v) is int] == [
        "modulation_m", "n_symbols", "seed", "h_points"]
    assert parse_config_text("jitter_sigma_m =\njitter_angle_mrad = None") == {
        "jitter_sigma_m": None, "jitter_angle_mrad": None}
    for line in ("seed = 1.5", "rytov_variance = none", "h_points = none"):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(line)


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


@pytest.mark.parametrize("file_mode, flag_mode", [
    (("jitter_angle_mrad", "0.1"), ("jitter_sigma_m", "0.25")),
    (("jitter_sigma_m", "0.25"), ("jitter_angle_mrad", "0.1"))])
def test_jitter_flag_overrides_the_files_other_mode(file_mode, flag_mode, tmp_path):
    # a layer that sets one mode clears the other mode below it: flags over the
    # file over the default
    path = tmp_path / "cfg.txt"
    path.write_text("%s = %s\n" % file_mode)
    cfg = load_config(str(path), {flag_mode[0]: float(flag_mode[1])})
    assert getattr(cfg, flag_mode[0]) == float(flag_mode[1])
    assert getattr(cfg, file_mode[0]) is None
    code, out = run_cli(["pdf", "--config", str(path), "--" + flag_mode[0], flag_mode[1],
                         "--h_points", "3"])
    assert code == 0
    assert (code, out) == run_cli(["pdf", "--" + flag_mode[0], flag_mode[1], "--h_points", "3"])
    # the file's mode alone replaces the default's; a flag set to none clears nothing
    alone = load_config(str(path), {})
    assert getattr(alone, file_mode[0]) == float(file_mode[1])
    assert getattr(alone, flag_mode[0]) is None
    assert load_config(str(path), {flag_mode[0]: None}) == alone


def test_both_jitter_modes_in_one_layer_exit_2(tmp_path, capsys):
    both = tmp_path / "both.txt"
    both.write_text("jitter_sigma_m = 0.25\njitter_angle_mrad = 0.1\n")
    one = tmp_path / "one.txt"
    one.write_text("jitter_angle_mrad = 0.1\n")
    for argv in (["--jitter_sigma_m", "0.25", "--jitter_angle_mrad", "0.1"],
                 ["--config", str(one), "--jitter_sigma_m", "0.25", "--jitter_angle_mrad", "0.1"],
                 ["--config", str(both)], ["--config", str(both), "--jitter_sigma_m", "0.25"]):
        code, out = run_cli(["pdf", "--h_points", "3"] + argv)
        assert code == 2 and out == ""
        assert "set exactly one of jitter_sigma_m / jitter_angle_mrad" in capsys.readouterr().err


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


_SMALL_RUN = ["--p_dbm_min", "0", "--p_dbm_max", "2", "--n_symbols", "1000",
              "--h_points", "3", "--expressions", "exact,approx"]


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_command_returns_its_header_and_rows(name, tmp_path, capsys):
    # a command takes no sink and writes nothing: main writes its header and
    # rows, the same bytes to stdout and to --out, with the same exit code
    argv = [name, *_SMALL_RUN] + (["--target-ser", "1e-3", "--m-max", "2"]
                                  if name == "power-step" else [])
    args = cli.build_parser().parse_args(argv)
    cfg = load_config(None, cli._collect_overrides(args))
    header, rows = cli.COMMANDS[name](cfg, cfg.operating_point(), args)
    assert capsys.readouterr() == ("", "")
    code, out = run_cli(argv)
    assert rows_of(out) == [header, *rows]
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == code
    assert path.read_text() == out


def test_exit_code_reads_only_an_error_column():
    # exit 3 needs a set error column, as a failing delta row sets it (see
    # test_delta_no_crossing_reports_and_exit_code). The last cells of mc and
    # pdf, the seed and the density, are set in every row, yet they exit 0
    for name in ("mc", "pdf"):
        code, out = run_cli([name, *_SMALL_RUN])
        rows = rows_of(out)
        assert code == 0 and rows[0][-1] in ("seed", "pdf")
        assert all(row[-1] for row in rows[1:])


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


@pytest.mark.parametrize("flags", [[], ["--expressions", "exact"]])
def test_delta_without_an_approximation_is_config_error(flags, monkeypatch, capsys):
    # it swept the exact curve and wrote a header alone, with exit 0; now it
    # stops before computing any average
    def swept(*args):
        raise AssertionError("an average was computed")

    monkeypatch.setattr(er, "sweep_curve", swept)
    code, out = run_cli(["delta"] + flags)
    assert (code, out) == (2, "")
    assert "delta needs an expression besides exact" in capsys.readouterr().err


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


def _scanned_delta_rows(cfg):
    """The rows of fsolink delta as sampled curves give them: every
    expression swept over the whole grid by sweep_curve, a sweep's error
    failing its row (or, for the exact curve, the whole table), then each
    gap from crossing_power on the curves, a row failing with its sweep's
    error, else its crossing's, else the exact crossing's."""
    op, grid = cfg.operating_point(), cfg.power_grid()
    threshold = cfg.ber_threshold if cfg.modulation_m == 2 else cfg.ser_threshold

    def crossing(curve):
        """crossing_power of the curve that curve() samples, or the error of
        its sweep or else of its crossing."""
        try:
            return er.crossing_power(curve(), threshold), None
        except (er.QuadratureError, ValueError) as exc:
            return math.nan, exc

    try:
        exact = er.sweep_curve(op, er.AVERAGES["exact"], grid)
    except (er.QuadratureError, ValueError) as exc:
        return [["", "", "", "", "", "", str(exc)]]
    p_exact, e_exact = crossing(lambda: exact)
    rows = []
    for name in cfg.expressions:
        if name != "exact":
            p, error = crossing(lambda: er.sweep_curve(op, er.AVERAGES[name], grid))
            error = error or e_exact
            rows.append([f"{cfg.jitter_m:g}", f"{cfg.rytov_variance:g}", str(cfg.modulation_m),
                         f"{name}-vs-exact", "%.12e" % threshold]
                        + (["%.4f" % (p - p_exact), ""] if error is None else ["nan", str(error)]))
    return rows


@pytest.mark.parametrize("point", GRID_POINTS)
def test_delta_rows_match_the_sampled_curves(point):
    # the bisection finds the cell a scan of the sampled curve finds, so every
    # row, its gap, its error and the exit code, is the scan's, bit for bit
    for m in (2, 4, 64):
        names = ["exact", "approx", "dense", "dense_highpower"] + (["ook_simple"] if m == 2 else [])
        for step in (0.25, 1.0):
            cfg = RunConfig(jitter_sigma_m=point[0], rytov_variance=point[1], modulation_m=m,
                            p_dbm_step=step, expressions=tuple(names))
            code, out = run_cli(["delta", "--jitter_sigma_m", str(point[0]),
                                 "--rytov_variance", str(point[1]), "--modulation_m", str(m),
                                 "--p_dbm_step", str(step), "--expressions", ",".join(names)])
            rows = _scanned_delta_rows(cfg)
            assert rows_of(out)[1:] == rows
            assert code == (3 if any(row[6] for row in rows) else 0)


def test_delta_ignores_a_failure_where_its_search_does_not_probe(monkeypatch):
    # a failing average at a grid power the bisection never probes leaves the
    # row as it was, where a sweep of the whole grid fails on it
    argv = ["delta", "--p_dbm_step", "1", "--expressions", "exact,approx"]
    approx, probed = er.AVERAGES["approx"], set()

    def recording(op):
        probed.add(op.transmit_power_p)
        return approx(op)

    monkeypatch.setitem(er.AVERAGES, "approx", as_average(recording))
    code, expected = run_cli(argv)
    assert code == 0
    grid = RunConfig(p_dbm_step=1.0).power_grid()
    skipped = [p for p in grid if cli.dbm_to_watts(p) not in probed]
    assert len(skipped) > len(grid) // 2

    def failing(op):
        if op.transmit_power_p == cli.dbm_to_watts(skipped[0]):
            raise er.QuadratureError("approx fails")
        return approx(op)

    monkeypatch.setitem(er.AVERAGES, "approx", as_average(failing))
    assert run_cli(argv) == (0, expected)
    op = RunConfig().operating_point()
    with pytest.raises(er.QuadratureError, match="approx fails"):
        er.sweep_curve(op, as_average(failing), grid)


def test_delta_exact_search_failure_fails_every_row(monkeypatch):
    # an exact average that fails where its search probes fails every row, as
    # a failed exact refinement does: each gap nan with that error
    def failing(op):
        raise er.QuadratureError("exact fails")

    monkeypatch.setitem(er.AVERAGES, "exact", as_average(failing))
    code, out = run_cli(["delta", "--expressions", "exact,approx,dense"])
    assert code == 3
    assert [row[3:] for row in rows_of(out)[1:]] == [
        [f"{name}-vs-exact", "3.840000000000e-03", "nan", "exact fails"]
        for name in ("approx", "dense")]


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
        return as_average(expression)

    def failing_sweep(op):
        raise er.QuadratureError("approx sweep fails")

    for name in ("exact", "dense"):
        monkeypatch.setitem(er.AVERAGES, name, on_grid_only(name, er.AVERAGES[name]))
    monkeypatch.setitem(er.AVERAGES, "approx", as_average(failing_sweep))
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
    simulate_powers = cli.simulate_powers
    monkeypatch.setattr(cli, "simulate_powers", lambda op, p_watts, mc: seen.append(mc.workers)
                        or simulate_powers(op, p_watts, mc))
    # three batches of the default 10^6 symbols: a thread per usable CPU,
    # whatever the host's CPU count; the pool starts at most three
    argv = ["mc", "--p_dbm_min", "6", "--p_dbm_max", "6", "--modulation_m", "4",
            "--n_symbols", "2000001"]
    outs = []

    def run():
        code, out = run_cli(argv)
        assert code == 0
        outs.append(out)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid, cores=cores: set(range(cores)), raising=False)
        run()
    # without an affinity call, the CPU count; without that, one thread
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    for cores in (None, 4):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
        run()
    assert seen == [1, 2, 4, 1, 4]
    assert outs[1:] == outs[:1] * 4
    assert len(rows_of(outs[0])) == 2


def test_mc_csv_matches_golden_file(tmp_path):
    # golden/mc_m4_n300000_seed1.csv was written, before the batches drew in
    # blocks and shared their draws across powers, by
    #   fsolink mc --modulation_m 4 --n_symbols 300000 --p_dbm_min -6
    #       --p_dbm_max 12 --p_dbm_step 1.5 --seed 1
    path = tmp_path / "mc.csv"
    code, _ = run_cli(["mc", "--modulation_m", "4", "--n_symbols", "300000",
                       "--p_dbm_min", "-6", "--p_dbm_max", "12", "--p_dbm_step", "1.5",
                       "--seed", "1", "--out", str(path)])
    assert code == 0
    golden = Path(__file__).parent / "golden" / "mc_m4_n300000_seed1.csv"
    assert path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--expressions", "exact,approx,dense,dense_highpower,ook_simple"],
     "sweep_exact_approx_dense_dense_highpower_ook_simple.csv"),
    (["delta", "--modulation_m", "4", "--expressions", "exact,approx,dense,dense_highpower"],
     "delta_m4_exact_approx_dense_dense_highpower.csv"),
    (["power-step", "--target-ser", "1e-3"], "power_step_ser1e-3.csv")])
def test_analytic_csv_matches_golden_file(argv, name, tmp_path):
    # each golden file holds the CSV fsolink wrote with these arguments on the
    # default channel: the bits of every expression, including ook_simple from
    # its cut-off, that a change to the engine's code may not move
    path = tmp_path / name
    code, _ = run_cli(argv + ["--out", str(path)])
    assert code == 0
    assert path.read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()


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
    # an empty list wrote the SNR columns alone, and a repeated name its
    # column or row twice, each with exit 0
    for argv in (["sweep", "--expressions", ","], ["sweep", "--expressions", "exact,exact"],
                 ["delta", "--expressions", "exact,approx,approx"]):
        code, out = run_cli(argv)
        assert (code, out) == (2, "")


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


def test_negative_flag_value_in_e_notation(monkeypatch):
    # argparse alone reads -1e-05 as a flag; it is the flag's value, as with "="
    argv = ["sweep", "--p_dbm_min", "-1e-05", "--p_dbm_max", "0", "--p_dbm_step", "5"]
    joined = ["sweep", "--p_dbm_min=-1e-05", "--p_dbm_max=0", "--p_dbm_step=5"]
    code, out = run_cli(argv)
    assert (code, out) == (0, run_cli(joined)[1]) and len(rows_of(out)) == 2
    monkeypatch.setattr(sys, "argv", ["fsolink", *argv])
    assert run_cli(None) == (code, out)
    code, out = run_cli(["power-step", "--target-ser", "1e-3", "--m-min", "1", "--m-max", "1",
                         "--p_dbm_min", "-1e1", "--p_dbm_max", "-.5e1"])
    assert code == 0 and rows_of(out)[1][0] == "1"
    # a negative target is the configuration error it is with "="
    assert run_cli(["power-step", "--target-ser", "-1e-3"]) == (2, "")


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


def test_dense_highpower_scale_overflow_exit_code():
    # h_hat = 5.46e-308 on a 100 m link: g2 / 2 h_hat^-1 is inf, and the sweep
    # printed inf and nan with an empty errors column and exit 0
    code, out = run_cli(["sweep", "--link_distance_km", "0.1", "--divergence_mrad", "1",
                         "--aperture_radius_m", "0.2", "--rytov_variance", "1",
                         "--jitter_sigma_m", "113.39884545324281", "--modulation_m", "2",
                         "--p_dbm_min", "-30", "--p_dbm_max", "30", "--p_dbm_step", "20",
                         "--expressions", "exact,dense_highpower"])
    assert code == 3
    assert "inf" not in out
    for row in rows_of(out)[1:]:
        assert float(row[3]) > 0.0 and row[4] == "nan"
        assert row[5] == "dense_highpower: the value overflows when scaled by g2 / 2 h_hat^-1"
    assert len(rows_of(out)) == 5


def test_dense_highpower_below_gamma_squared_one_exit_code():
    # gamma^2 = 0.039: the row keeps the exact SER and prints the refusal
    code, out = run_cli(["sweep", "--jitter_sigma_m", "5", "--p_dbm_min", "0",
                         "--p_dbm_max", "0", "--expressions", "exact,dense_highpower"])
    assert code == 3
    (row,) = rows_of(out)[1:]
    assert 0.0 < float(row[3]) < 1.0 and row[4] == "nan"
    assert row[5] == "dense_highpower: high-power dense form requires gamma^2 > 1"


def test_ook_simple_above_m_two_is_config_error(capsys):
    # ook_simple is an OOK BER, so with M = 4 the flags contradict each
    # other: a configuration error (exit 2), not a numeric one (exit 3)
    for command in (["sweep", "--p_dbm_min", "0", "--p_dbm_max", "1", "--p_dbm_step", "1"],
                    ["delta"]):
        code, out = run_cli(command + ["--expressions", "exact,ook_simple", "--modulation_m", "4"])
        assert (code, out) == (2, "")
        assert "ook_simple" in capsys.readouterr().err
    code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "0",
                         "--expressions", "exact,ook_simple", "--modulation_m", "2"])
    assert code == 0 and len(rows_of(out)) == 2


def test_mc_where_sampled_gains_underflow_emits_no_warning():
    # gamma^2 = 3.9e-4: U^(1/gamma^2) underflows, so some gains are 0 and
    # |z| / h is inf; pytest turns a RuntimeWarning into an error. The count
    # is right: 0.4966 against the exact 0.4961
    code, out = run_cli(["mc", "--jitter_sigma_m", "50", "--n_symbols", "100000",
                         "--p_dbm_min", "60", "--p_dbm_max", "60"])
    assert code == 0
    assert rows_of(out)[1] == ["60.0000", "2", "4.966100000000e-01", "4.966100000000e-01",
                               "49661", "49661", "100000", "3.098903933239e-03",
                               "3.098903933239e-03", "1"]


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
    (["mc", "--modulation_m", str(2**1030)], "modulation_m must be a power of two from 2 to"),
    # link budgets whose derived constants leave the normal doubles: a
    # ZeroDivisionError, OverflowError or math domain error traceback before,
    # or counts with exit 0 (mc)
    (["pdf", "--link_distance_km", "0.003"], "wz_hat_sq = inf is not a positive normal"),
    (["pdf", "--aperture_radius_m", "1e10"], "wz_hat_sq = inf is not a positive normal"),
    (["pdf", "--divergence_mrad", "1e-200"], "wz_hat_sq = inf is not a positive normal"),
    (["pdf", "--jitter_sigma_m", "1e200"], "gamma^2 = 0.0 is not a positive normal"),
    (["sweep", "--noise_sigma_a", "1e-300"], "2 noise_sigma_n^2 = 0.0 is not a positive normal"),
    (["sweep", "--noise_sigma_a", "1e300"], "2 noise_sigma_n^2 = inf is not a positive normal"),
    (["power-step", "--noise_sigma_a", "1e300", "--target-ser", "1e-3"],
     "2 noise_sigma_n^2 = inf is not a positive normal"),
    (["sweep", "--alpha_w_per_a", "1e-300", "--beta_a_per_w", "1e-300"],
     "eta = 0.0 is not a positive normal"),
    (["mc", "--noise_sigma_a", "1e-300", "--n_symbols", "10", "--p_dbm_min", "0",
      "--p_dbm_max", "0"], "2 noise_sigma_n^2 = 0.0 is not a positive normal"),
    # a density of nan with exit 0: g2 / 2h overflows below the smallest normal h
    (["pdf", "--h_points", "3", "--h_min", "1e-320"],
     "h_min and h_max must be positive and finite normal doubles"),
    # grids of more than 100,001 points: one point past the limit, and 3e10
    # powers or an 8 TB pdf grid, which ran out of memory before
    (["sweep", "--p_dbm_min", "-30", "--p_dbm_max", "70.001", "--p_dbm_step", "1e-3"],
     "power grid has more than 100,001 points"),
    (["sweep", "--p_dbm_step", "1e-9"], "power grid has more than 100,001 points"),
    (["delta", "--p_dbm_step", "1e-9", "--expressions", "exact,approx"],
     "power grid has more than 100,001 points"),
    (["mc", "--p_dbm_step", "1e-9"], "power grid has more than 100,001 points"),
    (["pdf", "--h_points", "100002"], "h_points must be <= 100,001"),
    (["pdf", "--h_points", str(10**12)], "h_points must be <= 100,001")])
def test_pdf_grid_and_mc_seed_are_config_errors(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_pdf_grid_and_mc_seed_limits_are_accepted():
    for kw in (dict(seed=0), dict(seed=2**64 - 1), dict(h_points=1), dict(h_points=100_001),
               dict(h_min=sys.float_info.min, h_max=1.7e308)):
        RunConfig(**kw)
    # the largest power grid: -30 to 70 dBm in 0.001 dB steps
    assert len(RunConfig(p_dbm_min=-30, p_dbm_max=70, p_dbm_step=1e-3).power_grid()) == 100_001


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


def test_sweep_snr_finite_where_the_signal_underflows():
    # eta P E[H] / sigma_n underflows to 0 at eta = 1e-300 and -3000 dBm
    code, out = run_cli(["sweep", "--alpha_w_per_a", "1e-150", "--beta_a_per_w", "1e-150",
                         "--p_dbm_min", "-3000", "--p_dbm_max", "-3000"])
    assert code == 0
    (row,) = rows_of(out)[1:]
    assert row[1] == "-5992.0674" and math.isfinite(float(row[2]))


@pytest.mark.parametrize("flags, snrs", [
    # E[X^2] (h_g h_l)^2 underflows to 0 at h_g h_l = 4.7e-199
    (["--attenuation_per_km", "150"], ["-1946.5261", "-3889.5536"]),
    # E[H] underflows to 0 at gamma^2 = 9.8e-301
    (["--jitter_sigma_m", "1e150", "--attenuation_per_km", "140"],
     ["-3314.7478", "-3628.9770"]),
])
def test_sweep_snr_finite_where_a_gain_moment_underflows(flags, snrs):
    code, out = run_cli(["sweep", *flags, "--p_dbm_min", "0", "--p_dbm_max", "0"])
    assert code == 0
    (row,) = rows_of(out)[1:]
    assert row[1:3] == snrs


def test_pdf_finite_where_g2_over_2h_overflows():
    # at h = 2.2e-308 g2 / 2h overflows, where the density is about 2.6e300
    code, out = run_cli(["pdf", "--attenuation_per_km", "233", "--h_min",
                         "2.2250738585072014e-308", "--h_max", "1e-300", "--h_points", "4"])
    assert code == 0
    h, pdf = rows_of(out)[1]
    assert h == "2.225073858507e-308" and 2e300 < float(pdf) < 3e300


def test_power_step_requires_target_ser():
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(["power-step"])
    assert exc_info.value.code == 2


def test_config_flags_added_once_per_process(monkeypatch):
    # the top-level parser and the five subcommands add their -h each,
    # power-step its three flags, and the parent parser that every subcommand
    # shares --config, --out and a flag per RunConfig field, once: later
    # command lines, of any subcommand, build nothing
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    grid = ["--p_dbm_min", "0", "--p_dbm_max", "0"]
    for argv, built in ((["sweep"] + grid, 6 + 3 + 2 + len(fields(RunConfig))),
                        (["sweep"] + grid, 0), (["pdf", "--h_points", "3"], 0),
                        (["mc", "--n_symbols", "10"] + grid, 0),
                        (["power-step", "--target-ser", "1e-3", "--m-max", "1"], 0)):
        calls.clear()
        code, out = run_cli(argv)
        assert code == 0 and len(rows_of(out)) >= 2
        assert len(calls) == built, argv


def test_shared_parser_keeps_help_errors_and_exit_codes(capsys):
    # a parser reused across calls prints the same help, still rejects a bad
    # flag with exit 2, and parses a good command line after it
    def help_text(argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 0
        return capsys.readouterr().out

    for argv in (["--help"], ["delta", "--help"]):
        assert help_text(argv) == help_text(argv)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--no_such_flag", "1"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --no_such_flag" in capsys.readouterr().err
        code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "0"])
        assert code == 0 and len(rows_of(out)) == 2
    # a command line without a subcommand leaves it able to parse the next one
    for argv in (["bogus"], ["--p_dbm_min", "0", "sweep"], []):
        with pytest.raises(SystemExit):
            main(argv)
    code, out = run_cli(["pdf", "--h_points", "3"])
    assert code == 0 and len(rows_of(out)) == 4


def test_command_builds_the_channel_model_once(monkeypatch):
    # main validates the operating point, and the command reuses it: a
    # geometry takes two erf calls, for h_g and wz_hat_sq
    calls = []
    erf = math.erf

    def counting(x):
        calls.append(x)
        return erf(x)

    monkeypatch.setattr(math, "erf", counting)
    code, out = run_cli(["sweep", "--p_dbm_min", "0", "--p_dbm_max", "0"])
    assert code == 0 and len(rows_of(out)) == 2
    assert len(calls) == 2


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
