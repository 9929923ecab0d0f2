"""End-to-end checks of the command line front end.

Everything runs through isingring.cli.main with small rings and coarse
grids, so the whole file stays fast; only the BLAS-threading check starts
fresh interpreters, since the thread count is fixed when numpy loads.  The
byte-level comparisons pin the output contract: identical parameters must
give identical files, no matter how many workers or BLAS threads did the
computing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingring
import isingring.even_observables as even_mod
import isingring.simulate as simulate_mod
from isingring import cli
from isingring.cli import _float_list, _time_grid, main
from isingring.ed_oracle import expectation, quench_oracle, string_x
from isingring.model import QuenchConfig


def run_evolve(tmp_path, name, extra=()):
    out = tmp_path / name
    argv = ["evolve", "--n-sites", "6", "--g", "1.0",
            "--t-max", "2.0", "--dt", "0.1", "--out", str(out), *extra]
    assert main(argv) == 0
    return out.read_bytes()


def parse_csv(text):
    header = {}
    rows = []
    columns = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" = ", 1)
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return header, columns, np.asarray(rows)


def test_identical_arguments_give_identical_bytes(tmp_path):
    first = run_evolve(tmp_path, "a.csv")
    second = run_evolve(tmp_path, "b.csv")
    assert first == second


def test_worker_count_never_reaches_the_file(tmp_path):
    serial = run_evolve(tmp_path, "w1.csv", ("--workers", "1"))
    pooled = run_evolve(tmp_path, "w2.csv", ("--workers", "2"))
    assert serial == pooled
    assert b"workers" not in serial


def test_long_small_ring_grid_is_the_same_on_any_worker_count(tmp_path):
    # 2000 rows at N=10 make four evaluation blocks of block_times(10)
    argv = ["evolve", "--n-sites", "10", "--g", "1.0", "--t-max", "99.95", "--dt", "0.05"]
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main([*argv, "--workers", workers, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert len(parse_csv(tables[0].decode())[2]) == 2000


def test_blas_thread_count_never_reaches_the_file():
    src = str(Path(isingring.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "isingring.cli", "evolve", "--n-sites", "100",
            "--g", "1", "--t-max", "4.6", "--dt", "0.3"]
    tables = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        tables.append(subprocess.run(argv, env=env, capture_output=True,
                                     check=True).stdout)
    assert tables[0] and tables[0] == tables[1]


HEADER_CASES = {
    "evolve": (["--n-sites", "6", "--g", "1.0", "--t-max", "2.0", "--dt", "0.1",
                "--workers", "1"],
               {"dt": "0.10000000000000001", "g": "1", "n-sites": "6",
                "t-max": "2", "t-min": "0"}),
    "string-op": (["--n-sites", "8", "--g", "1.5", "--t-min", "0.1", "--t-max", "0.6",
                   "--dt", "0.25", "--sites", "2,4"],
                  {"dt": "0.25", "g": "1.5", "n-sites": "8", "sites": "2,4",
                   "t-max": "0.59999999999999998", "t-min": "0.10000000000000001"}),
    "sweep-g": (["--n-sites", "4", "--g-list", "0.5,1.5", "--t-max", "0.2", "--dt", "0.1"],
                {"dt": "0.10000000000000001", "g-list": "0.5,1.5", "n-sites": "4",
                 "t-max": "0.20000000000000001", "t-min": "0"}),
    "fit": (["--n-sites", "12", "--g-list", "0.5", "--window", "0.5,1.5", "--dt", "0.1"],
            {"dt": "0.10000000000000001", "g-list": "0.5", "n-sites": "12",
             "window": "0.5,1.5"}),
    "limits": (["--g", "2.0", "--t-max", "0.2", "--dt", "0.1"],
               {"dt": "0.10000000000000001", "g": "2", "quantities": "sz,cxx",
                "t-max": "0.20000000000000001", "t-min": "0"}),
}


@pytest.mark.parametrize("command", sorted(HEADER_CASES))
def test_header_lines_and_float_format(tmp_path, command):
    flags, echoed = HEADER_CASES[command]
    out = tmp_path / "fmt.csv"
    assert main([command, *flags, "--out", str(out)]) == 0
    raw = out.read_text()
    expected = {"command": command, "version": isingring.__version__, **echoed}
    assert [line for line in raw.splitlines() if line.startswith("#")] == [
        f"# {key} = {expected[key]}" for key in sorted(expected)]
    _, columns, rows = parse_csv(raw)
    assert rows.shape[1] == len(columns)
    # every value must round-trip the fixed 17-significant-digit format
    for line in raw.splitlines():
        if line.startswith("#") or line[0].isalpha():
            continue
        for field in line.split(","):
            assert format(float(field), ".17g") == field


def test_json_mirror_matches_csv(tmp_path):
    out = tmp_path / "run.csv"
    mirror = tmp_path / "run.json"
    argv = ["evolve", "--n-sites", "6", "--g", "0.5", "--t-max", "1.0",
            "--dt", "0.5", "--out", str(out), "--json-out", str(mirror)]
    assert main(argv) == 0
    header, columns, rows = parse_csv(out.read_text())
    payload = json.loads(mirror.read_text())
    assert payload["columns"] == columns
    assert payload["spec"] == header
    np.testing.assert_array_equal(np.asarray(payload["rows"]), rows)


def test_stdout_output(capsys):
    assert main(["evolve", "--n-sites", "4", "--g", "1.0",
                 "--t-max", "0.5", "--dt", "0.5"]) == 0
    header, columns, rows = parse_csv(capsys.readouterr().out)
    assert header["command"] == "evolve"
    assert len(rows) == 2


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n-sites = 6\n"
        "g = 1.0    # post-quench field\n"
        "t-max = 2.0\n"
        "dt = 0.1\n"
    )
    out = tmp_path / "cfg.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == run_evolve(tmp_path, "plain.csv")


def test_explicit_flag_beats_config_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sites = 6\ng = 1.0\nt-max = 2.0\ndt = 0.1\n")
    out = tmp_path / "override.csv"
    assert main(["evolve", "--config", str(cfg), "--g", "2.5",
                 "--out", str(out)]) == 0
    header, _, _ = parse_csv(out.read_text())
    assert header["g"] == "2.5"


def test_bad_config_line_is_rejected(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(SystemExit):
        main(["evolve", "--config", str(cfg), "--out", "-"])


def test_second_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sites = 6\ng = 1.0\nt-max = 2.0\ndt = 0.1\n")
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--config", str(cfg), "--config", str(cfg), "--out", "-"])
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {cfg}\n")
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--config", str(nested), "--out", "-"])
    assert err.value.code == 2


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--n-sites", "6", "--g", "1.0",
              "--t-max", "1.0", "--frobnicate", "3"])
    assert err.value.code == 2


def test_nonpositive_dt_is_rejected():
    with pytest.raises(SystemExit):
        main(["evolve", "--n-sites", "6", "--g", "1.0",
              "--t-max", "1.0", "--dt", "0"])


def test_invalid_ring_size_reports_cleanly(capsys):
    assert main(["evolve", "--n-sites", "7", "--g", "1.0",
                 "--t-max", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_float_list_range_syntax():
    assert _float_list("0.9:0.05:1.0") == [0.9, 0.95, 1.0]
    assert _float_list("0:0.1:0.3") == [0.0, 0.1, 0.2, 0.3]
    assert _float_list("0.9:0.005:1.0")[-2:] == [0.995, 1.0]
    assert _float_list("0.3,1.5") == [0.3, 1.5]


def test_uncountable_range_is_a_usage_error(capsys):
    # 1e300 steps are more than decimal arithmetic can divide out
    with pytest.raises(SystemExit) as err:
        main(["sweep-g", "--n-sites", "4", "--g-list", "0:1e-300:1", "--t-max", "0"])
    assert err.value.code == 2
    assert ("argument --g-list: range '0:1e-300:1' has too many points"
            in capsys.readouterr().err)


def test_sweep_echoes_exact_range_fields(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-g", "--n-sites", "4", "--g-list", "0.9:0.05:1.0",
                 "--t-max", "0.1", "--dt", "0.1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# g-list = 0.90000000000000002,0.94999999999999996,1" in text
    assert "0.9500000000000001" not in text
    _, _, rows = parse_csv(text)
    assert sorted(set(rows[:, 0])) == [0.9, 0.95, 1.0]


@pytest.mark.parametrize("window", ["20,10", "-1,5", "5,5"])
def test_fit_window_must_be_ordered_and_nonnegative(window, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--n-sites", "6", "--g-list", "0.5", f"--window={window}"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "argument --window" in err_text
    assert "need 0 <= lo < hi" in err_text and "--t-max" not in err_text


@pytest.mark.parametrize("command", ["sweep-g", "fit"])
@pytest.mark.parametrize("g_list", ["2:0.5:1", "", ","])
def test_empty_field_list_is_a_usage_error(command, g_list, capsys):
    argv = [command, "--n-sites", "6", "--g-list", g_list]
    if command == "sweep-g":
        argv += ["--t-max", "0.5"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "argument --g-list: expected at least one value" in capsys.readouterr().err


def test_empty_site_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["string-op", "--n-sites", "6", "--g", "1.0", "--t-max", "0.5",
              "--sites", ""])
    assert err.value.code == 2
    assert "argument --sites: expected at least one value" in capsys.readouterr().err


def test_repeated_site_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["string-op", "--n-sites", "6", "--g", "1.0", "--t-max", "0.5",
              "--sites", "1,1,2"])
    assert err.value.code == 2
    assert "argument --sites: site 1 is listed twice" in capsys.readouterr().err


def test_time_grid_stops_at_t_max():
    np.testing.assert_allclose(_time_grid(0.0, 1.0, 0.6), [0.0, 0.6])
    # spans that are whole steps up to roundoff keep their last point
    assert _time_grid(0.0, 35.0, 0.05).size == 701
    assert _time_grid(0.1, 0.7, 0.1).size == 7
    assert _time_grid(0.3, 0.3, 0.1).size == 1


@pytest.mark.parametrize("flag", ["--t-min", "--t-max", "--dt"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_time_grid_flag_is_refused(flag, value):
    flags = {"--t-min": "0", "--t-max": "1", "--dt": "0.5", flag: value}
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--n-sites", "4", "--g", "1.0",
              *(token for item in flags.items() for token in item)])
    # a string code: the interpreter prints it and exits with status 1
    assert err.value.code == f"error: {flag} must be finite"


@pytest.mark.parametrize("flags,points", [
    (["--t-max", "1e300"], "2e+301"),
    (["--t-max", "1e12", "--dt", "1e-3"], "1e+15"),
])
def test_huge_time_grid_is_refused(flags, points):
    # numpy refuses both sizes before allocating anything
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--n-sites", "4", "--g", "1", *flags])
    assert err.value.code == (f"error: --t-min/--t-max/--dt give {points} time points, "
                              "too many to hold")


@pytest.mark.parametrize("argv,code,message", [
    (["evolve", "--n-sites", "4", "--g", "1", "--t-min", "-1e3", "--t-max", "1"], 1,
     "error: time_grid must be non-negative"),
    (["evolve", "--n-sites", "4", "--g", "-1e0", "--t-max", "1"], 1,
     "error: field_g must be finite and >= 0"),
    (["sweep-g", "--n-sites", "4", "--g-list", "-1e0,2", "--t-max", "1"], 1,
     "error: field_g must be finite and >= 0"),
    (["fit", "--n-sites", "6", "--g-list", "0.5", "--window", "-1e0,5"], 2,
     "argument --window: need 0 <= lo < hi"),
])
def test_negative_flag_value_is_read_as_a_number(argv, code, message, capsys):
    # '-1e3' after a flag is its value, so the value's own check speaks,
    # not argparse's "expected one argument"
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    err_text = capsys.readouterr().err
    assert status == code
    assert message in err_text and "expected one argument" not in err_text


def test_non_finite_fit_window_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--n-sites", "6", "--g-list", "1.0", "--window", "1,inf"])
    assert err.value.code == 2
    assert "argument --window: bounds must be finite" in capsys.readouterr().err


def test_evolve_rows_never_pass_t_max(tmp_path):
    out = tmp_path / "short.csv"
    assert main(["evolve", "--n-sites", "4", "--g", "1.0", "--t-max", "1",
                 "--dt", "0.6", "--out", str(out)]) == 0
    header, _, rows = parse_csv(out.read_text())
    assert header["t-max"] == "1"
    np.testing.assert_array_equal(rows[:, 0], [0.0, 0.6])


def test_string_op_columns(tmp_path):
    out = tmp_path / "strings.csv"
    argv = ["string-op", "--n-sites", "8", "--g", "1.0", "--t-max", "1.0",
            "--dt", "0.25", "--sites", "2,4", "--out", str(out)]
    assert main(argv) == 0
    header, columns, rows = parse_csv(out.read_text())
    assert columns == ["t", "x2", "x4"]
    assert header["sites"] == "2,4"
    # the sigma-z tail wipes out every string longer than one site in the
    # fully x-polarized initial state; x2 then grows as the front arrives
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert rows[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(rows[:, 1])) > 0.05


def test_sweep_long_format(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-g", "--n-sites", "6", "--g-list", "0.5,1.5",
            "--t-max", "0.5", "--dt", "0.25", "--out", str(out)]
    assert main(argv) == 0
    header, columns, rows = parse_csv(out.read_text())
    assert columns[0] == "g"
    assert header["g-list"] == "0.5,1.5"
    assert rows.shape[0] == 6  # two fields, three times each
    np.testing.assert_array_equal(np.unique(rows[:, 0]), [0.5, 1.5])


def test_fit_reports_closed_forms(tmp_path):
    out = tmp_path / "fit.csv"
    argv = ["fit", "--n-sites", "40", "--g-list", "0.9,1.2",
            "--window", "3,8", "--dt", "0.1", "--out", str(out)]
    assert main(argv) == 0
    _, columns, rows = parse_csv(out.read_text())
    frame = dict(zip(columns, rows.T))
    assert frame["rate"][0] > 0
    # the quadrature rate column only exists inside the ordered phase
    assert np.isfinite(frame["rate_quadrature"][0])
    assert np.isnan(frame["rate_quadrature"][1])


@pytest.mark.parametrize("command,series_fn,flags", [
    ("evolve", "compute_series", ["--g", "1.0"]),
    ("string-op", "string_series", ["--g", "1.0", "--sites", "2,3"]),
    ("sweep-g", "compute_series", ["--g-list", "0.5,1.5"]),
])
def test_non_finite_cell_is_refused(tmp_path, monkeypatch, capsys, command, series_fn, flags):
    fast = getattr(cli, series_fn)
    series_name = "x3" if command == "string-op" else "cxy"

    def poisoned(*args, **kwargs):
        series = fast(*args, **kwargs)
        series.columns[series_name][2] = np.inf
        return series

    monkeypatch.setattr(cli, series_fn, poisoned)
    out = tmp_path / "table.csv"
    assert main([command, "--n-sites", "4", *flags, "--t-max", "0.3", "--dt", "0.1",
                 "--out", str(out)]) == 1
    assert (f"error: column {series_name} is not finite at t = 0.20000000000000001"
            in capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_c_stops_string_op_at_its_column(tmp_path, monkeypatch, capsys):
    kernel = simulate_mod.c_expectations_series

    def poisoned(amps, n_sites, sites):
        c = kernel(amps, n_sites, sites)
        c[1, 0] = np.nan
        return c

    monkeypatch.setattr(simulate_mod, "c_expectations_series", poisoned)
    out = tmp_path / "strings.csv"
    assert main(["string-op", "--n-sites", "6", "--g", "1.0", "--t-max", "0.5",
                 "--dt", "0.25", "--sites", "3", "--out", str(out)]) == 1
    assert "column x3 is not finite at t = 0.25" in capsys.readouterr().err
    assert not out.exists()
    # evolve refuses it before forming a two-site matrix from it
    assert main(["evolve", "--n-sites", "6", "--g", "1.0", "--t-max", "0.5",
                 "--dt", "0.25", "--out", str(out)]) == 1
    assert "<c_1> is not finite at t = 0.25" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_c_in_a_pooled_block_is_named(tmp_path, monkeypatch, capsys):
    # on a ring of N >= 64, 21 times make 16-time blocks t = 0..3.75 and
    # 4..5; only the second, run on a worker thread, gets a NaN at its
    # second time
    kernel = simulate_mod.c_expectations_series

    def poisoned(amps, n_sites, sites):
        c = kernel(amps, n_sites, sites)
        if amps[0].time[0] > 0:
            c[1, 0] = np.nan
        return c

    monkeypatch.setattr(simulate_mod, "c_expectations_series", poisoned)
    out = tmp_path / "strings.csv"
    grid = ["--n-sites", "64", "--g", "1.0", "--t-max", "5", "--dt", "0.25",
            "--workers", "2", "--out", str(out)]
    assert main(["string-op", *grid, "--sites", "3"]) == 1
    assert "column x3 is not finite at t = 4.25" in capsys.readouterr().err
    assert main(["evolve", *grid]) == 1
    assert "<c_1> is not finite at t = 4.25" in capsys.readouterr().err
    assert not out.exists()


def test_ed_check_passes_on_small_ring(capsys):
    assert main(["ed-check", "--n-sites", "6", "--g", "1.0",
                 "--points", "5"]) == 0
    text = capsys.readouterr().out
    assert "ed-check passed" in text
    assert text.count(" ok") == 9


def test_n14_gate_past_the_dense_limit(capsys):
    # ed-check's nine columns and every site's <X_j>, one ring past N = 12
    n, times = 14, (0.0, 0.9, 2.5, 4.0)
    worst = 0.0
    for g in (0.5, 1.0, 2.0):
        assert main(["ed-check", "--n-sites", str(n), "--g", str(g)]) == 0
        worst = max(worst, *(float(line.split("=")[1].split()[0])
                             for line in capsys.readouterr().out.splitlines()
                             if "max|dev|" in line))
        series = isingring.string_series(QuenchConfig(n, g, times), range(1, n + 1))
        oracle = quench_oracle(n, g)
        for i, t in enumerate(times):
            state = oracle.state(t)
            for j in range(1, n + 1):
                ref = expectation(state, n, string_x(j)).real
                worst = max(worst, abs(series.column(f"x{j}")[i] - ref))
    print(f"N=14 gate: max |fast - ED| = {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_ed_check_single_point_needs_no_time_span(capsys):
    assert main(["ed-check", "--n-sites", "4", "--g", "1.0",
                 "--t-max", "0", "--points", "1"]) == 0
    assert "ed-check passed for N=4, g=1.0 (1 times" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_ed_check_rejects_too_few_points(points):
    with pytest.raises(SystemExit, match="--points must be at least 1"):
        main(["ed-check", "--n-sites", "4", "--g", "1.0", "--points", points])


def test_ed_check_rejects_empty_time_span():
    with pytest.raises(SystemExit, match="--t-max must be positive"):
        main(["ed-check", "--n-sites", "4", "--g", "1.0",
              "--t-max", "0", "--points", "5"])


def test_ed_check_rejects_large_ring_before_the_fast_path(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "compute_series", lambda *a, **k: calls.append(a))
    assert main(["ed-check", "--n-sites", "18", "--g", "1.0"]) == 1
    assert "oracle handles even 4 <= N <= 16, got 18" in capsys.readouterr().err
    assert calls == []


def test_ed_check_fails_with_absurd_tolerance(capsys):
    assert main(["ed-check", "--n-sites", "4", "--g", "0.5",
                 "--points", "3", "--tol", "1e-16"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "FAILED" in captured.err


def test_ed_check_fails_on_nan(monkeypatch, capsys):
    fast = cli.compute_series

    def poisoned(config, workers=1):
        series = fast(config, workers)
        series.columns["cxy"][1] = np.nan
        return series

    monkeypatch.setattr(cli, "compute_series", poisoned)
    assert main(["ed-check", "--n-sites", "4", "--g", "0.5", "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert "cxy          max|dev| = nan  FAIL" in captured.out
    assert captured.out.count(" ok") == 8
    assert "FAILED" in captured.err


def test_limits_curves(tmp_path):
    out = tmp_path / "limits.csv"
    argv = ["limits", "--g", "2.0", "--t-max", "1.0", "--dt", "0.5",
            "--quantities", "sz,cxx", "--out", str(out)]
    assert main(argv) == 0
    _, columns, rows = parse_csv(out.read_text())
    assert columns == ["t", "sz", "cxx"]
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert rows[0, 2] == pytest.approx(1.0, abs=1e-9)


def test_limits_runs_one_quadrature_per_time(tmp_path, monkeypatch):
    # sz and cxx both read the quench integral I(g, t); it is computed once
    def table(name, quantities):
        out = tmp_path / name
        assert main(["limits", "--g", "0.8", "--t-max", "1.0", "--dt", "0.25",
                     "--quantities", quantities, "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")]

    calls = []
    quad = even_mod._safe_quad
    monkeypatch.setattr(even_mod, "_safe_quad", lambda *a: calls.append(a) or quad(*a))
    even_mod._quench_integral.cache_clear()
    both = table("both.csv", "sz,cxx")
    assert len(calls) == 5
    even_mod._quench_integral.cache_clear()
    sz = table("sz.csv", "sz")
    even_mod._quench_integral.cache_clear()
    cxx = table("cxx.csv", "cxx")
    assert both == [f"{a},{b.split(',')[1]}" for a, b in zip(sz, cxx)]


@pytest.mark.parametrize("g", ["-1", "nan"])
def test_limits_rejects_unphysical_field(g, capsys):
    assert main(["limits", "--g", g, "--t-max", "1.0"]) == 1
    assert "error: field_g must be finite and >= 0" in capsys.readouterr().err


def test_limits_reports_unconverged_quadrature(capsys):
    # at t = 5000 the integrand oscillates too fast for quad and for the
    # Simpson fallback alike
    assert main(["limits", "--g", "1", "--t-min", "5000", "--t-max", "5000",
                 "--quantities", "sz"]) == 1
    assert "error: quadrature did not converge" in capsys.readouterr().err


def test_limits_rejects_repeated_quantity(capsys):
    with pytest.raises(SystemExit) as err:
        main(["limits", "--g", "1", "--t-max", "0.2", "--quantities", "sz,sz"])
    assert err.value.code == 2
    assert "argument --quantities: quantity sz is listed twice" in capsys.readouterr().err


def test_limits_rejects_unknown_quantity():
    with pytest.raises(SystemExit):
        main(["limits", "--g", "2.0", "--t-max", "1.0",
              "--quantities", "entropy"])
