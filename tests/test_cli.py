"""End-to-end tests for the command-line interface.

Numeric expectations reuse the frozen oracle values from the library
test modules (mpmath 30-digit runs and the reference chain); here the
focus is on output schemas, exit codes, determinism, and the
single-line error contract.
"""

import contextlib
import io
import json
import math
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bicatom import cli, morse_fit
from bicatom.cli import main

QUARTER_BETA_REF = 1.8540746773013712
AB_REF = 1.823373498
EPS_REF = -0.4997331195
NU_REF = 2.89873
LAM_MORSE_REF = -1.6614578420100963
REFERENCE_MAXRES = 0.0147465495766


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# potential


def test_potential_default_grid(capsys):
    code, out, err = run_cli(capsys, ["potential"])
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["rho", "Z", "W"]
    assert len(rows) == 1001
    assert rows[0][0] == "0"
    assert rows[0][1] == "0"
    assert abs(float(rows[0][2]) + QUARTER_BETA_REF) < 1e-8


def test_potential_trailing_newline(capsys):
    code, out, _ = run_cli(capsys, ["potential", "--points", "3"])
    assert code == 0
    assert out.endswith("\n")
    assert not out.endswith("\n\n")


def test_potential_two_points(capsys):
    code, out, _ = run_cli(capsys, ["potential", "--points", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2
    assert float(rows[1][0]) == 10.0


def test_potential_peak_location(capsys):
    code, out, _ = run_cli(capsys, ["potential", "--rho-max", "3",
                                    "--points", "301"])
    assert code == 0
    _, rows = parse_csv(out)
    z = [float(r[1]) for r in rows]
    rho_peak = float(rows[z.index(max(z))][0])
    assert abs(rho_peak - 2.139634) < 0.011


def test_potential_json(capsys):
    code, out, _ = run_cli(capsys, ["potential", "--points", "5",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "potential"
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["rho"] == 0
    assert doc["rows"][0]["Z"] == 0
    assert abs(doc["rows"][0]["W"] + QUARTER_BETA_REF) < 1e-8
    assert abs(doc["units"]["alpha"] - 1.0 / 137.036) < 1e-12
    # Z = -W * rho holds row by row at print precision
    for row in doc["rows"][1:]:
        assert abs(row["Z"] + row["W"] * row["rho"]) < 1e-8


def test_potential_rejects_single_point(capsys):
    code, out, err = run_cli(capsys, ["potential", "--points", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")
    assert "\n" not in err.strip()


def test_potential_rejects_huge_point_count_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["potential", "--points", str(10 ** 12)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")
    assert "\n" not in err.strip()
    assert peak < 1 << 20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_potential_streams_rows_to_file(capsys, tmp_path, fmt):
    # rows are written as they are formatted, so the traced peak stays near
    # the table's own arrays (~2.5 MB here).  The bound is 16 MB at 200 000
    # points scaled to this grid, since every term of the peak grows with
    # the points; building the whole text first peaks at 10-36 MB here
    points = 60000
    path = tmp_path / f"potential.{fmt}"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["potential", "--points", str(points),
                                          "--format", fmt, "--output", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "", "")
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        assert len(text.splitlines()) == points + 1
    else:
        assert len(json.loads(text)["rows"]) == points
    assert peak < (16 << 20) * points // 200_000


# ---------------------------------------------------------------------------
# fit


def test_fit_default_report(capsys):
    code, out, err = run_cli(capsys, ["fit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["converged"] is True
    assert doc["iterations"] <= 50
    assert doc["max_abs_residual"] <= REFERENCE_MAXRES
    assert doc["rms_residual"] <= doc["max_abs_residual"]
    params = doc["params"]
    for key, ref in (("G", -1.8300), ("V0", 0.09805),
                     ("kappa", 0.58520), ("b", -0.45720)):
        assert abs(params[key] - ref) <= 0.05 * abs(ref)


def test_fit_residuals_csv(capsys, tmp_path):
    resid_path = tmp_path / "residuals.csv"
    code, out, _ = run_cli(capsys, ["fit", "--residuals-out",
                                    str(resid_path)])
    assert code == 0
    doc = json.loads(out)
    header, rows = parse_csv(resid_path.read_text())
    assert header == ["rho", "W_exact", "W_morse", "residual"]
    assert len(rows) == 200
    max_resid = max(abs(float(r[3])) for r in rows)
    assert abs(max_resid - doc["max_abs_residual"]) < 1e-9
    for r in rows[:5]:
        assert abs(float(r[1]) - float(r[2]) - float(r[3])) < 1e-9


def test_fit_unwritable_residuals_print_no_report(capsys):
    # the report was printed before the residuals file failed to open
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["fit", "--residuals-out",
                                          "/nonexistent/dir/r.csv"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:io-error: ")
    assert len(err.splitlines()) == 1


def test_fit_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["fit", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["G", "V0", "kappa", "b", "rms_residual",
                      "max_abs_residual", "iterations", "converged"]
    assert len(rows) == 1
    assert rows[0][-1] == "true"


def test_fit_nonconvergence_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(morse_fit, "_MAX_SOLVES", 1)
    monkeypatch.setattr(morse_fit, "_RIPPLE_TOL", 1e-12)
    code, out, err = run_cli(capsys, ["fit"])
    assert (code, out) == (1, "")  # no report for a fit that failed
    lines = err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"error:computation-failed: no convergence in 1 reference solves: "
                        r"the relative ripple spread \S+ is not below 1e-12", lines[0])


@pytest.mark.parametrize("argv", [["fit", "--init", "-2", "0", "0.5", "-0.5"],
                                  ["fit", "--init-reference"],
                                  ["fit", "--max-iters", "2"],
                                  ["fit", "--step-tol=-1e-5"],
                                  ["fit", "--step-tol", "nan"]])
def test_fit_start_options_are_gone(capsys, argv):
    # the fit needs no start, and its solve cap and ripple tolerance are fixed
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:usage:")


def test_fit_window_off_the_origin_keeps_the_error_contract(capsys):
    # on [2, 10] no Morse well with real b fits the window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["fit", "--rho-min", "2", "--rho-max", "10"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error:computation-failed: the best quadratic in q = e^(-kappa rho) on "
        "[2, 10] has no Morse well with real b: ")


# ---------------------------------------------------------------------------
# solve


def test_solve_reference_nu(capsys):
    code, out, err = run_cli(capsys, ["solve", "--nu", "2.89873"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["alpha_beta"] - AB_REF) <= 1e-3
    assert abs(doc["eps_over_alpha2"] - EPS_REF) <= 1e-4
    assert abs(doc["a"] - 4.414424) <= 1e-3
    assert abs(doc["X"] - 6.756270935) <= 2e-3
    assert abs(doc["a"] - math.sqrt(2.0 * doc["A_abs"])) < 1e-8


def test_solve_csv_matches_json(capsys):
    code_c, out_c, _ = run_cli(capsys, ["solve", "--nu", "2.89873",
                                        "--format", "csv"])
    code_j, out_j, _ = run_cli(capsys, ["solve", "--nu", "2.89873"])
    assert code_c == 0 and code_j == 0
    header, rows = parse_csv(out_c)
    assert header == ["nu", "a", "X", "A_abs", "E", "alpha_beta",
                      "eps_over_alpha2"]
    doc = json.loads(out_j)
    for name, cell in zip(header, rows[0]):
        assert float(cell) == doc[name]


def test_solve_morse_overrides_change_result(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--nu", "2.89873",
                                    "--kappa", "0.6"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["alpha_beta"] - AB_REF) > 1e-3


def test_solve_well_past_the_origin(capsys):
    # the march from a = nu + 1/2 brackets the first root's crossing, which
    # lies below the first 0.1-grid point; this raised "puts a later root of M"
    code, out, err = run_cli(capsys, ["solve", "--nu", "3", "--b", "1"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["a"] == 3.596826322
    assert doc["eps_over_alpha2"] == -1.152578454
    code, out, _ = run_cli(capsys, ["oracle", "--potential", "morse", "--b", "1",
                                    "--alpha-beta", repr(doc["alpha_beta"])])
    assert code == 0
    assert abs(json.loads(out)["eps_over_alpha2"] - doc["eps_over_alpha2"]) <= 1e-8


def test_solve_requires_nu(capsys):
    code, _, err = run_cli(capsys, ["solve"])
    assert code == 2
    assert err.startswith("error:usage:")
    assert "\n" not in err.strip()


def test_solve_rejects_negative_nu(capsys):
    code, _, err = run_cli(capsys, ["solve", "--nu", "-1"])
    assert code == 2
    assert err.startswith("error:invalid-input:")


def test_solve_rejects_zero_depth(capsys):
    # observables divides by |G|; this printed a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, ["solve", "--nu", "2.6", "--G", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("command", [["solve", "--nu", "2.9"], ["calibrate"]])
def test_repulsive_depth_is_rejected(capsys, command):
    # the Whittaker reduction needs G < 0; G = 1.83 printed the G = -1.83 answer
    code, out, err = run_cli(capsys, [*command, "--G", "1.83"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")
    assert len(err.splitlines()) == 1


# argparse reads only -1 and -1.5 as negative numbers; these printed
# "error:usage: ... expected one argument"
@pytest.mark.parametrize("argv, plain", [
    (["calibrate", "--target", "-4.9973e-1"], ["calibrate", "--target", "-0.49973"]),
    (["calibrate", "--target=-4.9973e-1"], ["calibrate", "--target", "-0.49973"]),
    (["solve", "--nu", "2.9", "--G", "-1.83e0"], ["solve", "--nu", "2.9", "--G", "-1.83"]),
], ids=["calibrate", "calibrate-equals", "solve"])
def test_negative_numbers_with_an_exponent(capsys, argv, plain):
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    assert out == run_cli(capsys, plain)[1]


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_default_target(capsys):
    code, out, _ = run_cli(capsys, ["calibrate"])
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == -0.49973
    assert abs(doc["nu"] - NU_REF) <= 1e-3
    assert abs(doc["eps_over_alpha2"] - doc["target"]) <= 1e-7


def test_calibrate_unattainable_target(capsys):
    code, out, err = run_cli(capsys, ["calibrate", "--target", "-0.05"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:computation-failed: target eps/alpha^2 = -0.05 "
                          "not attainable for nu in (0.5, 10]")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("target", ["0", "-5", "-1e308", "-1e-320"])
def test_calibrate_target_out_of_reach(capsys, target):
    code, out, err = run_cli(capsys, ["calibrate", f"--target={target}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:computation-failed:")
    assert len(err.splitlines()) == 1


def test_calibrate_refuses_a_target_at_or_above_zero_by_name(capsys):
    # the well's ground state at nu = 1.9416 has eps/alpha^2 = +0.1178635667
    # (test_routes_agree), but the march searches only below 0
    code, out, err = run_cli(capsys, [
        "calibrate", "--target", "0.1178635667", "--G", "-2.5272374745880346",
        "--V0", "-0.17783027266171597", "--kappa", "0.7530205937882298",
        "--b", "-0.7759767841708094"])
    assert (code, out) == (1, "")
    assert err == ("error:computation-failed: target eps/alpha^2 = 0.1178635667 is not "
                   "below 0: calibrate_nu searches only for targets below 0, and its "
                   "march is proved only for V0 + B/4 + G > 0\n")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_morse(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--potential", "morse",
                                    "--alpha-beta", "1.823373498"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["lambda"] - LAM_MORSE_REF) < 1e-8
    assert doc["node_count"] == 0
    assert doc["grid_points"] == 40001
    assert abs(doc["eps_over_alpha2"] - EPS_REF) < 1e-3


def test_oracle_coulomb(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                    "--alpha-beta", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["eps_over_alpha2"] + 0.5) <= 1e-5


def test_oracle_bic(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--potential", "bic",
                                    "--alpha-beta", "1.83297"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["eps_over_alpha2"] + 0.50000) <= 5e-4
    assert doc["node_count"] == 0


def test_oracle_csv(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                    "--alpha-beta", "2.0",
                                    "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["potential", "alpha_beta", "rho_max", "h", "lambda",
                      "eps_over_alpha2", "node_count", "iterations",
                      "grid_points"]
    assert rows[0][0] == "coulomb"
    assert abs(float(rows[0][5]) + 0.5) <= 1e-5


def test_oracle_rejects_zero_coupling(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--potential", "morse",
                                    "--alpha-beta", "0"])
    assert code == 2
    assert err.startswith("error:invalid-input:")


def test_oracle_rejects_huge_grid_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                          "--alpha-beta", "1.0", "--h", "1e-9"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")
    assert "\n" not in err.strip()
    assert peak < 1 << 20


def test_oracle_repulsive_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--potential", "morse",
                                    "--alpha-beta", "1.0",
                                    "--G", "0.5", "--V0", "-3.0"])
    assert code == 1
    assert err.startswith("error:computation-failed:")


# ---------------------------------------------------------------------------
# table1


def test_table1_all_rows_pass(capsys):
    code, out, err = run_cli(capsys, ["table1"])
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["row", "minus_eps_over_alpha2", "alpha_beta",
                      "ref_minus_eps_over_alpha2", "ref_alpha_beta", "pass"]
    assert [r[0] for r in rows] == ["morse-analytic", "bic-numerov",
                                    "empirical"]
    assert all(r[-1] == "true" for r in rows)
    assert abs(float(rows[0][1]) - 0.4997331195) <= 1e-4
    assert abs(float(rows[0][2]) - AB_REF) <= 1e-3
    assert abs(float(rows[1][1]) - 0.50000) <= 5e-4
    assert float(rows[1][2]) == 1.83297
    assert rows[2][2] == ""  # the empirical row carries no coupling


def test_table1_json(capsys):
    code, out, _ = run_cli(capsys, ["table1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 3
    assert all(row["pass"] is True for row in doc["rows"])
    assert doc["rows"][2]["alpha_beta"] is None


# ---------------------------------------------------------------------------
# cross-cutting contracts


def test_byte_identical_reruns(capsys):
    _, out_a, _ = run_cli(capsys, ["solve", "--nu", "2.89873"])
    _, out_b, _ = run_cli(capsys, ["solve", "--nu", "2.89873"])
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, ["potential", "--points", "50"])
    _, out_d, _ = run_cli(capsys, ["potential", "--points", "50"])
    assert out_c == out_d


def test_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, ["potential", "--points", "20",
                                    "--output", str(path)])
    assert code == 0
    assert out == ""
    _, stdout_run, _ = run_cli(capsys, ["potential", "--points", "20"])
    assert path.read_text() == stdout_run


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run_cli(capsys, ["potential", "--points", "3",
                                    "--output", "/nonexistent/dir/out.csv"])
    assert code == 1
    assert err.startswith("error:io-error:")
    assert "\n" not in err.strip()


def test_unknown_command_usage_error(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 2
    assert err.startswith("error:usage:")


def test_ten_significant_digits(capsys):
    _, out, _ = run_cli(capsys, ["solve", "--nu", "2.89873"])
    doc_text = out
    assert "1.823373795" in doc_text
    assert "-0.4997329681" in doc_text


@pytest.mark.parametrize("argv", [
    # alpha_beta^2 overflowed: an OverflowError traceback
    ["solve", "--nu", "2", "--G=-1e-300"],
    # alpha_beta > 0 but its square underflowed: ZeroDivisionError tracebacks
    ["solve", "--nu", "2", "--G=-1e300"],
    ["solve", "--nu", "2", "--kappa", "1e-160"],
    ["calibrate", "--G=-1e300"],
    ["calibrate", "--kappa", "1e-160"],
    # z0 = 2a e^(kappa b) > 200: z^(nu+1/2) overflowed before 1F1 checked z
    ["solve", "--nu", "2.9", "--b", "800"],
    ["calibrate", "--b", "800"],
    # e^(kappa b) itself overflowed
    ["solve", "--nu", "2.9", "--b", "1e6"],
    # morse_w's square overflowed with a RuntimeWarning
    ["oracle", "--potential", "morse", "--alpha-beta", "1", "--b", "1000"],
])
def test_extreme_morse_parameters_fail_cleanly(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code != 0
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(("error:invalid-input:", "error:computation-failed:"))


BEYOND = "whittaker_m supports z <= 200, 1F1's range, got "


@pytest.mark.parametrize("argv, detail", [
    (["solve", "--nu", "2.9", "--b", "800"],
     "kappa = 0.5852, b = 800.0 put X = 2a e^(kappa b) = 1.41845e+204 at a = 3.4: "
     + BEYOND + "a = 3.4, nu = 2.9, z = 1.4184484613417063e+204"),
    (["calibrate", "--b", "800"],
     "kappa = 0.5852, b = 800.0 put X = 2a e^(kappa b) = 2.47213e+204 at a = 5.92565: "
     + BEYOND + "a = 5.925649707918684, nu = 5.4, z = 2.4721260913668204e+204"),
    (["solve", "--nu", "2.9", "--b", "1e6"],
     "kappa = 0.5852, b = 1000000.0 put X = 2a e^(kappa b) = inf at a = 3.4: "
     + BEYOND + "a = 3.4, nu = 2.9, z = inf"),
])
def test_boundary_point_beyond_1f1_range_names_kappa_and_b(capsys, argv, detail):
    # these said "kummer_m supports 0 <= z <= 200, got 1.4184484613417063e+204";
    # now whittaker_m refuses z, and the prefix names where it came from
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error:invalid-input: {detail}\n"


NEAR_0 = "whittaker_m's prefactor e^(-z/2) z^(nu+1/2) underflows at z = "


@pytest.mark.parametrize("argv, detail", [
    # M's prefactor underflowed to 0.0, which the march took for an exact
    # root: solve printed a = 3.4 and calibrate nu = 5.4, and both exited 0
    (["solve", "--nu", "2.9", "--b", "-1000", "--format", "csv"],
     "kappa = 0.5852, b = -1000.0 put X = 2a e^(kappa b) = 4.82368e-254 at a = 3.4: "
     + NEAR_0 + "4.823675709033238e-254, nu = 2.9"),
    (["calibrate", "--b", "-1000"],
     "kappa = 0.5852, b = -1000.0 put X = 2a e^(kappa b) = 8.40689e-254 at a = 5.92565: "
     + NEAR_0 + "8.406886045978605e-254, nu = 5.4"),
    # e^(kappa b) underflowed to 0: whittaker_m refuses z = 0, and the
    # prefix names the kappa and b that gave it
    (["solve", "--nu", "2.9", "--kappa", "1e308"],
     "kappa = 1e+308, b = -0.4572 put X = 2a e^(kappa b) = 0 at a = 3.4: "
     "whittaker_m requires z > 0, got 0.0"),
    (["solve", "--nu", "2.9", "--b", "-1e308"],
     "kappa = 0.5852, b = -1e+308 put X = 2a e^(kappa b) = 0 at a = 3.4: "
     "whittaker_m requires z > 0, got 0.0"),
])
def test_boundary_point_near_0_names_kappa_and_b(capsys, argv, detail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error:invalid-input: {detail}\n"


def test_unknown_format_usage_error(capsys):
    code, out, err = run_cli(capsys, ["solve", "--nu", "2.9", "--format", "yaml"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:usage:")


def test_oracle_checks_grid_before_building_spline(capsys, monkeypatch):
    def no_spline(*args, **kwargs):
        raise AssertionError("bic_interpolator called before the grid check")

    monkeypatch.setattr(cli, "bic_interpolator", no_spline)
    code, out, err = run_cli(capsys, ["oracle", "--potential", "bic",
                                      "--alpha-beta", "1.8", "--rho-max", "1000",
                                      "--h", "1e-9"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:invalid-input:")


# Full stdout of ten commands: the first three recorded before the CLI's
# argument layer and the units record were simplified, table1 and the
# Coulomb oracle before B(1/4,1/4)/4 became a literal, the last five
# before the JSON writer was cut down to the shapes printed; any change
# to a printed digit or to the layout shows here.  The oracle's
# iterations went from 6 to 2 when the search began from a Ritz
# eigenvalue.
GOLDEN = {
    ("solve", "--nu", "2.89873"): """\
{
  "schema": 1,
  "command": "solve",
  "nu": 2.89873,
  "a": 4.41442436,
  "X": 6.756271491,
  "A_abs": 9.743571215,
  "E": -4.201317806,
  "alpha_beta": 1.823373795,
  "eps_over_alpha2": -0.4997329681
}
""",
    # E is rounded from nu = 2.8989226742057983, the 40-digit root on the
    # target curve; the nested search's nu (5e-12 low) printed -4.201876335
    ("calibrate", "--target", "-0.4997", "--format", "csv"): """\
target,nu,a,X,A_abs,E,alpha_beta,eps_over_alpha2
-0.4997,2.898922674,4.414638572,6.756599342,9.744516859,-4.201876336,1.823550759,-0.4997
""",
    ("potential", "--points", "5", "--format", "json"): """\
{
  "schema": 1,
  "command": "potential",
  "rho_min": 0,
  "rho_max": 10,
  "points": 5,
  "units": {
    "alpha": 0.007297352521,
    "conventions": "hbar = m_e = c = 1; lengths in Compton wavelengths \
lambda_C = hbar/(m_e c); energies in units of m_e c^2; rho = r/beta with \
beta Born's length parameter"
  },
  "rows": [
    {
      "rho": 0,
      "Z": 0,
      "W": -1.854074677
    },
    {
      "rho": 2.5,
      "Z": 1.765859664,
      "W": -0.7063438657
    },
    {
      "rho": 5,
      "Z": 1.378548301,
      "W": -0.2757096602
    },
    {
      "rho": 7.5,
      "Z": 1.221227354,
      "W": -0.1628303138
    },
    {
      "rho": 10,
      "Z": 1.154192179,
      "W": -0.1154192179
    }
  ]
}
""",
    ("table1", "--format", "csv"): """\
row,minus_eps_over_alpha2,alpha_beta,ref_minus_eps_over_alpha2,ref_alpha_beta,pass
morse-analytic,0.4997329681,1.823373795,0.4997331195,1.823373498,true
bic-numerov,0.5000002578,1.83297,0.5,1.83297,true
empirical,0.49973,,0.4997329681,,true
""",
    ("oracle", "--potential", "coulomb", "--alpha-beta", "1.0"): """\
{
  "schema": 1,
  "command": "oracle",
  "potential": "coulomb",
  "alpha_beta": 1,
  "rho_max": 40,
  "h": 0.001,
  "lambda": -0.499999667,
  "eps_over_alpha2": -0.499999667,
  "node_count": 0,
  "iterations": 2,
  "grid_points": 40001
}
""",
    ("fit",): """\
{
  "schema": 1,
  "command": "fit",
  "params": {
    "G": -1.830220338,
    "V0": 0.09617861371,
    "kappa": 0.5838988432,
    "b": -0.4569895455
  },
  "rms_residual": 0.008807900635,
  "max_abs_residual": 0.01276684322,
  "iterations": 4,
  "converged": true,
  "window": {
    "rho_min": 0,
    "rho_max": 10,
    "samples": 200
  }
}
""",
    ("fit", "--format", "csv"): """\
G,V0,kappa,b,rms_residual,max_abs_residual,iterations,converged
-1.830220338,0.09617861371,0.5838988432,-0.4569895455,0.008807900635,0.01276684322,4,true
""",
    ("potential", "--points", "5"): """\
rho,Z,W
0,0,-1.854074677
2.5,1.765859664,-0.7063438657
5,1.378548301,-0.2757096602
7.5,1.221227354,-0.1628303138
10,1.154192179,-0.1154192179
""",
    ("oracle", "--potential", "morse", "--alpha-beta", "1.8", "--format", "csv"): """\
potential,alpha_beta,rho_max,h,lambda,eps_over_alpha2,node_count,iterations,grid_points
morse,1.8,40,0.001,-1.63337524,-0.5041281606,0,1,40001
""",
    # W_s >= 0.646 everywhere, tending to +1.646: the eps/alpha^2 that
    # solve --nu 0.7 prints on this well
    ("oracle", "--potential", "morse", "--alpha-beta", "0.7200162872432606",
     "--G", "-1", "--V0", "-2.5", "--kappa", "1", "--b", "2"): """\
{
  "schema": 1,
  "command": "oracle",
  "potential": "morse",
  "alpha_beta": 0.7200162872,
  "rho_max": 40,
  "h": 0.001,
  "lambda": 0.9400930399,
  "eps_over_alpha2": 1.813369038,
  "node_count": 0,
  "iterations": 3,
  "grid_points": 40001
}
""",
    ("table1", "--format", "json"): """\
{
  "schema": 1,
  "command": "table1",
  "rows": [
    {
      "row": "morse-analytic",
      "minus_eps_over_alpha2": 0.4997329681,
      "alpha_beta": 1.823373795,
      "ref_minus_eps_over_alpha2": 0.4997331195,
      "ref_alpha_beta": 1.823373498,
      "pass": true
    },
    {
      "row": "bic-numerov",
      "minus_eps_over_alpha2": 0.5000002578,
      "alpha_beta": 1.83297,
      "ref_minus_eps_over_alpha2": 0.5,
      "ref_alpha_beta": 1.83297,
      "pass": true
    },
    {
      "row": "empirical",
      "minus_eps_over_alpha2": 0.49973,
      "alpha_beta": null,
      "ref_minus_eps_over_alpha2": 0.4997329681,
      "ref_alpha_beta": null,
      "pass": true
    }
  ]
}
""",
}


def golden_id(argv):
    # a command's first entry is named by the command alone
    first = next(key for key in GOLDEN if key[0] == argv[0])
    return argv[0] if argv == first else "-".join(a.lstrip("-") for a in argv)


def test_oracle_rejects_box_truncated_state(capsys):
    # kappa*rho_max is 2.7, so the box lifts the energy; printed as -0.4832653072
    # (exact: -1/2) before the edge-decay check
    code, out, err = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                      "--alpha-beta", "0.1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:computation-failed: rho_max = 40 truncates")


def test_oracle_rejects_unresolved_state(capsys):
    # the Bohr radius 1/300 is 3 steps of h = 1e-3: printed as -0.4788022821
    # (exact: -1/2) before the resolution check
    code, out, err = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                      "--alpha-beta", "300"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:computation-failed: h = 0.001 does not resolve")
    assert len(err.splitlines()) == 1


def test_oracle_ritz_overflow_is_too_coarse(capsys):
    # above alpha_beta = 1.34e154 the Ritz start's matrix overflows, which
    # printed "error:invalid-input: Eigenvalues did not converge" and exited 2
    code, out, err = run_cli(capsys, ["oracle", "--potential", "coulomb",
                                      "--alpha-beta", "1e200"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:computation-failed: h = 0.001 is too coarse")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, min_w", [
    # this printed "h^2 f/12 reaches inf at lambda = -inf"
    (["oracle", "--potential", "coulomb", "--alpha-beta", "1e308"], "-1000"),
    # alpha_beta * max W overflows as well: a RuntimeWarning, and a
    # traceback under warnings-as-errors
    (["oracle", "--potential", "morse", "--alpha-beta", "1e308", "--V0", "100"], "-101.753"),
])
def test_oracle_overflowing_floor_prints_no_inf(capsys, argv, min_w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == ("error:computation-failed: h = 0.001 is too coarse at alpha_beta = "
                   "1e+308: h^2 f/12 overflows, as alpha_beta * min W does, with "
                   f"min W = {min_w} (Numerov needs < 1)\n")


@pytest.mark.parametrize("argv", list(GOLDEN), ids=golden_id)
def test_golden_output(capsys, argv):
    code, out, err = run_cli(capsys, list(argv))
    assert code == 0
    assert err == ""
    assert out == GOLDEN[argv]


def json_strings(v):
    """Every key and string value in a parsed JSON document."""
    if isinstance(v, dict):
        for k, u in v.items():
            yield k
            yield from json_strings(u)
    elif isinstance(v, list):
        for u in v:
            yield from json_strings(u)
    elif isinstance(v, str):
        yield v


@pytest.mark.parametrize("argv", [
    ["potential", "--points", "3"],
    ["fit"],
    ["solve", "--nu", "2.89873"],
    ["calibrate"],
    ["oracle", "--potential", "coulomb", "--alpha-beta", "1"],
    ["oracle", "--potential", "morse", "--alpha-beta", "1.8"],
    ["oracle", "--potential", "bic", "--alpha-beta", "1.83297"],
    ["table1"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_json_needs_no_escaping(capsys, argv):
    # the CLI quotes its strings as they are: each must be printable
    # ASCII with no quote or backslash for that to be JSON
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == argv[0]
    for text in json_strings(doc):
        assert text.isascii() and text.isprintable(), text
        assert '"' not in text and "\\" not in text, text


# The error contract under extreme inputs: any mix of ordinary and extreme
# Morse parameters (+-1e+-300, subnormals, 0) either succeeds silently or
# fails with one error line, and never lets an exception or a warning out.
EXTREME = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e300])


def ordinary_or_extreme(lo, hi):
    signed_extreme = st.tuples(EXTREME, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return st.one_of(st.floats(lo, hi), signed_extreme)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@seed(1201)
@given(st.sampled_from(["solve", "calibrate"]),
       ordinary_or_extreme(-3.0, -0.5), ordinary_or_extreme(-1.0, 1.0),
       ordinary_or_extreme(0.2, 2.0), ordinary_or_extreme(-2.0, 0.0),
       ordinary_or_extreme(0.2, 8.0), ordinary_or_extreme(-1.2, -0.05))
def test_error_contract_under_extreme_inputs(command, g, v0, kappa, b, nu, target):
    argv = [command, f"--G={g!r}", f"--V0={v0!r}", f"--kappa={kappa!r}", f"--b={b!r}"]
    argv.append(f"--nu={nu!r}" if command == "solve" else f"--target={target!r}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert re.match(r"error:[a-z0-9-]+: ", lines[0])
