"""End-to-end tests for the command-line interface.

Numeric expectations reuse the frozen oracle values from the library
test modules (mpmath 30-digit runs and the reference chain); here the
focus is on output schemas, exit codes, determinism, and the
single-line error contract.
"""

import json
import math
import tracemalloc

import pytest

from bicatom.cli import RunConfig, main

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


def test_fit_init_reference(capsys):
    code, out, _ = run_cli(capsys, ["fit", "--init-reference"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["iterations"] <= 50
    assert doc["max_abs_residual"] <= REFERENCE_MAXRES


def test_fit_explicit_init_same_minimum(capsys):
    code_a, out_a, _ = run_cli(
        capsys, ["fit", "--init", "-1.83", "0.098", "0.585", "-0.457"])
    code_b, out_b, _ = run_cli(capsys, ["fit"])
    assert code_a == 0 and code_b == 0
    pa = json.loads(out_a)["params"]
    pb = json.loads(out_b)["params"]
    for key in ("G", "V0", "kappa", "b"):
        assert abs(pa[key] - pb[key]) < 1e-5


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


def test_fit_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["fit", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["G", "V0", "kappa", "b", "rms_residual",
                      "max_abs_residual", "iterations", "converged"]
    assert len(rows) == 1
    assert rows[0][-1] == "true"


def test_fit_nonconvergence_exits_nonzero(capsys):
    code, out, err = run_cli(capsys, ["fit", "--max-iters", "1",
                                      "--step-tol", "1e-12"])
    assert code == 1
    assert err.startswith("error:fit-not-converged:")
    assert "\n" not in err.strip()
    doc = json.loads(out)  # the report is still emitted
    assert doc["converged"] is False
    assert doc["iterations"] == 1


def test_fit_rejects_bad_step_tol(capsys):
    code, _, err = run_cli(capsys, ["fit", "--step-tol=-1e-5"])
    assert code == 2
    assert err.startswith("error:invalid-input:")


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


def test_solve_requires_nu(capsys):
    code, _, err = run_cli(capsys, ["solve"])
    assert code == 2
    assert err.startswith("error:usage:")
    assert "\n" not in err.strip()


def test_solve_rejects_negative_nu(capsys):
    code, _, err = run_cli(capsys, ["solve", "--nu", "-1"])
    assert code == 2
    assert err.startswith("error:invalid-input:")


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
    assert err.startswith("error:computation-failed:")
    assert "\n" not in err.strip()


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


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(command="frobnicate", fmt="csv", output=None)
    with pytest.raises(ValueError):
        RunConfig(command="solve", fmt="yaml", output=None)
    with pytest.raises(ValueError):
        RunConfig(command="fit", fmt="csv", output=None,
                  options={"step_tol": -1.0})
    cfg = RunConfig(command="solve", fmt="json", output=None,
                    options={"nu": 2.9})
    with pytest.raises(TypeError):
        cfg.options["nu"] = 3.0  # read-only mapping
