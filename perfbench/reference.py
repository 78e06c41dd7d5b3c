"""Independent reference checks for every benchmark request.

Nothing here imports bicatom.  Each check compares a request's answer with
a reference that shares no code with the library: 30-digit mpmath for the
screening function Z and for the Whittaker quantization, closed forms
recomputed in mpmath, and the frozen oracle values and tolerances of the
test suite.  Checks run after the timed region.

Answers are plain data (dicts of floats, lists and strings); a request
that raised carries ``{"error": "..."}``.  ``check`` returns None for a
pass and a one-line reason for a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Optional, Sequence

import mpmath as mp

from plans import HEADLINE_NU, REFERENCE_MORSE

mp.mp.dps = 30

_Y_STAR = mp.sqrt(2) / 4
QUARTER_BETA = mp.beta(mp.mpf(1) / 4, mp.mpf(1) / 4) / 4

# tests/test_bic_potential.py: Z at its maximum (30-digit oracle)
Z_PEAK = 1.79031677744099299
# Z crosses 1 at rho = 0.654988 and stays above 1 from there on
Z_ABOVE_ONE_FROM = 0.66

# tests/test_analytic_solver.py: mpmath oracles of the reference chain
CHAIN_A = 4.41442436004627
CHAIN_ALPHA_BETA = 1.8233737948405
CHAIN_EPS = -0.499732968097427
# tests/test_numerov_oracle.py: lambda of the reference surrogate at AB_CHAIN
LAM_MORSE = -1.66145819902645
# tests/test_acceptance.py AC3: reference fit on [0, 10], 200 samples
FIT_MAX_RESIDUAL = 0.0147465495766
# sanity ceiling for the minimax error of fits on the seeded 8-12 windows
FIT_WINDOW_RESIDUAL = 0.025

TOL_CALIBRATE = 1e-7     # test_analytic_solver / test_cli calibrate target
TOL_COULOMB = 1e-5       # test_numerov_oracle Coulomb eps = -1/2
TOL_MORSE_LAM = 1e-6     # test_numerov_oracle frozen Morse lambda
TOL_BIC_HEADLINE = 5e-4  # test_numerov_oracle / AC6 exact table row
TOL_STEP_PAIR = 1e-6     # h versus h/2 on the same coupling
TOL_ROOT = 1e-7          # |1F1(z0)| relative to its size on (0, z0)
ROOT_SAMPLES = 128       # 1F1 is sampled at z0 * k / ROOT_SAMPLES on (0, z0)


def z_tolerance(rho: float) -> float:
    """Absolute accuracy of Z promised by bic_potential's docstring and tests."""
    if rho <= 10.0:
        return 1e-11
    if rho <= 100.0:
        return 1e-10
    if rho <= 1e3:
        return 1e-8
    if rho <= 1e4:
        return 1e-7
    return 1e-6


def z_reference(rho: float) -> mp.mpf:
    """Z(rho) by 30-digit quadrature in t = sqrt(sqrt2/4 - y).

    The substitution removes the endpoint singularity exactly; the range is
    split at y = 8^k / rho so that the sharp drop past y ~ 1/rho sits on
    panel edges.
    """
    rho = mp.mpf(rho)
    if rho == 0:
        return mp.mpf(0)
    r2 = mp.sqrt(2)

    def g(t):
        y = _Y_STAR - t * t
        root1 = mp.sqrt(1 + y * y)
        numer = 2 * y * root1 - 2 * y * y - 1
        denom = 1 + 4 * y * y + 4 * y * root1
        # radicand (1 - 8y^2)/denom = t^2 * 2 sqrt2 (1 + 2 sqrt2 y)/denom
        s = mp.sqrt(2 * r2 * (1 + 2 * r2 * y) / denom)
        return 2 * numer / (s * root1 * mp.sqrt(1 + rho ** 4 * y ** 4))

    ys = [mp.mpf(0)]
    y = 1 / rho
    while y < _Y_STAR:
        ys.append(y)
        y *= 8
    ts = sorted({mp.sqrt(_Y_STAR - y) for y in ys} | {mp.mpf(0)})
    return rho * rho * mp.quad(g, ts) + QUARTER_BETA * rho


def first_root_failure(a: float, nu: float, kappa: float, b: float) -> Optional[str]:
    """Check that z0 = 2a e^{-kappa|b|} is the FIRST positive root of M_{a,nu}.

    M_{a,nu}(z) = e^{-z/2} z^{nu+1/2} 1F1(nu - a + 1/2; 1 + 2nu; z) has the
    sign of 1F1, so 1F1 must stay positive on (0, z0) and vanish at z0.
    """
    a, nu = mp.mpf(a), mp.mpf(nu)
    z0 = 2 * a * mp.exp(-mp.mpf(kappa) * abs(mp.mpf(b)))
    alpha, gamma = nu - a + mp.mpf(1) / 2, 1 + 2 * nu
    if alpha >= 0:
        return f"M_({a},{nu}) has no positive root"
    vals = [mp.hyp1f1(alpha, gamma, z0 * k / ROOT_SAMPLES)
            for k in range(1, ROOT_SAMPLES)]
    first_neg = next((k for k, v in enumerate(vals, 1) if v <= 0), None)
    if first_neg is not None:
        near = mp.nstr(z0 * first_neg / ROOT_SAMPLES, 6)
        return f"M changes sign before z0 = {mp.nstr(z0, 10)} (near {near})"
    at_root = abs(mp.hyp1f1(alpha, gamma, z0))
    if at_root > TOL_ROOT * max(abs(v) for v in vals):
        return f"z0 = {mp.nstr(z0, 10)} is not a root of M (1F1 = {mp.nstr(at_root, 3)})"
    return None


def _closed_form(nu: float, a: float, morse: Dict[str, float]):
    kappa, G, V0 = mp.mpf(morse["kappa"]), mp.mpf(morse["G"]), mp.mpf(morse["V0"])
    alpha_beta = kappa ** 2 * mp.mpf(a) ** 2 / (2 * abs(G))
    eps = -(kappa ** 2 * mp.mpf(nu) ** 2 / 2
            + alpha_beta * (V0 + QUARTER_BETA - abs(G))) / alpha_beta ** 2
    return float(alpha_beta), float(eps)


def _solution_failure(sol: Dict[str, float], morse: Dict[str, float],
                      rel: float) -> Optional[str]:
    """Closed forms for alpha_beta and eps, then the first-root condition."""
    alpha_beta, eps = _closed_form(sol["nu"], sol["a"], morse)
    if abs(sol["alpha_beta"] - alpha_beta) > rel * abs(alpha_beta):
        return f"alpha_beta {sol['alpha_beta']!r} != closed form {alpha_beta!r}"
    if abs(sol["eps_over_alpha2"] - eps) > rel * abs(eps):
        return f"eps {sol['eps_over_alpha2']!r} != closed form {eps!r}"
    return first_root_failure(sol["a"], sol["nu"], morse["kappa"], morse["b"])


def _table_failure(rho: Sequence[float], w: Sequence[float], rho_min: float,
                   rho_max: float, n: int, ref_index: Optional[int],
                   floor: float = 0.0) -> Optional[str]:
    """Grid, finiteness and the physical range of Z for every row; one row
    (``ref_index``) against the mpmath reference."""
    if len(rho) != n or len(w) != n:
        return f"expected {n} rows, got {len(rho)}"
    span = rho_max - rho_min
    for i, (r, v) in enumerate(zip(rho, w)):
        expect = rho_min + span * i / (n - 1)
        if abs(r - expect) > max(1e-12, floor) * max(1.0, abs(expect)):
            return f"row {i}: rho {r!r} off the uniform grid ({expect!r})"
        if not math.isfinite(v):
            return f"row {i}: non-finite W"
        if r == 0.0:
            if abs(v + float(QUARTER_BETA)) > 1e-9:
                return f"W(0) = {v!r}, expected -B(1/4,1/4)/4"
            continue
        z = -v * r
        if not (0.0 <= z <= Z_PEAK + max(1e-9, floor)):
            return f"row {i}: Z({r!r}) = {z!r} outside [0, Z_peak]"
        if r >= Z_ABOVE_ONE_FROM and z < 1.0 - max(1e-9, floor):
            return f"row {i}: Z({r!r}) = {z!r} below 1 past the unit crossing"
    if ref_index is not None and rho[ref_index] > 0.0:
        r = rho[ref_index]
        ref = float(z_reference(r))
        got = -w[ref_index] * r
        tol = max(z_tolerance(r), floor)
        if abs(got - ref) > tol:
            return f"Z({r!r}) = {got!r}, mpmath {ref!r} (tol {tol:g})"
    return None


def _tabulate_failure(req, ans, deep) -> Optional[str]:
    return _table_failure(ans["rho"], ans["w"], req["rho_min"], req["rho_max"],
                          req["n"], req["ref_index"] if deep else None)


def _fit_failure(fit: Dict[str, float], rho, w, reference: bool) -> Optional[str]:
    if not fit["converged"]:
        return f"fit did not converge in {fit['iterations']} rounds"
    # recompute the reported peak residual from the table and the parameters
    G, V0, kappa, b = (fit[k] for k in ("G", "V0", "kappa", "b"))
    qb = float(QUARTER_BETA)
    peak = max(abs(-(G * (1.0 - math.exp(-kappa * (r - b))) ** 2 + V0 + qb) - v)
               for r, v in zip(rho, w))
    if abs(peak - fit["max_abs_residual"]) > 1e-9 * max(1.0, peak):
        return f"reported max residual {fit['max_abs_residual']!r} != {peak!r}"
    if reference:
        for k, ref in REFERENCE_MORSE.items():
            if abs(fit[k] - ref) > 0.05 * abs(ref):
                return f"reference fit {k} = {fit[k]!r}, more than 5% off {ref!r}"
        if peak > FIT_MAX_RESIDUAL:
            return f"reference fit max residual {peak!r} > {FIT_MAX_RESIDUAL}"
    elif peak > FIT_WINDOW_RESIDUAL:
        return f"fit max residual {peak!r} > {FIT_WINDOW_RESIDUAL}"
    return None


def _chain_failure(req, ans, deep) -> Optional[str]:
    reference = bool(req.get("reference"))
    why = _table_failure(ans["rho"], ans["w"], 0.0, req["rho_max"], req["n"],
                         req["ref_index"] if deep else None)
    if why:
        return why
    fit = ans["fit"]
    why = _fit_failure(fit, ans["rho"], ans["w"], reference)
    if why:
        return why
    morse = REFERENCE_MORSE if reference else {k: fit[k] for k in REFERENCE_MORSE}
    solve = ans["solve"]
    if solve["nu"] != req["nu"]:
        return f"solve answered nu = {solve['nu']!r}, asked {req['nu']!r}"
    why = _solution_failure(solve, morse, 1e-10)
    if why:
        return "solve_a: " + why
    if reference:
        if abs(solve["a"] - CHAIN_A) > 1e-8:
            return f"reference a = {solve['a']!r}, oracle {CHAIN_A}"
        if abs(solve["alpha_beta"] - CHAIN_ALPHA_BETA) > 1e-7:
            return f"reference alpha_beta = {solve['alpha_beta']!r}, oracle {CHAIN_ALPHA_BETA}"
        if abs(solve["eps_over_alpha2"] - CHAIN_EPS) > 1e-7:
            return f"reference eps = {solve['eps_over_alpha2']!r}, oracle {CHAIN_EPS}"
    cal = ans["calibrate"]
    if abs(cal["eps_over_alpha2"] - req["target"]) > TOL_CALIBRATE:
        return f"calibrate_nu missed target {req['target']!r}: {cal['eps_over_alpha2']!r}"
    if reference and abs(cal["nu"] - HEADLINE_NU) > 1e-3:
        return f"calibrated nu = {cal['nu']!r}, expected {HEADLINE_NU}"
    why = _solution_failure(cal, morse, 1e-10)
    return "calibrate_nu: " + why if why else None


def _ground_state_failure(potential: str, alpha_beta: float, ans,
                          headline: bool) -> Optional[str]:
    if ans["node_count"] != 0:
        return f"ground state has {ans['node_count']} nodes"
    eps, lam = ans["eps_over_alpha2"], ans["lambda"]
    if abs(lam - eps * alpha_beta ** 2) > 1e-9 * abs(lam):
        return f"lambda {lam!r} != eps * alpha_beta^2"
    if potential == "coulomb" and abs(eps + 0.5) > TOL_COULOMB:
        return f"Coulomb eps = {eps!r}, expected -1/2"
    if potential == "morse" and abs(lam - LAM_MORSE) > TOL_MORSE_LAM:
        return f"Morse lambda = {lam!r}, oracle {LAM_MORSE}"
    if potential == "bic":
        # W >= W(0) = -B(1/4,1/4)/4 everywhere, so lambda lies above ab * W(0)
        if not (-alpha_beta * float(QUARTER_BETA) < lam < 0.0):
            return f"bic lambda {lam!r} outside (alpha_beta W(0), 0)"
        if headline and abs(eps + 0.5) > TOL_BIC_HEADLINE:
            return f"headline Numerov eps = {eps!r}, expected -0.5000"
    return None


def _ground_state_request_failure(req, ans, answers) -> Optional[str]:
    grid = int(round(40.0 / req["h"])) + 1
    if ans["grid_points"] != grid:
        return f"grid_points {ans['grid_points']} != {grid}"
    why = _ground_state_failure(req["potential"], req["alpha_beta"], ans,
                                bool(req.get("headline")))
    if why or not req.get("pair") or req["h"] == 1e-3:
        return why
    cycle = req["id"].split(".")[0]
    partner = next((a for r, a in answers if r.get("pair") and r["h"] == 1e-3
                    and r["id"].split(".")[0] == cycle), None)
    if partner is None or "error" in partner:
        return "step-size partner missing or failed"
    diff = abs(ans["eps_over_alpha2"] - partner["eps_over_alpha2"])
    if diff > TOL_STEP_PAIR:
        return f"eps changes by {diff:.2e} when h halves"
    return None


def _opt(argv: List[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def _cli_failure(req, ans) -> Optional[str]:
    argv = req["argv"]
    if ans["returncode"] != 0 or ans["stderr"]:
        return f"exit {ans['returncode']}: {ans['stderr'].strip()[:200]}"
    out = ans["stdout"]
    cmd = argv[0]
    if cmd in ("solve", "calibrate", "fit", "oracle"):
        doc = json.loads(out)
        if doc.get("schema") != 1 or doc.get("command") != cmd:
            return "JSON output lacks schema 1 / command"
    if cmd == "solve":
        if abs(doc["nu"] - float(_opt(argv, "--nu"))) > 1e-9 * doc["nu"]:
            return f"solve answered nu = {doc['nu']!r}"
        return _solution_failure(doc, REFERENCE_MORSE, 1e-8)
    if cmd == "calibrate":
        if abs(doc["eps_over_alpha2"] - float(_opt(argv, "--target"))) > TOL_CALIBRATE:
            return f"calibrate missed target: {doc['eps_over_alpha2']!r}"
        return _solution_failure(doc, REFERENCE_MORSE, 1e-8)
    if cmd == "fit":
        if not doc["converged"]:
            return f"fit did not converge in {doc['iterations']} rounds"
        if doc["max_abs_residual"] > FIT_WINDOW_RESIDUAL:
            return f"fit max residual {doc['max_abs_residual']!r} > {FIT_WINDOW_RESIDUAL}"
        return None
    if cmd == "oracle":
        return _ground_state_failure(doc["potential"], doc["alpha_beta"], doc,
                                     doc["potential"] == "bic")
    rows = list(csv.reader(io.StringIO(out)))
    if cmd == "potential":
        if rows[0] != ["rho", "Z", "W"]:
            return f"unexpected CSV header {rows[0]!r}"
        data = [[float(x) for x in row] for row in rows[1:]]
        for r, z, w in data:
            if abs(z + w * r) > 1e-8:
                return f"Z != -W rho at rho = {r!r}"
        # ten printed significant digits limit agreement to ~1e-9
        return _table_failure([d[0] for d in data], [d[2] for d in data],
                              float(_opt(argv, "--rho-min", "0")),
                              float(_opt(argv, "--rho-max", "10")),
                              int(_opt(argv, "--points", "1001")),
                              req["ref_index"], floor=1e-9)
    if cmd == "table1":
        failed = [row[0] for row in rows[1:] if row[-1] != "true"]
        return f"table1 rows failed: {failed}" if failed else None
    return f"unknown subcommand {cmd!r}"


def check(req: Dict, ans: Dict, deep: bool = True,
          answers: Sequence = ()) -> Optional[str]:
    """None if ``ans`` passes the reference checks for ``req``, else why not.

    ``deep`` enables the mpmath comparison of a table row (a seeded
    subsample of requests gets it); ``answers`` holds every (request,
    answer) pair of the run, for checks that compare two requests.
    """
    if "error" in ans:
        return "raised " + ans["error"]
    try:
        kind = req["kind"]
        if kind == "tabulate":
            return _tabulate_failure(req, ans, deep)
        if kind == "chain":
            return _chain_failure(req, ans, deep)
        if kind == "ground_state":
            return _ground_state_request_failure(req, ans, answers)
        if kind == "cli":
            return _cli_failure(req, ans)
        return f"unknown request kind {kind!r}"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
