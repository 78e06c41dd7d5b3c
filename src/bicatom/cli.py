"""Command-line interface for the bicatom library.

Subcommands
-----------
``potential``
    Tabulate the screening function Z(rho) and the effective potential
    W(rho) on an equally spaced grid.
``fit``
    Fit the four-parameter Morse surrogate to the exact potential and
    print the fit report; optionally dump per-sample residuals.
``solve``
    Solve the surrogate bound-state problem at a fixed shape parameter
    ``nu`` and print the derived observables.
``calibrate``
    Search for the ``nu`` that reproduces a target energy ratio
    ``eps / alpha^2``.
``oracle``
    Run the Numerov ground-state solver for a chosen radial potential
    (``coulomb``, ``morse``, or ``bic``) at a given coupling.
``table1``
    Emit a three-row summary comparing the surrogate-analytic result,
    the Numerov result for the exact potential, and the empirical
    target, with a pass/fail flag per row.

Output conventions
------------------
Every float is printed with ten significant digits (``%.10g``).  The
computation is fully deterministic, so repeated runs of the same
command produce byte-identical output.  CSV output always includes a
header row; JSON output always carries a top-level ``"schema": 1``
marker.  All failures exit nonzero after printing a single line

    error:<code>: <detail>

to stderr, where ``<code>`` is one of ``usage``, ``invalid-input``,
``computation-failed``, ``io-error``, ``fit-not-converged`` or
``table1-row-failed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .analytic_solver import ModelConstants, calibrate_nu, observables, solve_a
from .bic_potential import PotentialKind, UnitsNote, tabulate
from .morse_fit import FitConfig, MorseParams, REFERENCE_MORSE, fit, morse_w
from .numerov_oracle import RadialProblem, bic_interpolator, ground_state

_COMMANDS = ("potential", "fit", "solve", "calibrate", "oracle", "table1")
_FORMATS = ("csv", "json")

# Reference values for the table1 comparison rows.
_T1_EPS_ANALYTIC = 0.4997331195
_T1_AB_ANALYTIC = 1.823373498
_T1_AB_EXACT = 1.83297
_T1_EPS_EXACT = 0.50000
_T1_EPS_EMPIRICAL = 0.49973
_T1_TOL_EPS_ANALYTIC = 1e-4
_T1_TOL_AB_ANALYTIC = 1e-3
_T1_TOL_EPS_EXACT = 5e-4
_T1_TOL_EMPIRICAL = 1e-3


class _UsageError(Exception):
    """Raised for malformed command lines (replaces argparse's exit)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One parsed CLI invocation.

    ``options`` holds the per-command numeric settings (grid bounds,
    tolerances, nu, alpha*beta, target energy, ...) as a read-only
    mapping; ``output`` of ``None`` means stdout.
    """

    command: str
    fmt: str
    output: Optional[str]
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        object.__setattr__(self, "options",
                           MappingProxyType(dict(self.options)))
        for key, value in self.options.items():
            if key.endswith(("_tol", "tol")) and isinstance(value, float):
                if not value > 0.0:
                    raise ValueError(f"option {key} must be > 0")


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt_float(x: float) -> str:
    return format(float(x), ".10g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if v is None:
        return ""
    return str(v)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_cell(v) for v in row) + "\n"


def _json_chunks(v, indent: int) -> Iterator[str]:
    """JSON text of v in pieces; a list may also be given as an iterator."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(v, dict):
        empty = True
        for k, u in v.items():
            yield ("{\n" if empty else ",\n") + f"{inner}{json.dumps(str(k))}: "
            yield from _json_chunks(u, indent + 2)
            empty = False
        yield "{}" if empty else "\n" + pad + "}"
    elif isinstance(v, (list, tuple, Iterator)):
        empty = True
        for u in v:
            yield ("[\n" if empty else ",\n") + inner
            yield from _json_chunks(u, indent + 2)
            empty = False
        yield "[]" if empty else "\n" + pad + "]"
    elif isinstance(v, bool):
        yield "true" if v else "false"
    elif v is None:
        yield "null"
    elif isinstance(v, (int, np.integer)):
        yield str(int(v))
    elif isinstance(v, (float, np.floating)):
        yield _fmt_float(v)
    else:
        yield json.dumps(str(v))


def _json_doc(obj: dict) -> Iterator[str]:
    yield from _json_chunks(obj, 0)
    yield "\n"


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write text pieces as they are produced, to stdout or to path."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _error_line(code: str, detail) -> None:
    detail = " ".join(str(detail).split()) or "unspecified"
    print(f"error:{code}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand implementations


def _morse_from(cfg: RunConfig) -> MorseParams:
    opt = cfg.options
    return MorseParams(G=float(opt["G"]), V0=float(opt["V0"]),
                       kappa=float(opt["kappa"]), b=float(opt["b"]))


def _run_potential(cfg: RunConfig) -> int:
    opt = cfg.options
    rho_min = float(opt["rho_min"])
    rho_max = float(opt["rho_max"])
    points = int(opt["points"])
    table = tabulate(PotentialKind.EXACT_BIC, rho_min, rho_max, points)
    rho = table.rho_grid
    w = table.values
    z = np.where(rho == 0.0, 0.0, -w * rho)
    if cfg.fmt == "csv":
        chunks = _csv_lines(("rho", "Z", "W"), zip(rho, z, w))
    else:
        units = UnitsNote()
        chunks = _json_doc({
            "schema": 1,
            "command": "potential",
            "rho_min": rho_min,
            "rho_max": rho_max,
            "points": points,
            "units": {"alpha": units.alpha, "conventions": units.conventions},
            "rows": ({"rho": r, "Z": zz, "W": ww}
                     for r, zz, ww in zip(rho, z, w)),
        })
    _emit(chunks, cfg.output)
    return 0


def _run_fit(cfg: RunConfig) -> int:
    opt = cfg.options
    rho_min = float(opt["rho_min"])
    rho_max = float(opt["rho_max"])
    samples = int(opt["samples"])
    fit_cfg = FitConfig(rho_min=rho_min, rho_max=rho_max, n_samples=samples,
                        max_iters=int(opt["max_iters"]),
                        step_tol=float(opt["step_tol"]),
                        init=opt["init"])
    table = tabulate(PotentialKind.EXACT_BIC, rho_min, rho_max, samples)
    report = fit(table, fit_cfg)
    p = report.params
    if cfg.fmt == "json":
        chunks = _json_doc({
            "schema": 1,
            "command": "fit",
            "params": {"G": p.G, "V0": p.V0, "kappa": p.kappa, "b": p.b},
            "rms_residual": report.rms_residual,
            "max_abs_residual": report.max_abs_residual,
            "iterations": report.iterations,
            "converged": report.converged,
            "window": {"rho_min": rho_min, "rho_max": rho_max,
                       "samples": samples},
        })
    else:
        chunks = _csv_lines(
            ("G", "V0", "kappa", "b", "rms_residual", "max_abs_residual",
             "iterations", "converged"),
            [(p.G, p.V0, p.kappa, p.b, report.rms_residual,
              report.max_abs_residual, report.iterations, report.converged)])
    _emit(chunks, cfg.output)
    residuals_out = opt.get("residuals_out")
    if residuals_out is not None:
        rho = table.rho_grid
        w_exact = table.values
        w_surrogate = morse_w(p, rho)
        resid = w_exact - w_surrogate
        _emit(_csv_lines(("rho", "W_exact", "W_morse", "residual"),
                         zip(rho, w_exact, w_surrogate, resid)),
              str(residuals_out))
    if not report.converged:
        _error_line("fit-not-converged",
                    f"no convergence in {report.iterations} rounds "
                    f"(step_tol {_fmt_float(fit_cfg.step_tol)})")
        return 1
    return 0


def _solution_fields(sol) -> dict:
    return {
        "nu": sol.nu,
        "a": sol.a,
        "X": sol.X,
        "A_abs": sol.A_abs,
        "E": sol.E,
        "alpha_beta": sol.alpha_beta,
        "eps_over_alpha2": sol.eps_over_alpha2,
    }


def _emit_record(cfg: RunConfig, command: str, fields: dict) -> None:
    """One flat record: a JSON object, or a CSV header plus one row."""
    if cfg.fmt == "json":
        chunks = _json_doc({"schema": 1, "command": command, **fields})
    else:
        chunks = _csv_lines(tuple(fields), [tuple(fields.values())])
    _emit(chunks, cfg.output)


def _run_solve(cfg: RunConfig) -> int:
    nu = float(cfg.options["nu"])
    morse = _morse_from(cfg)
    constants = ModelConstants(morse=morse)
    a = solve_a(nu, morse)
    sol = observables(nu, a, constants)
    _emit_record(cfg, "solve", _solution_fields(sol))
    return 0


def _run_calibrate(cfg: RunConfig) -> int:
    target = float(cfg.options["target"])
    morse = _morse_from(cfg)
    constants = ModelConstants(morse=morse)
    sol = calibrate_nu(target, constants)
    _emit_record(cfg, "calibrate", {"target": target, **_solution_fields(sol)})
    return 0


def _oracle_potential(name: str, morse: MorseParams, rho_max: float) -> Callable:
    if name == "coulomb":
        return lambda rho: -1.0 / rho
    if name == "morse":
        return lambda rho: morse_w(morse, rho)
    # exact screened potential, via the cached cubic-spline table
    n = max(2000, int(round(50.0 * rho_max)))
    return bic_interpolator(rho_max=rho_max, n=n)


def _run_oracle(cfg: RunConfig) -> int:
    opt = cfg.options
    name = str(opt["potential"])
    alpha_beta = float(opt["alpha_beta"])
    rho_max = float(opt["rho_max"])
    h = float(opt["h"])
    morse = _morse_from(cfg)
    problem = RadialProblem(potential=_oracle_potential(name, morse, rho_max),
                            alpha_beta=alpha_beta, rho_max=rho_max, h=h)
    result = ground_state(problem)
    _emit_record(cfg, "oracle", {
        "potential": name,
        "alpha_beta": alpha_beta,
        "rho_max": rho_max,
        "h": h,
        "lambda": result.lam,
        "eps_over_alpha2": result.eps_over_alpha2,
        "node_count": result.node_count,
        "iterations": result.iterations,
        "grid_points": result.grid_points,
    })
    return 0


def _run_table1(cfg: RunConfig) -> int:
    constants = ModelConstants()
    nu = 2.89873
    sol = observables(nu, solve_a(nu, constants.morse), constants)
    eps_analytic = -sol.eps_over_alpha2
    ab_analytic = sol.alpha_beta
    pass1 = (abs(eps_analytic - _T1_EPS_ANALYTIC) <= _T1_TOL_EPS_ANALYTIC
             and abs(ab_analytic - _T1_AB_ANALYTIC) <= _T1_TOL_AB_ANALYTIC)

    problem = RadialProblem(potential=bic_interpolator(),
                            alpha_beta=_T1_AB_EXACT, rho_max=40.0, h=1e-3)
    result = ground_state(problem)
    eps_exact = -result.eps_over_alpha2
    pass2 = abs(eps_exact - _T1_EPS_EXACT) <= _T1_TOL_EPS_EXACT

    pass3 = abs(_T1_EPS_EMPIRICAL - eps_analytic) <= _T1_TOL_EMPIRICAL

    rows = [
        ("morse-analytic", eps_analytic, ab_analytic,
         _T1_EPS_ANALYTIC, _T1_AB_ANALYTIC, pass1),
        ("bic-numerov", eps_exact, _T1_AB_EXACT,
         _T1_EPS_EXACT, _T1_AB_EXACT, pass2),
        ("empirical", _T1_EPS_EMPIRICAL, None,
         eps_analytic, None, pass3),
    ]
    header = ("row", "minus_eps_over_alpha2", "alpha_beta",
              "ref_minus_eps_over_alpha2", "ref_alpha_beta", "pass")
    if cfg.fmt == "json":
        chunks = _json_doc({
            "schema": 1,
            "command": "table1",
            "rows": [dict(zip(header, row)) for row in rows],
        })
    else:
        chunks = _csv_lines(header, rows)
    _emit(chunks, cfg.output)
    failed = [row[0] for row in rows if not row[-1]]
    if failed:
        _error_line("table1-row-failed", ",".join(failed))
        return 1
    return 0


_HANDLERS = {
    "potential": _run_potential,
    "fit": _run_fit,
    "solve": _run_solve,
    "calibrate": _run_calibrate,
    "oracle": _run_oracle,
    "table1": _run_table1,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_output_args(sub: argparse.ArgumentParser, default_fmt: str) -> None:
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")
    sub.add_argument("--format", choices=_FORMATS, default=default_fmt,
                     help=f"output format (default: {default_fmt})")


def _add_morse_args(sub: argparse.ArgumentParser) -> None:
    r = REFERENCE_MORSE
    sub.add_argument("--G", type=float, default=r.G,
                     help=f"Morse well depth G (default: {r.G})")
    sub.add_argument("--V0", type=float, default=r.V0,
                     help=f"Morse offset V0 (default: {r.V0})")
    sub.add_argument("--kappa", type=float, default=r.kappa,
                     help=f"Morse range kappa (default: {r.kappa})")
    sub.add_argument("--b", type=float, default=r.b,
                     help=f"Morse centre b (default: {r.b})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bicatom",
                     description="Born-Infeld hydrogen ground-state toolkit")
    subs = parser.add_subparsers(dest="command", metavar="command")
    subs.required = True

    p = subs.add_parser("potential", help="tabulate Z(rho) and W(rho)")
    p.add_argument("--rho-min", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=1001)
    _add_output_args(p, "csv")

    p = subs.add_parser("fit", help="fit the Morse surrogate")
    p.add_argument("--rho-min", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-iters", type=int, default=120)
    p.add_argument("--step-tol", type=float, default=5e-5)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--init-reference", action="store_true",
                       help="start from a 20%% perturbation of the "
                            "reference parameters")
    group.add_argument("--init", type=float, nargs=4,
                       metavar=("G", "V0", "KAPPA", "B"),
                       help="explicit starting parameters")
    p.add_argument("--residuals-out", default=None, metavar="PATH",
                   help="also write per-sample residuals as CSV to PATH")
    _add_output_args(p, "json")

    p = subs.add_parser("solve", help="solve the surrogate model at fixed nu")
    p.add_argument("--nu", type=float, required=True,
                   help="shape parameter nu > 0")
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("calibrate", help="find nu matching a target energy")
    p.add_argument("--target", type=float, default=-0.49973,
                   help="target eps/alpha^2 (default: -0.49973)")
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("oracle", help="Numerov ground-state cross-check")
    p.add_argument("--potential", choices=("coulomb", "morse", "bic"),
                   required=True)
    p.add_argument("--alpha-beta", type=float, required=True,
                   help="coupling alpha*beta > 0")
    p.add_argument("--rho-max", type=float, default=40.0)
    p.add_argument("--h", type=float, default=1e-3)
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("table1", help="three-row summary with pass/fail")
    _add_output_args(p, "csv")

    return parser


def _fit_init(args: argparse.Namespace) -> MorseParams:
    if args.init is not None:
        g, v0, kappa, b = args.init
        return MorseParams(G=g, V0=v0, kappa=kappa, b=b)
    if args.init_reference:
        r = REFERENCE_MORSE
        return MorseParams(G=1.2 * r.G, V0=0.8 * r.V0,
                           kappa=1.2 * r.kappa, b=0.8 * r.b)
    return FitConfig().init


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "potential":
        options = {"rho_min": args.rho_min, "rho_max": args.rho_max,
                   "points": args.points}
    elif command == "fit":
        options = {"rho_min": args.rho_min, "rho_max": args.rho_max,
                   "samples": args.samples, "max_iters": args.max_iters,
                   "step_tol": args.step_tol, "init": _fit_init(args),
                   "residuals_out": args.residuals_out}
    elif command == "solve":
        options = {"nu": args.nu, "G": args.G, "V0": args.V0,
                   "kappa": args.kappa, "b": args.b}
    elif command == "calibrate":
        options = {"target": args.target, "G": args.G, "V0": args.V0,
                   "kappa": args.kappa, "b": args.b}
    elif command == "oracle":
        options = {"potential": args.potential,
                   "alpha_beta": args.alpha_beta, "rho_max": args.rho_max,
                   "h": args.h, "G": args.G, "V0": args.V0,
                   "kappa": args.kappa, "b": args.b}
    else:
        options = {}
    return RunConfig(command=command, fmt=args.format, output=args.output,
                     options=options)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except _UsageError as exc:
        _error_line("usage", exc)
        return 2
    except ValueError as exc:
        _error_line("invalid-input", exc)
        return 2
    try:
        return _HANDLERS[cfg.command](cfg)
    except ValueError as exc:
        _error_line("invalid-input", exc)
        return 2
    except RuntimeError as exc:
        _error_line("computation-failed", exc)
        return 1
    except OSError as exc:
        _error_line("io-error", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
