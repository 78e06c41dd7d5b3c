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
    (``coulomb``, ``morse``, or ``bic``) at a given coupling; its
    ``iterations`` field counts the matched sweeps of the eigenvalue
    search, each an outward Numerov propagation to the outermost turning
    point and an inward one to it from where the state has decayed below
    rounding, from a Laguerre-Ritz start.
``table1``
    Emit a three-row summary comparing the surrogate-analytic result,
    the Numerov result for the exact potential, and the empirical
    target, with a pass/fail flag per row.

Output conventions
------------------
Every float is printed with ten significant digits (``%.10g``).  The
computation is fully deterministic, so repeated runs of the same command
produce byte-identical output.  CSV output always includes a header row;
JSON output always carries a top-level ``"schema": 1`` marker, then
scalars, flat records and at most one list of flat records (``rows``).
Every key and string printed is a constant of printable ASCII with no
``"`` or ``\\``, so it is quoted as it is, with no escaping.  All
failures exit nonzero after printing a single line

    error:<code>: <detail>

to stderr, where ``<code>`` is one of ``usage``, ``invalid-input``,
``computation-failed``, ``io-error`` or ``table1-row-failed``.

Imports
-------
``solve`` and ``calibrate`` load analytic_solver, roots and specfun,
and from the standard library little beyond argparse, re and typing.
They load no numpy, and no dataclasses, inspect or json, which would
cost about 10 ms of each process: analytic_solver's records are
NamedTuples, and _json_chunks writes the few fixed shapes of JSON that
the subcommands print.
``potential``, ``fit``, ``oracle`` and ``table1`` import bic_potential,
morse_fit and numerov_oracle, and so numpy and dataclasses, when they
run.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from collections.abc import Iterable, Iterator
from typing import Callable, Optional, Sequence

from .analytic_solver import (REFERENCE_MORSE, MorseParams, calibrate_nu,
                              observables, solve_a)

# The numpy-backed names, by module.  _numeric binds them as module globals
# when potential, fit, oracle or table1 runs, or on first attribute access
# (such as a test's monkeypatch), so solve and calibrate import no numpy.
_NUMERIC = {
    "bic_potential": ("FINE_STRUCTURE_ALPHA", "UNIT_CONVENTIONS", "tabulate"),
    "morse_fit": ("FitConfig", "fit", "morse_w"),
    "numerov_oracle": ("RadialProblem", "bic_interpolator", "ground_state"),
}


def _numeric() -> None:
    """Bind _NUMERIC's names; one already set (replaced by a caller) is kept."""
    for module, names in _NUMERIC.items():
        mod = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if any(name in names for names in _NUMERIC.values()):
        _numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, not an option;
        # also read the exponent forms, such as %.10g's -4.5e-05
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# formatting helpers


def _scalar(v) -> str:
    """JSON text of a scalar: %.10g for a float, a str quoted as it is."""
    if isinstance(v, float):  # numpy's float64 included
        return format(float(v), ".10g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return f'"{v}"'


def _cell(v) -> str:
    """CSV text of a scalar: its JSON text, but None is empty and a str bare."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return _scalar(v)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_cell(v) for v in row) + "\n"


def _object(record: dict, pad: str) -> str:
    """JSON text of a flat record, one field a line, its brace closed at pad."""
    fields = ",\n".join(f'{pad}  "{k}": {_scalar(v)}' for k, v in record.items())
    return f"{{\n{fields}\n{pad}}}"


def _json_chunks(fields: dict) -> Iterator[str]:
    """JSON text of fields; a non-empty list or iterator of flat records streams by record."""
    sep = "{\n"
    for k, v in fields.items():
        yield f'{sep}  "{k}": '
        sep = ",\n"
        if isinstance(v, dict):
            yield _object(v, "  ")
        elif isinstance(v, (list, Iterator)):
            row_sep = "[\n    "
            for row in v:
                yield row_sep + _object(row, "    ")
                row_sep = ",\n    "
            yield "\n  ]"
        else:
            yield _scalar(v)
    yield "\n}\n"


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write text pieces as they are produced, to stdout or to path."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _write(args: argparse.Namespace, command: str, fields: dict,
           header: Optional[Sequence[str]] = None,
           rows: Optional[Iterable[Sequence]] = None) -> None:
    """The command's output: the JSON object {"schema": 1, "command":
    command, **fields}, or CSV of header and rows (fields as one row when
    neither is given)."""
    if args.format == "json":
        chunks = _json_chunks({"schema": 1, "command": command, **fields})
    elif header is None:
        chunks = _csv_lines(tuple(fields), [tuple(fields.values())])
    else:
        chunks = _csv_lines(header, rows)
    _emit(chunks, args.output)


def _error_line(code: str, detail) -> None:
    detail = " ".join(str(detail).split()) or "unspecified"
    print(f"error:{code}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand implementations


def _morse_from(args: argparse.Namespace) -> MorseParams:
    return MorseParams(G=args.G, V0=args.V0, kappa=args.kappa, b=args.b)


def _run_potential(args: argparse.Namespace) -> int:
    _numeric()
    table = tabulate("bic", args.rho_min, args.rho_max, args.points)
    rho = table.rho_grid
    w = table.values
    rows = zip(rho, -w * rho, w)  # one pass, by whichever format is written
    _write(args, "potential", {
        "rho_min": args.rho_min,
        "rho_max": args.rho_max,
        "points": args.points,
        "units": {"alpha": FINE_STRUCTURE_ALPHA,
                  "conventions": UNIT_CONVENTIONS},
        "rows": ({"rho": r, "Z": z, "W": ww} for r, z, ww in rows),
    }, ("rho", "Z", "W"), rows)
    return 0


def _run_fit(args: argparse.Namespace) -> int:
    _numeric()
    table = tabulate("bic", args.rho_min, args.rho_max, args.samples)
    report = fit(table, FitConfig(rho_min=args.rho_min, rho_max=args.rho_max))
    p = report.params
    if args.residuals_out is not None:  # first, so a bad path prints no report
        rho, w_exact = table.rho_grid, table.values
        w_morse = morse_w(p, rho)
        _emit(_csv_lines(("rho", "W_exact", "W_morse", "residual"),
                         zip(rho, w_exact, w_morse, w_exact - w_morse)),
              args.residuals_out)
    scores = {"rms_residual": report.rms_residual,
              "max_abs_residual": report.max_abs_residual,
              "iterations": report.iterations,
              "converged": report.converged}
    _write(args, "fit", {
        "params": p._asdict(),
        **scores,
        "window": {"rho_min": args.rho_min, "rho_max": args.rho_max,
                   "samples": args.samples},
    }, p._fields + tuple(scores), [(*p, *scores.values())])
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


def _run_solve(args: argparse.Namespace) -> int:
    morse = _morse_from(args)
    sol = observables(args.nu, solve_a(args.nu, morse), morse)
    _write(args, "solve", _solution_fields(sol))
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    sol = calibrate_nu(args.target, _morse_from(args))
    _write(args, "calibrate", {"target": args.target, **_solution_fields(sol)})
    return 0


def _oracle_potential(name: str, morse: MorseParams, rho_max: float) -> Callable:
    if name == "coulomb":
        return lambda rho: -1.0 / rho
    if name == "morse":
        return lambda rho: morse_w(morse, rho)
    # exact screened potential, via the cached cubic interpolant; built on
    # first evaluation, after RadialProblem has checked the grid
    return lambda rho: bic_interpolator(rho_max)(rho)


def _run_oracle(args: argparse.Namespace) -> int:
    _numeric()
    problem = RadialProblem(
        potential=_oracle_potential(args.potential, _morse_from(args),
                                    args.rho_max),
        alpha_beta=args.alpha_beta, rho_max=args.rho_max, h=args.h)
    result = ground_state(problem)
    _write(args, "oracle", {
        "potential": args.potential,
        "alpha_beta": args.alpha_beta,
        "rho_max": args.rho_max,
        "h": args.h,
        "lambda": result.lam,
        "eps_over_alpha2": result.eps_over_alpha2,
        "node_count": result.node_count,
        "iterations": result.iterations,
        "grid_points": result.grid_points,
    })
    return 0


def _run_table1(args: argparse.Namespace) -> int:
    _numeric()
    nu = 2.89873
    sol = observables(nu, solve_a(nu, REFERENCE_MORSE), REFERENCE_MORSE)
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
    _write(args, "table1", {"rows": [dict(zip(header, row)) for row in rows]},
           header, rows)
    failed = [row[0] for row in rows if not row[-1]]
    if failed:
        _error_line("table1-row-failed", ",".join(failed))
        return 1
    return 0


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
    p.set_defaults(run=_run_potential)
    _add_output_args(p, "csv")

    p = subs.add_parser("fit", help="fit the Morse surrogate")
    p.add_argument("--rho-min", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--residuals-out", default=None, metavar="PATH",
                   help="also write per-sample residuals as CSV to PATH")
    p.set_defaults(run=_run_fit)
    _add_output_args(p, "json")

    p = subs.add_parser("solve", help="solve the surrogate model at fixed nu")
    p.add_argument("--nu", type=float, required=True,
                   help="shape parameter nu > 0")
    p.set_defaults(run=_run_solve)
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("calibrate", help="find nu matching a target energy")
    p.add_argument("--target", type=float, default=-0.49973,
                   help="target eps/alpha^2 (default: -0.49973)")
    p.set_defaults(run=_run_calibrate)
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("oracle", help="Numerov ground-state cross-check")
    p.add_argument("--potential", choices=("coulomb", "morse", "bic"),
                   required=True)
    p.add_argument("--alpha-beta", type=float, required=True,
                   help="coupling alpha*beta > 0")
    p.add_argument("--rho-max", type=float, default=40.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.set_defaults(run=_run_oracle)
    _add_morse_args(p)
    _add_output_args(p, "json")

    p = subs.add_parser("table1", help="three-row summary with pass/fail")
    p.set_defaults(run=_run_table1)
    _add_output_args(p, "csv")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _error_line("usage", exc)
        return 2
    try:
        return args.run(args)
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
