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
    search, each an outward and an inward Numerov propagation across the
    full grid, from a Laguerre-Ritz start.
``table1``
    Emit a three-row summary comparing the surrogate-analytic result,
    the Numerov result for the exact potential, and the empirical
    target, with a pass/fail flag per row.

Output conventions
------------------
Every float is printed with ten significant digits (``%.10g``).  The
computation is fully deterministic, so repeated runs of the same command
produce byte-identical output.  CSV output always includes a header row;
JSON output always carries a top-level ``"schema": 1`` marker.  All
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
NamedTuples, and _json_str escapes strings as json.dumps does.
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
from itertools import chain
from typing import Callable, Optional, Sequence

from .analytic_solver import (REFERENCE_MORSE, MorseParams, calibrate_nu,
                              observables, solve_a)

# The numpy-backed names, by module.  _numeric binds them as module globals
# when potential, fit, oracle or table1 runs, or on first attribute access
# (such as a test's monkeypatch), so solve and calibrate import no numpy.
_NUMERIC = {
    "bic_potential": ("FINE_STRUCTURE_ALPHA", "UNIT_CONVENTIONS",
                      "PotentialKind", "tabulate"),
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


def _fmt_float(x: float) -> str:
    return format(float(x), ".10g")


def _cell(v) -> str:
    """CSV text of a scalar: its JSON text, but None is empty and a str bare."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return _json_scalar(v)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_cell(v) for v in row) + "\n"


_JSON_NESTED = (dict, list, tuple, Iterator)
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
                 "\n": "\\n", "\r": "\\r", "\t": "\\t"}
# re compiles it on first use; plain printable ASCII, as in every table key, never needs it
_JSON_UNSAFE = r'["\\]|[^ -~]'


def _json_escape(match: re.Match) -> str:
    c = match.group()
    if c in _JSON_ESCAPES:
        return _JSON_ESCAPES[c]
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # past the BMP: a UTF-16 surrogate pair
    return f"\\u{0xD800 | (n >> 10):04x}\\u{0xDC00 | (n & 0x3FF):04x}"


def _json_str(s: str) -> str:
    """json.dumps(s) for a str s: ASCII only, without importing json."""
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        s = re.sub(_JSON_UNSAFE, _json_escape, s)
    return '"' + s + '"'


def _json_scalar(v) -> Optional[str]:
    """JSON text of a scalar; None for a dict, list, tuple or iterator."""
    if isinstance(v, float):  # numpy's float64 included
        return _fmt_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    if isinstance(v, _JSON_NESTED):
        return None
    return _json_str(str(v))


def _json_chunks(v, indent: int) -> Iterator[str]:
    """JSON text of v in pieces; a list may also be given as an iterator.

    A dict of scalars (a table row) is one piece.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(v, dict):
        values = [_json_scalar(u) for u in v.values()]
        if values and None not in values:
            fields = [f"{inner}{_json_str(str(k))}: {t}" for k, t in zip(v, values)]
            yield "{\n" + ",\n".join(fields) + "\n" + pad + "}"
            return
        empty = True
        for k, u in v.items():
            yield ("{\n" if empty else ",\n") + f"{inner}{_json_str(str(k))}: "
            yield from _json_chunks(u, indent + 2)
            empty = False
        yield "{}" if empty else "\n" + pad + "}"
    elif isinstance(v, _JSON_NESTED):
        empty = True
        for u in v:
            yield ("[\n" if empty else ",\n") + inner
            yield from _json_chunks(u, indent + 2)
            empty = False
        yield "[]" if empty else "\n" + pad + "]"
    else:
        yield _json_scalar(v)


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
        chunks = chain(_json_chunks({"schema": 1, "command": command, **fields}, 0),
                       ("\n",))
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
    table = tabulate(PotentialKind.EXACT_BIC, args.rho_min, args.rho_max,
                     args.points)
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
    table = tabulate(PotentialKind.EXACT_BIC, args.rho_min, args.rho_max,
                     args.samples)
    report = fit(table, FitConfig(rho_min=args.rho_min, rho_max=args.rho_max))
    p = report.params
    _write(args, "fit", {
        "params": {"G": p.G, "V0": p.V0, "kappa": p.kappa, "b": p.b},
        "rms_residual": report.rms_residual,
        "max_abs_residual": report.max_abs_residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "window": {"rho_min": args.rho_min, "rho_max": args.rho_max,
                   "samples": args.samples},
    }, ("G", "V0", "kappa", "b", "rms_residual", "max_abs_residual",
        "iterations", "converged"),
        [(p.G, p.V0, p.kappa, p.b, report.rms_residual,
          report.max_abs_residual, report.iterations, report.converged)])
    if args.residuals_out is not None:
        rho = table.rho_grid
        w_exact = table.values
        w_surrogate = morse_w(p, rho)
        resid = w_exact - w_surrogate
        _emit(_csv_lines(("rho", "W_exact", "W_morse", "residual"),
                         zip(rho, w_exact, w_surrogate, resid)),
              args.residuals_out)
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
