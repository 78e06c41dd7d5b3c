"""The runtime is numpy only: Brent against scipy, no scipy on import, and
no numpy on the analytic route.

scipy is a test-only dependency (the ``test`` extra).  Brent is the only
in-house routine compared with scipy: it is a port of
scipy.optimize.brentq and must return the same bits.

``import bicatom`` and the CLI's ``solve`` and ``calibrate`` load the
standard library and specfun, roots and analytic_solver only: the
package's names, and the CLI's numpy-backed ones, resolve on first access.
``solve`` and ``calibrate`` load no dataclasses, inspect or json either.
``import bicatom.numerov_oracle`` loads numpy but not numpy.polynomial,
whose import alone costs milliseconds in every oracle and table1 process,
and it builds no quadrature rule until a ground state needs one.
"""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bicatom  # noqa: E402
from bicatom.roots import _brent  # noqa: E402

reproducible = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

finite = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def smooth_functions(draw):
    """A cubic plus a sinusoid, with its coefficients drawn."""
    c = draw(st.lists(finite, min_size=4, max_size=4))
    amp, freq, phase = draw(finite), draw(st.floats(0.0, 20.0)), draw(finite)

    def f(x):
        return ((c[0] * x + c[1]) * x + c[2]) * x + c[3] + amp * math.sin(freq * x + phase)

    return f


def outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@reproducible
@seed(8101)
@given(smooth_functions(), finite, st.floats(1e-9, 20.0), st.floats(0.0, 1.0),
       st.floats(-14.0, -1.0).map(lambda e: 10.0 ** e))
# a tiny cubic underflows the inverse-quadratic denominator to 0
@example(lambda x: 1e-200 * x ** 3, 0.0, 1.0, 0.4641588833612779, 1e-12)
def test_brent_matches_brentq_bit_for_bit(f, lo, width, where, xtol):
    # shifted to vanish at a drawn point of the bracket, so that most
    # brackets hold a sign change; the rest check that both raise
    hi = lo + width
    level = f(lo + where * width)

    def g(x):
        return f(x) - level

    want = outcome(lambda: optimize.brentq(g, lo, hi, xtol=xtol))
    got = outcome(lambda: _brent(g, lo, hi, g(lo), g(hi), xtol))
    assert got == want


def test_brent_raises_when_the_iteration_limit_is_reached():
    # 100 steps cannot close a 2e300-wide bracket on a jump to 1e-300
    def f(x):
        return 1.0 if x > 1e-300 else -1.0

    want = outcome(lambda: optimize.brentq(f, -1e300, 1e300, xtol=1e-300))
    got = outcome(lambda: _brent(f, -1e300, 1e300, -1.0, 1.0, 1e-300))
    assert want is RuntimeError and got is RuntimeError


@pytest.mark.parametrize("scale", [1e-120, 1e-200])
def test_brent_bisects_where_the_extrapolation_divides_by_zero(scale):
    # tiny values underflow the inverse-quadratic denominator to 0; brentq's
    # C step is then inf or NaN and it bisects, so the port must not raise
    def f(x):
        return scale * (x ** 3 - 0.1)

    want = optimize.brentq(f, 0.0, 1.0, xtol=1e-12)
    assert _brent(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12) == want


def _python(code, *args):
    """A fresh interpreter that has the package on its path runs code."""
    src = os.path.dirname(os.path.dirname(bicatom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_import_loads_no_scipy():
    # the star import loads every module behind the package's lazy names
    out = _python("import sys; from bicatom import *; "
                  "print([m for m in sys.modules if m.startswith('scipy')])").stdout
    assert out.strip() == "[]"


def test_oracle_import_loads_no_polynomial_module_and_builds_no_rule():
    proc = _python("import sys, bicatom.numerov_oracle, bicatom.spectral as sp\n"
                   "print(sorted(m for m in sys.modules\n"
                   "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
                   "print(sp._rule.cache_info().currsize)")
    assert proc.stdout == "[]\n0\n", proc.stderr


# modules that the closed-form route does not run: numpy, and the
# dataclasses (with the inspect it imports) and json that cost about 10 ms
# of every solve process
UNLOADED = ("numpy", "dataclasses", "inspect", "json")

# python -m bicatom ARGS, then which of UNLOADED were loaded, on the last line
RUN_CLI = f"""
import runpy, sys
try:
    runpy.run_module("bicatom", run_name="__main__")
except SystemExit as exc:
    print("exit", exc.code)
print([m for m in {UNLOADED!r} if m in sys.modules])
"""


def _tracer_targets():
    """The module attributes that the benchmark's tracer replaces, one
    comma-joined argument per span."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [",".join(paths) for _, paths in tracer.TARGETS]


def test_analytic_route_loads_no_numpy():
    # nor dataclasses, inspect or json: see UNLOADED
    out = _python("import sys, bicatom; print('numpy' in sys.modules)").stdout
    assert out == "False\n"
    for args, code in ((["solve", "--nu", "2.89873"], 0), (["calibrate"], 0),
                       (["solve", "--nu", "2.9", "--b", "800"], 2)):
        proc = _python(RUN_CLI, *args)
        lines = proc.stdout.splitlines()
        assert lines[-2:] == [f"exit {code}", "[]"], (args, proc.stderr)
    # every lazy name resolves, and so does every attribute the tracer
    # replaces: a span's paths, the CLI's included, to one library object
    targets = _tracer_targets()
    assert any("bicatom.cli." in t for t in targets)
    proc = _python(
        "import importlib, sys, bicatom\n"
        "names = {n: getattr(bicatom, n) for n in bicatom.__all__}\n"
        "star = {}\n"
        "exec('from bicatom import *', star)\n"
        "assert all(star[n] is v for n, v in names.items())\n"
        "for span in sys.argv[1:]:\n"
        "    paths = [p.rpartition('.') for p in span.split(',')]\n"
        "    objs = [getattr(importlib.import_module(m), a) for m, _, a in paths]\n"
        "    assert all(o is objs[0] for o in objs), span\n",
        *targets)
    assert proc.returncode == 0, proc.stderr
