"""Each demo script runs to completion with exit 0 and nothing on stderr.

The demos import the public library names; running them here catches a
renamed or deleted name they still use.  tabulate_potential.py also needs
scipy (a test-only dependency) and is skipped without it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicatom

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
NEEDS_SCIPY = {"tabulate_potential.py"}


def test_all_demos_found():
    assert [d.name for d in DEMOS] == ["fit_surrogate.py", "numerov_crosscheck.py",
                                       "solve_chain.py", "tabulate_potential.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_clean(demo, tmp_path):
    if demo.name in NEEDS_SCIPY:
        pytest.importorskip("scipy.optimize")
    src = os.path.dirname(os.path.dirname(bicatom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
