"""One benchmark process: set up, run whole cycles of a workload, check them.

run.py starts this script in a fresh interpreter, so the library's caches
start cold in every run:

    python perfbench/worker.py --workload NAME --seed N --seconds S
    python perfbench/worker.py --workload NAME --seed N --cycles K [--trace]
    python perfbench/worker.py --workload NAME --setup-only

Set-up is ``import bicatom`` plus the workload's one-off preparation; the
parent times it from spawn to the ``ready_ns`` stamp this process reports
(both read CLOCK_MONOTONIC).  The process prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# where traced runs leave their span files; inside the checkout, git-ignored
TRACE_DIR = HERE.parent / ".perfbench"
# requests (in plan order) whose table gets one row checked against mpmath
MPMATH_CHECKS = 32
CLI_TIMEOUT_S = 120


def _plain(req, raw):
    """Answer as plain data for the checks (outside the timed region)."""
    if isinstance(raw, dict):  # an error record or a CLI result
        return raw
    kind = req["kind"]
    if kind == "tabulate":
        return {"rho": raw.rho_grid.tolist(), "w": raw.values.tolist()}
    if kind == "chain":
        table, report, sol, cal = raw
        p = report.params
        fit = {"G": p.G, "V0": p.V0, "kappa": p.kappa, "b": p.b,
               "max_abs_residual": report.max_abs_residual,
               "iterations": report.iterations, "converged": report.converged}
        keys = ("nu", "a", "X", "alpha_beta", "eps_over_alpha2")
        return {"rho": table.rho_grid.tolist(), "w": table.values.tolist(), "fit": fit,
                "solve": {k: getattr(sol, k) for k in keys},
                "calibrate": {k: getattr(cal, k) for k in keys}}
    return {"lambda": raw.lam, "eps_over_alpha2": raw.eps_over_alpha2,
            "node_count": raw.node_count, "iterations": raw.iterations,
            "grid_points": raw.grid_points}


class Executor:
    """Runs single requests against the library (or its CLI).

    Library functions are looked up on their modules at call time, so the
    traced run's wrappers see every call.
    """

    def __init__(self, tracer=None):
        import bicatom.analytic_solver as an
        import bicatom.bic_potential as bp
        import bicatom.morse_fit as mf
        import bicatom.numerov_oracle as on
        self.an, self.bp, self.mf, self.on = an, bp, mf, on
        self.tracer = tracer
        self.cli_parts = []          # traced CLI calls: exported traces
        self.cli_startup_ns = 0
        self.cli_output_bytes = 0

    def __call__(self, req):
        return getattr(self, "_" + req["kind"])(req)

    def _tabulate(self, req):
        bp = self.bp
        return bp.tabulate(bp.PotentialKind.EXACT_BIC, req["rho_min"], req["rho_max"],
                           req["n"])

    def _chain(self, req):
        an, bp, mf = self.an, self.bp, self.mf
        table = bp.tabulate(bp.PotentialKind.EXACT_BIC, 0.0, req["rho_max"], req["n"])
        init = mf.MorseParams(**req["init"]) if req["init"] else mf.FitConfig().init
        report = mf.fit(table, mf.FitConfig(rho_min=0.0, rho_max=req["rho_max"],
                                            init=init))
        morse = mf.REFERENCE_MORSE if req.get("reference") else report.params
        constants = an.ModelConstants(morse=morse)
        sol = an.observables(req["nu"], an.solve_a(req["nu"], morse), constants)
        cal = an.calibrate_nu(req["target"], constants)
        return table, report, sol, cal

    def _ground_state(self, req):
        on = self.on
        kind = req["potential"]
        if kind == "bic":
            potential = on.bic_interpolator()
        elif kind == "coulomb":
            potential = lambda rho: -1.0 / rho  # noqa: E731
        else:
            morse = self.mf.REFERENCE_MORSE
            potential = lambda rho: self.mf.morse_w(morse, rho)  # noqa: E731
        if self.tracer is not None:
            potential = self.tracer.wrap("numerov_oracle.potential", potential)
        return on.ground_state(on.RadialProblem(potential=potential,
                                                alpha_beta=req["alpha_beta"],
                                                h=req["h"]))

    def _cli(self, req):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bicatom", *req["argv"]]
        else:
            part = TRACE_DIR / f"cli-{os.getpid()}-{len(self.cli_parts)}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(part), *req["argv"]]
        spawn = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if self.tracer is not None:
            data = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            self.cli_startup_ns += data.pop("ready_ns") - spawn
            self.cli_output_bytes += len(proc.stdout.encode())
            self.cli_parts.append(data)
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}


def run(workload, seed, seconds=None, cycles=None, tracer=None):
    """Run whole cycles for about ``seconds``, or exactly ``cycles`` of them.

    With ``seconds``, the run does at least ``workload.min_cycles`` cycles,
    then starts another while the time left exceeds half a cycle (on the
    mean so far), so runs end within half a cycle of the budget on average
    and never stop inside a cycle.  The calibration kernel runs before the
    first request and after each one, outside the timed intervals.

    Returns the records (request, raw answer, latency in ns), the kernel
    times, the wall time in seconds, the cycle count, peak RSS in MiB and
    the executor.
    """
    from calibration import kernel_seconds
    execute = Executor(tracer)
    records = []
    kernels = [kernel_seconds()]
    rss_kb = None
    cycle = 0
    t_start = time.perf_counter()
    while True:
        for req in workload.cycle(seed, cycle):
            if tracer is not None:
                tracer.current_request = len(records)
            t0 = time.perf_counter_ns()
            try:
                raw = execute(req)
            except Exception as exc:  # a failed request is counted, not fatal
                raw = {"error": f"{type(exc).__name__}: {exc}"}
                traceback.print_exc(file=sys.stderr)
            records.append((req, raw, time.perf_counter_ns() - t0))
            kernels.append(kernel_seconds())
        cycle += 1
        if cycle == workload.min_cycles:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - t_start
        if cycles is not None and cycle >= cycles:
            break
        if (seconds is not None and cycle >= workload.min_cycles
                and elapsed + 0.5 * elapsed / cycle >= seconds):
            break
    if any(req["kind"] == "cli" for req, _, _ in records):
        # the work ran in the CLI subprocesses: the largest of them
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    elif rss_kb is None:  # a fixed-cycle run shorter than min_cycles
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return records, kernels, elapsed, cycle, rss_kb / 1024.0, execute


def _versions():
    from importlib import metadata
    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def check_all(records):
    """Reference-check every answer; returns [(request id, reason)] failures."""
    import reference
    plain = [(req, _plain(req, raw)) for req, raw, _ in records]
    failures = []
    for i, (req, ans) in enumerate(plain):
        why = reference.check(req, ans, deep=i < MPMATH_CHECKS, answers=plain)
        if why:
            failures.append((req["id"], why))
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--cycles", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import bicatom  # noqa: F401  (the set-up being timed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from plans import WORKLOADS
    workload = WORKLOADS[args.workload]
    if workload.interpolator:
        import bicatom.numerov_oracle as on
        on.bic_interpolator()
    ready_ns = time.monotonic_ns()
    import calibration  # after the timed set-up
    kernels = [calibration.kernel_seconds() for _ in range(3)]
    setup = {"ready_ns": ready_ns,
             "setup_scale": calibration.REFERENCE_S / statistics.median(kernels)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
    records, kernels, elapsed, cycles, rss_mb, execute = run(
        workload, args.seed, seconds=args.seconds, cycles=args.cycles, tracer=tracer)
    raw = [lat / 1e6 for _, _, lat in records]
    out = {**setup, "elapsed_s": elapsed, "cycles": cycles, "rss_mb": rss_mb,
           "raw_latencies_ms": raw,
           "latencies_ms": [x * s for x, s in zip(raw, calibration.scales(kernels))],
           "speed": calibration.REFERENCE_S / statistics.median(kernels),
           "versions": _versions()}
    if tracer is not None:
        import tracer as tr
        trace = tr.merge([tracer.export(), *execute.cli_parts])
        with open(TRACE_DIR / f"spans-{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        cli = None
        if execute.cli_parts:
            cli = {"startup_ms": execute.cli_startup_ns / 1e6,
                   "output_bytes": execute.cli_output_bytes}
        out["layers"], out["absent"] = tr.layer_metrics(trace, cli)
    t_check = time.perf_counter()
    out["failures"] = check_all(records)
    out["check_s"] = time.perf_counter() - t_check
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
