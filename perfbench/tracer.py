"""Spans and counters around the calls into each bicatom layer.

The traced run replaces public functions at the module attributes their
callers resolve (for example ``bicatom.analytic_solver.first_root``, which
``solve_a`` looks up at call time) with wrappers that record one span per
call: name, start, end, parent span and request id.  Spans and counters
stay in memory and are reduced to per-layer metrics, and written out, once
at the end.  The untraced run never calls ``install``.

A layer's self time is its span time minus the time covered by its child
spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module attributes to replace).  Every attribute holding the
# function is replaced, so calls from the library, the CLI and the
# benchmark all land in the same span.
TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("bic_potential.tabulate", ("bicatom.bic_potential.tabulate",
                                "bicatom.numerov_oracle.tabulate",
                                "bicatom.cli.tabulate")),
    ("bic_potential.z_of_rho", ("bicatom.bic_potential.z_of_rho",)),
    ("quadrature.integrate", ("bicatom.bic_potential.integrate",)),
    ("bic_potential.z_integrand", ("bicatom.bic_potential.z_integrand",)),
    ("specfun.whittaker_m", ("bicatom.analytic_solver.whittaker_m",)),
    ("analytic_solver.first_root", ("bicatom.analytic_solver.first_root",)),
    ("analytic_solver.solve_a", ("bicatom.analytic_solver.solve_a",
                                 "bicatom.cli.solve_a")),
    ("analytic_solver.calibrate_nu", ("bicatom.analytic_solver.calibrate_nu",
                                      "bicatom.cli.calibrate_nu")),
    ("morse_fit.fit", ("bicatom.morse_fit.fit", "bicatom.cli.fit")),
    ("numerov_oracle.ground_state", ("bicatom.numerov_oracle.ground_state",
                                     "bicatom.cli.ground_state")),
    ("numerov_oracle.bic_interpolator", ("bicatom.numerov_oracle.bic_interpolator",
                                         "bicatom.cli.bic_interpolator")),
)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _count_args(name: str, counts: Counter, args, kwargs) -> None:
    if name == "bic_potential.tabulate":
        counts["points"] += int(kwargs.get("n", args[3] if len(args) > 3 else 0))
    elif name == "bic_potential.z_integrand":
        counts["integrand_evals"] += _size(args[0] if args else kwargs["y"])
    elif name == "specfun.whittaker_m":
        counts["whittaker_points"] += _size(args[2] if len(args) > 2 else kwargs["z"])


def _count_result(name: str, counts: Counter, result) -> None:
    if name == "quadrature.integrate":
        counts["subdivisions"] += result.subdivisions
    elif name == "morse_fit.fit":
        counts["fit_rounds"] += result.iterations
        counts["fit_converged"] += int(bool(result.converged))
    elif name == "numerov_oracle.ground_state":
        counts["bisections"] += result.iterations
        counts["grid_points"] += result.grid_points


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        # lru_cache'd targets: (function, (hits, misses) at install)
        self._caches: Dict[str, Tuple[Callable, Tuple[int, int]]] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper recording one span per call of ``fn`` under ``name``."""
        nid = self._intern(name)
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            _count_args(name, counts, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(clock())
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()
            _count_result(name, counts, result)
            return result

        wrapper.span_name = name  # marks a benchmark wrapper
        return wrapper

    def install(self) -> None:
        """Replace every TARGETS attribute with its wrapper."""
        for name, paths in TARGETS:
            for path in paths:
                module_name, attr = path.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if hasattr(original, "cache_info") and name not in self._caches:
                    info = original.cache_info()
                    self._caches[name] = (original, (info.hits, info.misses))
                self._installed.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hits, misses and size of each wrapped lru_cache since install."""
        out = {}
        for name, (fn, (hits0, misses0)) in self._caches.items():
            info = fn.cache_info()
            out[name] = {"hits": info.hits - hits0, "misses": info.misses - misses0,
                         "size": info.currsize}
        return out

    def export(self) -> Dict:
        """Plain-data form of everything recorded (spans as columns)."""
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "request": self.request.tolist(),
                "counts": dict(self.counts), "caches": self.cache_stats()}


def merge(parts: Sequence[Dict]) -> Dict:
    """Concatenate exported traces (for example from CLI subprocesses)."""
    out = {"names": [], "name_id": [], "start": [], "end": [], "parent": [],
           "request": [], "counts": Counter(), "caches": {}}
    ids: Dict[str, int] = {}
    for part in parts:
        offset = len(out["start"])
        for nid in part["name_id"]:
            name = part["names"][nid]
            if name not in ids:
                ids[name] = len(out["names"])
                out["names"].append(name)
            out["name_id"].append(ids[name])
        for key in ("start", "end", "request"):
            out[key].extend(part[key])
        out["parent"].extend(p + offset if p >= 0 else -1 for p in part["parent"])
        out["counts"].update(part["counts"])
        for name, stats in part["caches"].items():
            agg = out["caches"].setdefault(name, {"hits": 0, "misses": 0, "size": 0})
            agg["hits"] += stats["hits"]
            agg["misses"] += stats["misses"]
            agg["size"] = max(agg["size"], stats["size"])
    out["counts"] = dict(out["counts"])
    return out


def span_times(trace: Dict) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time and self time, in nanoseconds.

    Self time of a span is its duration minus the durations of its direct
    children; children of one span never overlap, since one thread records
    them in call order.
    """
    n = len(trace["start"])
    dur = [trace["end"][i] - trace["start"][i] for i in range(n)]
    child = [0] * n
    for i, p in enumerate(trace["parent"]):
        if p >= 0:
            child[p] += dur[i]
    out: Dict[str, Dict[str, float]] = {}
    for i in range(n):
        name = trace["names"][trace["name_id"][i]]
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += dur[i]
        agg["self_ns"] += dur[i] - child[i]
    return out


def _calls_under(trace: Dict, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    names, nid, parent = trace["names"], trace["name_id"], trace["parent"]
    count = 0
    for i in range(len(nid)):
        if names[nid[i]] != name:
            continue
        p = parent[i]
        while p >= 0 and names[nid[p]] != ancestor:
            p = parent[p]
        count += p >= 0
    return count


# per-layer metric name -> unit; the order is the report order
LAYER_METRICS: Dict[str, str] = {
    "cli.startup_ms": "ms", "cli.main_ms": "ms", "cli.output_bytes": "bytes",
    "bic_potential.tabulate_calls": "count", "bic_potential.tabulate_ms": "ms",
    "bic_potential.points": "count", "bic_potential.z_calls": "count",
    "bic_potential.z_cache_hit_ratio": "ratio", "bic_potential.z_cache_size": "count",
    "quadrature.calls": "count", "quadrature.subdivisions": "count",
    "quadrature.integrand_evals": "count", "quadrature.self_ms": "ms",
    "specfun.whittaker_calls": "count", "specfun.whittaker_points": "count",
    "specfun.ms": "ms",
    "analytic_solver.solve_a_calls": "count", "analytic_solver.solve_a_ms": "ms",
    "analytic_solver.first_root_calls": "count", "analytic_solver.calibrate_ms": "ms",
    "analytic_solver.solve_a_per_calibrate": "ratio",
    "morse_fit.fit_ms": "ms", "morse_fit.rounds": "count",
    "morse_fit.converged_ratio": "ratio",
    "numerov_oracle.ground_state_ms": "ms", "numerov_oracle.bisections": "count",
    "numerov_oracle.grid_points": "count", "numerov_oracle.potential_ms": "ms",
    "numerov_oracle.interpolator_build_ms": "ms",
}


def layer_metrics(trace: Dict, cli: Optional[Dict[str, float]] = None
                  ) -> Tuple[Dict[str, float], List[str]]:
    """Reduce a trace to the per-layer metrics; also the names of absent ones.

    A metric is absent (reported as 0) when its layer was never called in
    the run, or when it reads a cache the library no longer has.
    """
    t = span_times(trace)
    counts = trace["counts"]
    caches = trace["caches"]

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def ms(name, key="total_ns"):
        return t.get(name, {}).get(key, 0) / 1e6

    m: Dict[str, float] = {}
    absent: List[str] = []
    cli = cli or {}
    m["cli.startup_ms"] = cli.get("startup_ms", 0.0)
    m["cli.main_ms"] = ms("cli.main")
    m["cli.output_bytes"] = cli.get("output_bytes", 0)
    if not calls("cli.main"):
        absent += ["cli.startup_ms", "cli.main_ms", "cli.output_bytes"]

    m["bic_potential.tabulate_calls"] = calls("bic_potential.tabulate")
    m["bic_potential.tabulate_ms"] = ms("bic_potential.tabulate")
    m["bic_potential.points"] = counts.get("points", 0)
    m["bic_potential.z_calls"] = calls("bic_potential.z_of_rho")
    z_cache = caches.get("bic_potential.z_of_rho")
    lookups = z_cache["hits"] + z_cache["misses"] if z_cache else 0
    m["bic_potential.z_cache_hit_ratio"] = z_cache["hits"] / lookups if lookups else 0.0
    m["bic_potential.z_cache_size"] = z_cache["size"] if z_cache else 0
    if not lookups:
        absent += ["bic_potential.z_cache_hit_ratio", "bic_potential.z_cache_size"]
    if not calls("bic_potential.tabulate"):
        absent += ["bic_potential.tabulate_calls", "bic_potential.tabulate_ms",
                   "bic_potential.points", "bic_potential.z_calls"]

    m["quadrature.calls"] = calls("quadrature.integrate")
    m["quadrature.subdivisions"] = counts.get("subdivisions", 0)
    m["quadrature.integrand_evals"] = counts.get("integrand_evals", 0)
    m["quadrature.self_ms"] = ms("quadrature.integrate", "self_ns")
    if not calls("quadrature.integrate"):
        absent += ["quadrature.calls", "quadrature.subdivisions",
                   "quadrature.integrand_evals", "quadrature.self_ms"]

    m["specfun.whittaker_calls"] = calls("specfun.whittaker_m")
    m["specfun.whittaker_points"] = counts.get("whittaker_points", 0)
    m["specfun.ms"] = ms("specfun.whittaker_m")
    if not calls("specfun.whittaker_m"):
        absent += ["specfun.whittaker_calls", "specfun.whittaker_points", "specfun.ms"]

    n_cal = calls("analytic_solver.calibrate_nu")
    m["analytic_solver.solve_a_calls"] = calls("analytic_solver.solve_a")
    m["analytic_solver.solve_a_ms"] = ms("analytic_solver.solve_a")
    m["analytic_solver.first_root_calls"] = calls("analytic_solver.first_root")
    m["analytic_solver.calibrate_ms"] = ms("analytic_solver.calibrate_nu")
    m["analytic_solver.solve_a_per_calibrate"] = (
        _calls_under(trace, "analytic_solver.solve_a", "analytic_solver.calibrate_nu")
        / n_cal if n_cal else 0.0)
    if not calls("analytic_solver.solve_a"):
        absent += ["analytic_solver.solve_a_calls", "analytic_solver.solve_a_ms",
                   "analytic_solver.first_root_calls"]
    if not n_cal:
        absent += ["analytic_solver.calibrate_ms", "analytic_solver.solve_a_per_calibrate"]

    n_fit = calls("morse_fit.fit")
    m["morse_fit.fit_ms"] = ms("morse_fit.fit")
    m["morse_fit.rounds"] = counts.get("fit_rounds", 0)
    m["morse_fit.converged_ratio"] = counts.get("fit_converged", 0) / n_fit if n_fit else 0.0
    if not n_fit:
        absent += ["morse_fit.fit_ms", "morse_fit.rounds", "morse_fit.converged_ratio"]

    m["numerov_oracle.ground_state_ms"] = ms("numerov_oracle.ground_state")
    m["numerov_oracle.bisections"] = counts.get("bisections", 0)
    m["numerov_oracle.grid_points"] = counts.get("grid_points", 0)
    m["numerov_oracle.potential_ms"] = ms("numerov_oracle.potential")
    m["numerov_oracle.interpolator_build_ms"] = ms("numerov_oracle.bic_interpolator")
    if not calls("numerov_oracle.ground_state"):
        absent += ["numerov_oracle.ground_state_ms", "numerov_oracle.bisections",
                   "numerov_oracle.grid_points"]
    if not calls("numerov_oracle.potential"):
        absent.append("numerov_oracle.potential_ms")
    if not calls("numerov_oracle.bic_interpolator"):
        absent.append("numerov_oracle.interpolator_build_ms")
    return m, absent
