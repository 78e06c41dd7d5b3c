"""Spans, self time, the wrappers only the traced run installs, and the
least work of a timed run."""

import dataclasses
import importlib

import tracer as tr
from plans import Workload
from worker import run


def spans(*rows, counts=None):
    """An exported trace from (name, start, end, parent index) rows."""
    names = sorted({r[0] for r in rows})
    return {"names": names, "name_id": [names.index(r[0]) for r in rows],
            "start": [r[1] for r in rows], "end": [r[2] for r in rows],
            "parent": [r[3] for r in rows], "request": [0] * len(rows),
            "counts": counts or {}, "caches": {}}


def test_self_time_on_synthetic_tree():
    trace = spans(("root", 0, 100, -1), ("a", 10, 40, 0), ("leaf", 15, 25, 1),
                  ("b", 50, 70, 0), ("b", 80, 85, 0))
    times = tr.span_times(trace)
    assert times["root"] == {"calls": 1, "total_ns": 100, "self_ns": 45}
    assert times["a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert times["leaf"]["self_ns"] == 10
    assert times["b"] == {"calls": 2, "total_ns": 25, "self_ns": 25}


def test_merge_keeps_parent_links():
    merged = tr.merge([spans(("x", 0, 10, -1)), spans(("y", 0, 10, -1), ("x", 2, 5, 0))])
    assert merged["parent"] == [-1, -1, 1]
    times = tr.span_times(merged)
    assert times["y"]["self_ns"] == 7 and times["x"]["calls"] == 2


def test_wrappers_nest_and_count():
    t = tr.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    data = t.export()
    names = [data["names"][i] for i in data["name_id"]]
    assert names == ["outer", "inner"] and data["parent"] == [-1, 0]


def _targets():
    for _, paths in tr.TARGETS:
        for path in paths:
            module, attr = path.rsplit(".", 1)
            yield getattr(importlib.import_module(module), attr)


def _tiny(seen):
    def cycle(rng, index):
        seen.append(any(hasattr(f, "span_name") for f in _targets()))
        lo = 0.5 + rng.random()  # fresh rho values: the Z cache misses
        return [{"kind": "tabulate", "rho_min": lo, "rho_max": lo + 1.0, "n": 5,
                 "ref_index": 0}]
    return Workload("tiny", cycle, tail_pct=50, min_cycles=1, trace_cycles=2)


def test_untraced_run_installs_no_wrappers():
    seen = []
    records, *_ = run(_tiny(seen), seed=1, cycles=3)
    seen.append(any(hasattr(f, "span_name") for f in _targets()))
    assert len(records) == 3 and seen == [False] * 4


def test_timed_run_completes_min_cycles_whatever_its_budget():
    workload = dataclasses.replace(_tiny([]), min_cycles=3)
    records, _, _, cycles, rss_mb, _ = run(workload, seed=3, seconds=0.0)
    assert cycles == 3 and len(records) == 3 and rss_mb > 0


def test_traced_run_installs_and_removes_wrappers():
    seen = []
    t = tr.Tracer()
    t.install()
    try:
        run(_tiny(seen), seed=2, cycles=2, tracer=t)
    finally:
        t.uninstall()
    assert seen == [True, True]
    assert not any(hasattr(f, "span_name") for f in _targets())
    metrics, absent = tr.layer_metrics(t.export())
    assert metrics["bic_potential.tabulate_calls"] == 2
    assert metrics["bic_potential.points"] == 10
    assert metrics["quadrature.calls"] == 2 * metrics["bic_potential.z_calls"]
    assert "numerov_oracle.ground_state_ms" in absent
