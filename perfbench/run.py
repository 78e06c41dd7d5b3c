"""bicatom benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
taken from ``src/`` of that checkout.  Workloads (see plans.py and
README.md): cli-session, potential-table, surrogate-chain, coupling-scan.

--trace 0 prints the end-to-end metrics: set-up time (median of three
fresh interpreters), throughput, median and tail latency, peak RSS.
--trace 1 prints the per-layer metrics of a fixed amount of work, from a
traced run, plus the tracing overhead against an untraced run of the same
work.  Every answer is checked against an independent reference; the last
line of stdout is {"correct", "attempted", "failed", "metrics"}.

Processes run one at a time, each single-threaded (BLAS/OpenMP pools are
pinned to one thread), so the load is one worker plus this script.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from plans import WORKLOADS  # noqa: E402

SETUP_PROBES = 2        # set-up-only interpreters besides the measuring one
DEADLINE_S = 170.0      # the whole invocation ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args, deadline):
    """Run a worker to completion; returns its raw and rescaled set-up
    times (spawn to the worker's ready stamp) and its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawn = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    raw = (res["ready_ns"] - spawn) / 1e9
    return raw, raw * res["setup_scale"], res


def percentile(values, pct):
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _failures(result):
    for rid, why in result["failures"]:
        print(f"# FAILED request {rid}: {why}")
    return len(result["failures"])


def end_to_end(workload, seed, seconds, deadline):
    runs = [_spawn(["--workload", workload.name, "--setup-only"], deadline)
            for _ in range(SETUP_PROBES)]
    runs.append(_spawn(["--workload", workload.name, "--seed", str(seed),
                        "--seconds", str(seconds)], deadline))
    raw_setups, setups, res = [r[0] for r in runs], [r[1] for r in runs], runs[-1][2]
    lat = res["latencies_ms"]
    raw_lat = res["raw_latencies_ms"]
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "req_per_s": (1e3 * n / sum(lat), "1/s"),
        "req_p50_ms": (statistics.median(lat), "ms"),
        "req_tail_ms": (percentile(lat, workload.tail_pct), "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    failed = _failures(res)
    beyond = sum(x > metrics["req_tail_ms"][0] for x in lat)
    report = {"workload": workload.name, "seed": seed, "cycles": res["cycles"],
              "requests": n, "elapsed_s": res["elapsed_s"], "check_s": res["check_s"],
              "tail_percentile": workload.tail_pct, "tail_samples_beyond": beyond,
              "fail_frac": failed / n, "speed": res["speed"],
              "raw": {"setup_s": statistics.median(raw_setups),
                      "req_per_s": 1e3 * n / sum(raw_lat),
                      "req_p50_ms": statistics.median(raw_lat),
                      "req_tail_ms": percentile(raw_lat, workload.tail_pct)},
              **res["versions"], **_machine()}
    print("# report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"# {name:12s} {value:14.6f} {unit}")
    print(f"# {'fail_frac':12s} {failed / n:14.6f} ratio")
    return n, failed, metrics


def per_layer(workload, seed, deadline):
    base = ["--workload", workload.name, "--seed", str(seed),
            "--cycles", str(workload.trace_cycles)]
    *_, plain = _spawn(base, deadline)
    *_, traced = _spawn(base + ["--trace"], deadline)
    per_req = [statistics.mean(r["latencies_ms"]) / 1e3 for r in (plain, traced)]
    from tracer import LAYER_METRICS
    metrics = {name: (traced["layers"][name], unit) for name, unit in LAYER_METRICS.items()}
    metrics["trace.overhead_ratio"] = (per_req[1] / per_req[0], "ratio")
    failed = _failures(plain) + _failures(traced)
    n = len(plain["latencies_ms"]) + len(traced["latencies_ms"])
    report = {"workload": workload.name, "seed": seed, "cycles": workload.trace_cycles,
              "untraced_req_per_s": 1 / per_req[0], "traced_req_per_s": 1 / per_req[1],
              "absent": traced["absent"], **traced["versions"], **_machine()}
    print("# report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        mark = " (absent)" if name in traced["absent"] else ""
        print(f"# {name:40s} {value:16.4f} {unit}{mark}")
    return n, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bicatom" / "__init__.py").is_file():
        print(f"error: no bicatom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        # byte-compile once so that every timed interpreter loads cached code
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, stdout=subprocess.DEVNULL, env=_env(),
                       timeout=60)
        if args.trace:
            n, failed, metrics = per_layer(workload, args.seed, deadline)
        else:
            n, failed, metrics = end_to_end(workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
