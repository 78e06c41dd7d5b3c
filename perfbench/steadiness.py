"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 [--seconds 20] [--first-seed 1] \
        [--workload NAME ...]

Runs perfbench/run.py once per seed, one run at a time, for each workload,
and prints for every end-to-end metric its median, first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  A workload is steady when
every spread except setup_s's stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    default=None, help="repeatable; default: all workloads")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    steady = True
    for name in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed requests")
                steady = False
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name:16s} seed {seed:4d} " + " ".join(
                f"{k} {v:.4f}" for k, v in runs[-1].items()), flush=True)
        for metric in bounds:
            s = summarize([r[metric] for r in runs])
            ok = metric == "setup_s" or s["spread"] < bounds[metric] / 3
            steady &= ok
            print(f"{name:16s} {metric:12s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  "
                  f"spread {s['spread']:.4f}  bound {bounds[metric]}"
                  f"{'' if ok else '  UNSTEADY'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
