"""Seeded request plans for the four benchmark workloads.

A plan is a sequence of cycles; each cycle is a short, shuffled list of
requests whose mix is the same in every cycle.  Runs execute whole cycles
only, so every run sees the same proportions of request classes and the
median and tail percentiles land inside a class rather than on the edge
between two.  Cycle ``i`` of a plan depends only on (workload, seed, i), so
a faster program that completes more cycles sees the same first cycles as
a slower one.

This module uses the standard library only and never imports bicatom: the
program under test receives nothing but the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

Request = Dict[str, object]

# The paper's reference chain (bicatom.morse_fit.REFERENCE_MORSE, the
# analytic nu, the Numerov table row, the empirical target); reference.py
# checks against the same values.
REFERENCE_MORSE = {"G": -1.8300, "V0": 0.09805, "kappa": 0.58520, "b": -0.45720}
HEADLINE_NU = 2.89873
HEADLINE_AB_NUMEROV = 1.83297
AB_CHAIN = 1.823373498
EMPIRICAL_TARGET = -0.49973

# Fit starts of one surrogate-chain cycle: each parameter 15% above or below
# its reference value, the signs of (G, V0, kappa, b) running over a
# half-fraction 2^(4-1) design, so every cycle meets the same eight starts.
_INIT_SIGNS = tuple((g, v, k, g * v * k) for g in (1, -1) for v in (1, -1)
                    for k in (1, -1))
_INIT_STEP = 0.15


def _cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> List[float]:
    """k values spread evenly over [lo, hi] in a seeded order, each jittered
    by +-5% of a stratum.

    One value per stratum near its centre keeps the per-run latency
    distribution, and so its median and tail, nearly the same for every
    seed.
    """
    width = (hi - lo) / k
    values = [lo + width * (i + 0.5 + rng.uniform(-0.05, 0.05)) for i in range(k)]
    rng.shuffle(values)
    return values


def _cli_cycle(rng: random.Random, cycle: int) -> List[Request]:
    # the same rotation for every seed, so runs of equal length have equal mixes
    oracle_kind = ("coulomb", "morse", "bic")[cycle % 3]
    if oracle_kind == "coulomb":
        oracle = ["oracle", "--potential", "coulomb",
                  "--alpha-beta", f"{rng.uniform(1.0, 2.0):.6f}"]
    elif oracle_kind == "morse":
        oracle = ["oracle", "--potential", "morse", "--alpha-beta", repr(AB_CHAIN)]
    else:
        oracle = ["oracle", "--potential", "bic",
                  "--alpha-beta", repr(HEADLINE_AB_NUMEROV),
                  "--rho-max", f"{rng.uniform(38.0, 40.0):.4f}"]
    points = rng.randint(800, 1200)
    argvs = [
        ["solve", "--nu", f"{rng.uniform(2.6, 3.2):.6f}"],
        ["solve", "--nu", f"{rng.uniform(2.6, 3.2):.6f}"],
        ["fit", "--rho-max", f"{rng.uniform(9.0, 11.0):.4f}",
         "--samples", str(rng.randint(150, 250))],
        *(["calibrate", "--target", f"{rng.uniform(-0.4999, -0.4995):.7f}"]
          for _ in range(4)),
        ["potential", "--rho-min", f"{rng.uniform(0.001, 1.0):.5f}",
         "--rho-max", f"{rng.uniform(30.0, 40.0):.4f}", "--points", str(points)],
        oracle,
        ["table1"],
    ]
    reqs = [{"kind": "cli", "argv": argv} for argv in argvs]
    reqs[7]["ref_index"] = rng.randrange(points)  # the row checked against mpmath
    rng.shuffle(reqs)
    return reqs


# table sizes of one potential-table cycle: 200-2000 points, with the
# median (1000) and p75 (1400) classes repeated so that each is the middle
# of a block of requests rather than a single one
_TABLE_SIZES = (300, 600, 1000, 1000, 1000, 1400, 1400, 1700, 2000)


def _potential_cycle(rng: random.Random, cycle: int) -> List[Request]:
    reqs: List[Request] = []
    for size in _TABLE_SIZES:
        reqs.append({"kind": "tabulate", "rho_min": rng.uniform(0.001, 1.0),
                     "rho_max": rng.uniform(35.0, 40.0),
                     "n": size + rng.randint(-20, 20)})
    # the minority far out, where the 1/rho split and cancellation matter;
    # small enough to stay below the median request
    reqs.append({"kind": "tabulate", "rho_min": rng.uniform(1e3, 3e3),
                 "rho_max": rng.uniform(3e4, 1e5), "n": rng.randint(100, 150)})
    for r in reqs:
        r["ref_index"] = rng.randrange(int(r["n"]))
    rng.shuffle(reqs)
    return reqs


def _surrogate_cycle(rng: random.Random, cycle: int) -> List[Request]:
    reqs: List[Request] = []
    # window length drives the number of fit rounds (12 to 48), so it is
    # stratified too, independently of the sample count and the start
    for n, rho_max, signs in zip(_stratified(rng, 150, 300, 8),
                                 _stratified(rng, 8.0, 12.0, 8), _INIT_SIGNS):
        n = int(n)
        init = {k: v * (1.0 + _INIT_STEP * sign)
                for (k, v), sign in zip(REFERENCE_MORSE.items(), signs)}
        reqs.append({"kind": "chain", "rho_max": rho_max, "n": n, "init": init,
                     "nu": rng.uniform(2.5, 3.5),
                     "target": -0.4997 + rng.uniform(-2e-4, 2e-4),
                     "ref_index": rng.randrange(n)})
    rng.shuffle(reqs)
    if cycle == 0:
        # the paper's chain: [0, 10] with 200 samples from the default start,
        # the reference surrogate at nu = 2.89873, the empirical target
        reqs.insert(0, {"kind": "chain", "reference": True, "rho_max": 10.0,
                        "n": 200, "init": None, "nu": HEADLINE_NU,
                        "target": EMPIRICAL_TARGET, "ref_index": 137})
    return reqs


def _coupling_cycle(rng: random.Random, cycle: int) -> List[Request]:
    seeded = [rng.uniform(1.5, 2.2) for _ in range(3)]
    reqs: List[Request] = [
        {"kind": "ground_state", "potential": "bic", "alpha_beta": HEADLINE_AB_NUMEROV,
         "h": 1e-3, "headline": True},
    ]
    reqs += [{"kind": "ground_state", "potential": "bic", "alpha_beta": ab, "h": 1e-3}
             for ab in seeded]
    # the first seeded coupling again at half the step: a step-size cross-check
    reqs[1]["pair"] = True
    reqs.append({"kind": "ground_state", "potential": "bic", "alpha_beta": seeded[0],
                 "h": 5e-4, "pair": True})
    reqs.append({"kind": "ground_state", "potential": "morse", "alpha_beta": AB_CHAIN,
                 "h": 1e-3})
    reqs += [{"kind": "ground_state", "potential": "coulomb",
              "alpha_beta": rng.uniform(1.0, 2.0), "h": 1e-3} for _ in range(2)]
    rng.shuffle(reqs)
    return reqs


@dataclass(frozen=True)
class Workload:
    """One workload: its cycle generator and its fixed measurement settings.

    ``min_cycles`` is the least work (whole cycles) a timed run does,
    whatever its time budget.  In-process peak RSS is read right after it,
    so a slower program is not read earlier, with a smaller cache.
    ``tail_pct`` is the tail percentile reported as req_tail_ms: the highest
    of 50/75/90/95/99 with at least ten samples beyond it in that least
    work, fixed here so that runs stay comparable when the program gets
    faster.  ``trace_cycles`` is the fixed amount of work in each phase of
    a traced run.
    ``interpolator`` marks workloads whose set-up builds the shared
    bic_interpolator table.
    """

    name: str
    cycle_fn: Callable[[random.Random, int], List[Request]]
    tail_pct: int
    min_cycles: int
    trace_cycles: int
    interpolator: bool = False

    def cycle(self, seed: int, index: int) -> List[Request]:
        reqs = self.cycle_fn(_cycle_rng(self.name, seed, index), index)
        for j, r in enumerate(reqs):
            r["id"] = f"{index}.{j}"
        return reqs


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cli-session",
             _cli_cycle, tail_pct=50, min_cycles=2, trace_cycles=1),
    Workload("potential-table",
             _potential_cycle, tail_pct=75, min_cycles=4, trace_cycles=2),
    Workload("surrogate-chain",
             _surrogate_cycle, tail_pct=75, min_cycles=5, trace_cycles=4),
    Workload("coupling-scan",
             _coupling_cycle, tail_pct=75, min_cycles=5, trace_cycles=2,
             interpolator=True),
)}
