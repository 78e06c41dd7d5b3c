"""The seeded request generators."""

import pytest

from plans import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    w = WORKLOADS[name]
    for cycle in (0, 1, 5):
        assert w.cycle(7, cycle) == w.cycle(7, cycle)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_requests(name):
    w = WORKLOADS[name]
    assert w.cycle(7, 0) != w.cycle(8, 0)
    assert w.cycle(7, 0) != w.cycle(7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_has_the_same_mix(name):
    def cls(r):
        if r["kind"] == "cli":
            argv = r["argv"]
            return argv[0] + (argv[2] if argv[0] == "oracle" else "")
        return r["kind"] + str(r.get("potential", "")) + str(r.get("h", ""))

    def mix(reqs):
        return sorted(cls(r) for r in reqs)
    w = WORKLOADS[name]
    if name == "cli-session":  # the oracle potential rotates over three cycles
        assert mix(w.cycle(3, 0)) == mix(w.cycle(4, 3)) != mix(w.cycle(3, 1))
    else:
        assert mix(w.cycle(3, 1)) == mix(w.cycle(4, 2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_min_cycles_leave_ten_samples_beyond_the_tail(name):
    w = WORKLOADS[name]
    n = sum(len(w.cycle(5, c)) for c in range(w.min_cycles))
    assert n * (100 - w.tail_pct) / 100 >= 10


def test_potential_table_shares_no_rho():
    seen = set()
    w = WORKLOADS["potential-table"]
    for cycle in range(4):
        for r in w.cycle(11, cycle):
            n, lo, hi = r["n"], r["rho_min"], r["rho_max"]
            grid = {lo + (hi - lo) * i / (n - 1) for i in range(n)}
            assert not grid & seen
            seen |= grid


def test_surrogate_chain_starts_with_the_reference_chain():
    w = WORKLOADS["surrogate-chain"]
    for seed in (1, 2):
        first = w.cycle(seed, 0)[0]
        assert first["reference"] and first["nu"] == 2.89873
        assert not any(r.get("reference") for r in w.cycle(seed, 1))
