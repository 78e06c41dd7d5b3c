"""The independent checks: they pass correct answers and count bad ones."""

import json

import reference as ref
from worker import check_all


def coulomb(eps):
    req = {"id": "0.0", "kind": "ground_state", "potential": "coulomb",
           "alpha_beta": 1.5, "h": 1e-3}
    ans = {"lambda": eps * 1.5 ** 2, "eps_over_alpha2": eps, "node_count": 0,
           "iterations": 44, "grid_points": 40001}
    return req, ans


def test_coulomb_exact_answer_passes():
    assert ref.check(*coulomb(-0.5 + 3e-7)) is None


def test_perturbed_energy_fails():
    assert "Coulomb" in ref.check(*coulomb(-0.5 + 1.1e-5))


def test_nodes_fail():
    req, ans = coulomb(-0.5)
    ans["node_count"] = 1
    assert "nodes" in ref.check(req, ans)


def test_raised_exception_fails():
    req, _ = coulomb(-0.5)
    assert ref.check(req, {"error": "RuntimeError: no bound state"}).startswith("raised")


def test_check_all_counts_exception_and_perturbation():
    good = coulomb(-0.5)
    bad = coulomb(-0.5 + 1e-5 * 1.5)
    failed = ({**good[0], "id": "0.2"}, {"error": "ValueError: boom"})
    records = [(good[0], good[1], 1), ({**bad[0], "id": "0.1"}, bad[1], 1),
               (failed[0], failed[1], 1)]
    assert [rid for rid, _ in check_all(records)] == ["0.1", "0.2"]


def test_z_reference_matches_test_oracles():
    # tests/test_bic_potential.py oracle values
    assert abs(float(ref.z_reference(0.654988)) - 0.999999945446913372) < 1e-15
    assert abs(float(ref.z_reference(1e4)) - 1.00012710196852309) < 1e-14


def test_table_row_off_by_tolerance_fails():
    rho = [0.5, 1.0, 1.5]
    w = [-float(ref.z_reference(r)) / r for r in rho]
    req = {"id": "0.0", "kind": "tabulate", "rho_min": 0.5, "rho_max": 1.5, "n": 3,
           "ref_index": 1}
    assert ref.check(req, {"rho": rho, "w": w}) is None
    w[1] += 1e-9
    assert "mpmath" in ref.check(req, {"rho": rho, "w": w})


def test_reference_chain_is_first_root():
    assert ref.first_root_failure(ref.CHAIN_A, 2.89873, 0.58520, -0.45720) is None
    assert "not a root" in ref.first_root_failure(ref.CHAIN_A + 1e-3, 2.89873,
                                                  0.58520, -0.45720)


def test_root_past_a_sign_change_fails():
    # a = 8 puts z0 past the first root of M_{8, 2.89873}
    why = ref.first_root_failure(8.0, 2.89873, 0.58520, -0.45720)
    assert "sign" in why


def test_calibrate_off_target_fails():
    req = {"id": "0.0", "kind": "cli", "argv": ["calibrate", "--target", "-0.4997"]}
    doc = {"schema": 1, "command": "calibrate", "nu": 2.9, "a": 4.4, "X": 6.7,
           "alpha_beta": 1.82, "eps_over_alpha2": -0.4997 + 1e-5, "target": -0.4997}
    ans = {"returncode": 0, "stdout": json.dumps(doc), "stderr": ""}
    assert "target" in ref.check(req, ans)


def test_cli_nonzero_exit_fails():
    req = {"id": "0.0", "kind": "cli", "argv": ["table1"]}
    ans = {"returncode": 1, "stdout": "", "stderr": "error:table1-row-failed: x\n"}
    assert ref.check(req, ans).startswith("exit 1")
