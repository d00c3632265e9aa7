"""Acceptance gate: the full verification suite, one criterion per test.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts both the criterion verdict and its runtime budget.  The suite is
run once per session at threads=1; criterion 11 internally reruns its
workload at 1 and 8 threads and byte-compares the reports.
"""

import pytest

# seconds allowed per criterion; None = no budget stated
BUDGETS = {1: 10.0, 2: 1.0, 3: 5.0, 4: 5.0, 5: 5.0, 6: 30.0, 7: 60.0,
           8: 120.0, 9: 120.0, 10: 10.0, 11: None}


@pytest.fixture(scope="module")
def suite(suite_report):
    by_index = {r.index: r for r in suite_report.results}
    assert sorted(by_index) == list(range(1, 12))
    return by_index


def check(suite, index):
    r = suite[index]
    budget = BUDGETS[index]
    line = "%s criterion %2d: %s (%.2fs%s)" % (
        "PASS" if r.passed else "FAIL", index, r.name, r.elapsed_s,
        "" if budget is None else " / budget %.0fs" % budget)
    print(line)
    assert r.passed, r.details
    if budget is not None:
        assert r.elapsed_s < budget, line
    return r


def test_criterion_01_mcg_exhaustive_consistency(suite):
    r = check(suite, 1)
    assert r.details["unimodular_matrices"] == 2024
    assert r.details["candidates_enumerated"] == 21 ** 4
    assert r.details["mismatches"] == 0


def test_criterion_02_subgroup_classification_table(suite):
    check(suite, 2)


def test_criterion_03_rotation_identities(suite):
    r = check(suite, 3)
    assert float(r.details["max_conjugation_residual"]) < 1e-8
    assert float(r.details["max_additivity_residual"]) < 1e-8


def test_criterion_04_transport_recurrence(suite):
    assert float(check(suite, 4).details["max_residual"]) < 1e-8


def test_criterion_05_orbit_dichotomy(suite):
    r = check(suite, 5)
    assert r.details["cases"] == 125
    assert r.details["mismatches"] == 0


def test_criterion_06_averaging_preserves_rotation(suite):
    assert float(check(suite, 6).details["max_rho_drift"]) < 1e-6


def test_criterion_07_odd_shear_example(suite):
    r = check(suite, 7)
    assert float(r.details["circle_rho_gap"]) < 1e-10
    assert r.details["chain_columns"] == [0.0, 0.5]
    assert float(r.details["chain_residual"]) < 1e-10
    assert r.details["checks"]["no_irrotational_lift"] is True
    assert float(r.details["rho_final_norm"]) < 1e-8


def test_criterion_08_rotation_set_hulls(suite):
    r = check(suite, 8)
    assert float(r.details["twist_hull_hausdorff_to_segment"]) < 2e-2
    assert float(r.details["irrational_skew_distance_to_point"]) < 5e-3


def test_criterion_09_fixed_point_consistency_sweep(suite):
    r = check(suite, 9)
    assert r.details["counterexamples"] == 0
    assert r.details["hypothesis_met_count"] >= 1


def test_criterion_10_klein_closed_forms(suite):
    check(suite, 10)


def test_criterion_11_thread_determinism(suite):
    r = check(suite, 11)
    assert r.details["reports_identical"] is True
    assert r.details["orbit_means_bitwise_equal"] is True
