"""The acceptance gate: every release criterion at its stated tolerance.

Each test runs one criterion at full resolution and prints its pass/fail
row; the suite is the exit condition for the build.
"""

import pytest

from fracseg import acceptance


def _run(check, verified_value):
    result = check(quick=False)
    print(result.row())
    assert result.passed, result.row()
    verified_value("full", result.name, result.value)


def test_criterion_01_gamma_landmarks(verified_value):
    _run(acceptance.check_gamma_landmarks, verified_value)


def test_criterion_02_dtn_symbol(verified_value):
    _run(acceptance.check_dtn_symbol, verified_value)


def test_criterion_03_hemisphere_eigenvalues(verified_value):
    _run(acceptance.check_hemisphere_landmarks, verified_value)


def test_criterion_04_nu_acf_scan(verified_value):
    _run(acceptance.check_nu_acf_scan, verified_value)


def test_criterion_05_almgren_suite(verified_value):
    _run(acceptance.check_almgren, verified_value)


def test_criterion_06_acf_monotonicity(verified_value):
    _run(acceptance.check_acf_monotonicity, verified_value)


def test_criterion_07_pohozaev_residual(verified_value):
    _run(acceptance.check_pohozaev, verified_value)


def test_criterion_08_decay_bound(verified_value):
    _run(acceptance.check_decay_bound, verified_value)


def test_criterion_09_comparison_estimate(verified_value):
    _run(acceptance.check_comparison_estimate, verified_value)


@pytest.mark.slow
def test_criterion_10_beta_sweep_segregation(verified_value):
    _run(acceptance.check_beta_sweep, verified_value)


def test_criterion_11_oracle_consistency(verified_value):
    _run(acceptance.check_oracle_consistency, verified_value)
