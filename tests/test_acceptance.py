"""The acceptance gate: every release criterion at its stated tolerance.

Each test runs one criterion at full resolution and prints its pass/fail
row; the suite is the exit condition for the build.
"""

from types import SimpleNamespace

import numpy as np
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


def _returns(value):
    return lambda *args, **kwargs: value


def _exact_landmarks(mesh, region):
    """lambda1 at its landmark: 4s on the empty region, s (2 - s) on the half."""
    s = mesh.params.s
    return (4.0 * s if not region.arcs else s * (2.0 - s)), None


_MESH = {"HemisphereMesh": lambda params, **kw: SimpleNamespace(params=params)}


@pytest.mark.parametrize("check, name, detail, fakes", [
    ("check_hemisphere_landmarks", "hemisphere landmarks", "",
     {**_MESH, "lambda1": _returns((0.0, None))}),
    ("check_hemisphere_landmarks", "hemisphere landmarks", "",
     {**_MESH, "lambda1": _exact_landmarks}),  # refinement ratio 0
    ("check_nu_acf_scan", "nu_acf cap scan", "s=0.25",
     {**_MESH, "nu_acf_caps": _returns(SimpleNamespace(nu_hat=0.0, table=[]))}),
    ("check_acf_monotonicity", "acf monotonicity", "",
     {"acf_one_phase": _returns(SimpleNamespace(values=np.array([1.0, 2.0])))}),
    ("check_pohozaev", "pohozaev residual", "", {"pohozaev_residual": _returns(1.0)}),
    ("check_comparison_estimate", "comparison estimate", "",
     {"comparison_pv": lambda p, xs, **kw: SimpleNamespace(
         values=np.full(np.shape(xs), np.nan))}),
], ids=["landmarks", "refinement", "nu_acf", "acf_constancy", "pohozaev",
        "comparison"])
def test_early_failure_keeps_the_criterion_name(check, name, detail, fakes,
                                                monkeypatch):
    # each early return reports a failure under the name the passing run
    # of the same criterion uses (no detail: the late return always has one)
    for attr, fake in fakes.items():
        monkeypatch.setattr(acceptance, attr, fake)
    result = getattr(acceptance, check)(quick=True)
    assert (result.name, result.detail) == (name, detail)
    assert result.passed is False
