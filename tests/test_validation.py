"""Invariant suite: green on healthy problems, red under fault injection."""
import json

import numpy as np
import pytest

from transmute.validation import CheckResult, run_validation

EXPECTED_CHECKS = {
    "goursat-diagonal",
    "coefficient-sum",
    "transmutation-property",
    "integral-row-vs-quadrature",
    "integer-reduction",
}


def _by_name(results):
    return {r.name: r for r in results}


def test_all_checks_pass_harmonic_l1(harmonic_setups, beta_harmonic):
    results = run_validation(harmonic_setups[1], beta=beta_harmonic[1])
    names = {r.name for r in results}
    assert names == EXPECTED_CHECKS
    for r in results:
        assert r.passed, (r.name, r.value, r.tolerance, r.detail)


def test_all_checks_pass_zero_potential(zero_setups):
    results = run_validation(zero_setups[0], M=12)
    for r in results:
        assert r.passed, (r.name, r.value, r.detail)


def test_all_checks_pass_half_integer(setup_half, beta_half_dense):
    # non-integer l reroutes the integer-only checks through l = 1
    results = run_validation(setup_half, beta=beta_half_dense, M=60)
    for r in results:
        assert r.passed, (r.name, r.value, r.detail)


def test_fault_injection_trips_diagonal_check(harmonic_setups, beta_harmonic):
    results = run_validation(
        harmonic_setups[1], beta=beta_harmonic[1], beta_perturbation=1e-3
    )
    by = _by_name(results)
    assert not by["goursat-diagonal"].passed
    assert not by["coefficient-sum"].passed
    # the quadrature identity runs on independently computed integrals,
    # so a corrupted coefficient table cannot affect it
    assert by["integral-row-vs-quadrature"].passed


def test_results_json_serializable(zero_setups):
    results = run_validation(zero_setups[0], M=10)
    payload = [
        {"name": r.name, "passed": r.passed, "value": r.value,
         "tolerance": r.tolerance, "detail": r.detail}
        for r in results
    ]
    text = json.dumps(payload)  # raises on numpy scalar leakage
    assert "goursat-diagonal" in text
    for r in results:
        assert isinstance(r.passed, bool)
        assert isinstance(r.value, float)


def test_check_result_coerces_numpy_scalars():
    r = CheckResult(
        name="x", passed=np.bool_(True), value=np.float64(0.5),
        tolerance=1e-6, detail="",
    )
    assert isinstance(r.passed, bool)
    assert isinstance(r.value, float)
