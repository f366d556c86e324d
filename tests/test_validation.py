"""Invariant suite: green on healthy problems, red under fault injection."""
import json
from dataclasses import replace

import numpy as np
import pytest

from transmute.coeffs import compute_beta
from transmute.errors import DomainError
from transmute.kernel import kernel_K, make_kernel_series
from transmute.oracle import ProblemSetup
from transmute.validation import CheckResult, _reduction_check, run_validation

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


def test_goursat_check_holds_for_a_long_fit():
    # the diagonal is read at choose_N's truncation: the full M = 60 table
    # is off by 1.3e-2 relative at q = 20, choose_N's by 9.5e-7
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.full_like(x, 20.0))
    check = _by_name(run_validation(setup, M=60))["goursat-diagonal"]
    assert check.passed, (check.value, check.tolerance, check.detail)


def test_transmutation_check_holds_for_a_long_fit():
    # the integer-l series is truncated at choose_N, as for the diagonal:
    # the full M = 60 table read 5.6e-4 against the 1e-6 tolerance at
    # q = 20, the truncated one 2.9e-7; a corrupted table still fails
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.full_like(x, 20.0))
    table = compute_beta(setup, np.pi, 60)
    check = _by_name(run_validation(setup, beta=table))["transmutation-property"]
    assert check.passed, (check.value, check.tolerance, check.detail)
    corrupted = run_validation(setup, beta=table, beta_perturbation=1e-3)
    assert not _by_name(corrupted)["transmutation-property"].passed


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


def test_reduction_check_matches_scalar_loop(beta_harmonic):
    # one vectorized draw of 50 abscissae is the stream of 50 scalar draws
    bt = beta_harmonic[1]
    got = _reduction_check(bt, np.random.default_rng(11))
    int_series = make_kernel_series(bt, mode="integer-l")
    real_series = make_kernel_series(bt, mode="real-l", t_max_fraction=0.9)
    rng = np.random.default_rng(11)
    diffs, mags = [], []
    for _ in range(50):
        t = float(rng.uniform(0.0, 0.9)) * bt.x
        a = kernel_K(int_series, t)
        diffs.append(abs(a - kernel_K(real_series, t)))
        mags.append(abs(a))
    assert abs(got.value - max(diffs) / max(mags)) <= 1e-15


def test_table_for_another_problem_is_rejected(harmonic_setups, beta_harmonic):
    # a table fitted at l = 1 or x = pi must not be reused for l = 0 or x = 2
    with pytest.raises(DomainError, match=r"different \(l, x\)"):
        run_validation(harmonic_setups[0], beta=beta_harmonic[1])
    with pytest.raises(DomainError, match=r"different \(l, x\)"):
        run_validation(replace(harmonic_setups[1], b=2.0), beta=beta_harmonic[1])


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
