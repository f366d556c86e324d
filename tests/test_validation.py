"""Invariant suite: green on healthy problems, red under fault injection."""
import json
import numpy as np
import pytest

from transmute.coeffs import compute_beta
from transmute.errors import IntegrationFailure
from transmute.oracle import ProblemSetup
import transmute.validation as validation
from transmute.validation import CheckResult, run_validation

EXPECTED_CHECKS = {"goursat-diagonal", "coefficient-sum", "transmutation-property"}


def _by_name(results):
    return {r.name: r for r in results}


def test_all_checks_pass_harmonic_l1(harmonic_setups):
    results = run_validation(harmonic_setups[1], M=25)
    names = {r.name for r in results}
    assert names == EXPECTED_CHECKS
    for r in results:
        assert r.passed, (r.name, r.value, r.tolerance, r.detail)


def test_all_checks_pass_zero_potential(zero_setups):
    results = run_validation(zero_setups[0], M=12)
    for r in results:
        assert r.passed, (r.name, r.value, r.detail)


def test_all_checks_pass_half_integer(setup_half):
    # non-integer l reroutes the diagonal check through l = 1
    results = run_validation(setup_half, M=100)
    assert {r.name for r in results} == EXPECTED_CHECKS
    for r in results:
        assert r.passed, (r.name, r.value, r.detail)


def test_goursat_check_holds_for_a_long_fit():
    # the diagonal is read off the weighted d fit at S = M: the whole
    # M = 60 beta table was off by 1.3e-2 relative at q = 20, the d fit
    # reads 6.4e-9
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.full_like(x, 20.0))
    check = _by_name(run_validation(setup, M=60))["goursat-diagonal"]
    assert check.passed, (check.value, check.tolerance, check.detail)


def test_transmutation_check_holds_for_a_long_fit():
    # the integer-l series is the weighted d fit at S = M, as for the
    # diagonal: the whole M = 60 beta table read 5.6e-4 against the 1e-6
    # tolerance at q = 20; a corrupted series still fails
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.full_like(x, 20.0))
    check = _by_name(run_validation(setup, M=60))["transmutation-property"]
    assert check.passed, (check.value, check.tolerance, check.detail)
    corrupted = run_validation(setup, M=60, beta_perturbation=1e-3)
    assert not _by_name(corrupted)["transmutation-property"].passed


def test_fault_injection_trips_diagonal_check(harmonic_setups):
    results = run_validation(harmonic_setups[1], M=25, beta_perturbation=1e-3)
    by = _by_name(results)
    assert not by["goursat-diagonal"].passed
    assert not by["coefficient-sum"].passed


_POTENTIALS = {
    "x^2": lambda x: np.asarray(x, dtype=float) ** 2,
    "20": lambda x: np.full_like(np.asarray(x, dtype=float), 20.0),
    "50": lambda x: np.full_like(np.asarray(x, dtype=float), 50.0),
}


@pytest.mark.parametrize("l", [0, 1, 5, 20])
@pytest.mark.parametrize("q", sorted(_POTENTIALS))
def test_every_injected_fault_fails_a_check(l, q):
    # the suite's three checks all read the problem: a clean run passes
    # them all, and a coefficient moved by 1e-3 or 1e-6 of the largest
    # fails at least one
    setup = ProblemSetup(l=float(l), b=np.pi, q=_POTENTIALS[q])
    clean = run_validation(setup)
    assert all(r.passed for r in clean), [(r.name, r.value, r.tolerance) for r in clean]
    for amount in (1e-3, 1e-6):
        corrupted = run_validation(setup, beta_perturbation=amount)
        assert not all(r.passed for r in corrupted), amount


def test_seed_is_ignored(harmonic_setups):
    # no check draws random numbers; the keyword stays for old callers
    a = run_validation(harmonic_setups[1], M=25, seed=0)
    assert a == run_validation(harmonic_setups[1], M=25, seed=12345)


@pytest.mark.parametrize("l, tol", [(0.5, 1e-3), (1.0, 1e-6)])
def test_transmutation_failure_keeps_its_tolerance(monkeypatch, l, tol):
    # a raising solve fails the check under the tolerance the check
    # itself applies at that l
    def failing(*args, **kwargs):
        raise IntegrationFailure("grid refinement did not converge", 1.0)

    monkeypatch.setattr(validation, "apply_transmutation", failing)
    setup = ProblemSetup(l=l, b=np.pi, q=_POTENTIALS["x^2"])
    check = {r.name: r for r in run_validation(setup, M=18)}["transmutation-property"]
    assert not check.passed and check.value == np.inf
    assert check.tolerance == tol and "did not converge" in check.detail


@pytest.mark.parametrize("l, sweeps", [(0.0, 2), (0.5, 3)])
def test_one_oracle_sweep_per_l_feeds_both_fits(monkeypatch, l, sweeps):
    """Each l takes one fit sweep, read by the d series and, at integer l,
    by compute_beta's table, and the transmutation check one more solve:
    two regular_solutions calls at integer l, three at real l, where
    compute_beta sweeps at l itself.  The table is compute_beta's and the
    series the spectrum's fit at S = M, to the bit."""
    from transmute import coeffs, spectral

    calls = []
    exact = validation.regular_solutions

    def counting(*args):
        calls.append(args)
        return exact(*args)

    seen = {}
    sum_check, goursat_check = validation._sum_beta_check, validation._goursat_check
    monkeypatch.setattr(coeffs, "regular_solutions", counting)
    monkeypatch.setattr(validation, "regular_solutions", counting)
    monkeypatch.setattr(validation, "_sum_beta_check",
                        lambda beta: seen.setdefault("beta", beta) and sum_check(beta))
    monkeypatch.setattr(validation, "_goursat_check",
                        lambda setup, series: seen.setdefault("series", (setup, series))
                        and goursat_check(setup, series))
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.full_like(x, 20.0))
    assert {r.name for r in run_validation(setup, M=18)} == EXPECTED_CHECKS
    assert len(calls) == sweeps
    monkeypatch.undo()
    assert np.array_equal(seen["beta"].beta, compute_beta(setup, np.pi, 18).beta)
    setup_int, series = seen["series"]
    assert setup_int.l == round(l + 0.25) and series.N == 18
    assert np.array_equal(series.weights, spectral._fit_series(setup_int, 18).weights)


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

