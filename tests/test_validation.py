"""Invariant suite: green on healthy problems, red under fault injection."""
import json
import numpy as np
import pytest

from transmute.coeffs import compute_beta
from transmute.kernel import kernel_K, make_kernel_series
from transmute.oracle import ProblemSetup
import transmute.validation as validation
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
    # non-integer l reroutes the integer-only checks through l = 1
    results = run_validation(setup_half, M=100)
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
    # the quadrature identity runs on independently computed integrals,
    # so a corrupted coefficient table cannot affect it
    assert by["integral-row-vs-quadrature"].passed


def test_integral_row_check_trips_on_a_moved_entry(monkeypatch, harmonic_setups):
    # one entry of every row off by 1e-7 of the row's largest entry, two
    # decades above the check's tolerance
    setup = harmonic_setups[1]
    honest = validation._integral_row_check(setup, 1, 25, np.random.default_rng(0))
    assert honest.passed, honest.value
    exact = validation.integral_row

    def moved(l, m_max, omega, x):
        row = exact(l, m_max, omega, x).copy()
        row[m_max // 2] += 1e-7 * np.max(np.abs(row))
        return row

    monkeypatch.setattr(validation, "integral_row", moved)
    check = validation._integral_row_check(setup, 1, 25, np.random.default_rng(0))
    assert not check.passed, check.value


@pytest.mark.parametrize("li", [0, 1, 5, 10])
def test_quadrature_row_matches_eval_jacobi_and_jv(li):
    # the check's reference against the route it replaced: one eval_jacobi
    # call per degree and the general-order jv
    from scipy.special import eval_jacobi, jv

    from transmute.kernel import _gl_nodes

    rng = np.random.default_rng(li)
    z24, w24 = _gl_nodes(24)
    for m_max in (1, 7, 23, 59):
        x = float(rng.uniform(0.4, np.pi))
        omega = float(rng.uniform(1.0, 100.0)) / x
        got = validation._quadrature_row(li, m_max, omega, x)
        panels = max(4, 2 * int(np.ceil(omega * x / np.pi)), m_max // 4)
        edges = np.linspace(0.0, x, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * z24[None, :]).ravel()
        w = (half[:, None] * w24[None, :]).ravel()
        zz = 1.0 - 2.0 * (t / x) ** 2
        base = w * t ** (li + 1.5) * jv(li + 0.5, omega * t)
        want = np.array([np.dot(eval_jacobi(m, li + 0.5, 0.0, zz), base)
                         for m in range(m_max + 1)])
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (m_max, err)


def test_reduction_check_matches_scalar_loop(beta_harmonic):
    # one vectorized draw of 50 abscissae is the stream of 50 scalar draws
    bt = beta_harmonic[1]
    got = _reduction_check(bt, np.random.default_rng(11))
    int_series = make_kernel_series(bt, bt.M - 2, mode="integer-l")
    real_series = make_kernel_series(bt, bt.M, mode="real-l", t_max_fraction=0.9)
    rng = np.random.default_rng(11)
    diffs, mags = [], []
    for _ in range(50):
        t = float(rng.uniform(0.0, 0.9)) * bt.x
        a = kernel_K(int_series, t)
        diffs.append(abs(a - kernel_K(real_series, t)))
        mags.append(abs(a))
    assert abs(got.value - max(diffs) / max(mags)) <= 1e-15


@pytest.mark.parametrize("l, sweeps", [(0.0, 2), (0.5, 3)])
def test_one_oracle_sweep_per_l_feeds_both_fits(monkeypatch, l, sweeps):
    """Each l takes one fit sweep, read by compute_beta's table and by the
    d series, and the transmutation check one more solve: two
    regular_solutions calls at integer l, three at real l, as when the
    checks read the beta table alone.  The table is compute_beta's and the
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


@pytest.mark.parametrize("li", [0, 1, 5, 10, 20, 30, 45, 60, 90])
def test_spherical_j_reference_matches_spherical_jn(li):
    """The integral-row check's j_li, on both sides of its switch at
    li + 1 and below 1e-6, within 1e-13 of max|j| of scipy's."""
    from scipy.special import spherical_jn

    z = np.sort(np.r_[np.logspace(-9, -6, 50), np.linspace(1e-6, 100.0, 5001),
                      li + 1.0 + np.array([-1e-9, 0.0, 1e-9])])
    want = spherical_jn(li, z)
    got = validation._spherical_j(li, z)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
