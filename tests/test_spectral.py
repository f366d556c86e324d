"""Dirichlet eigenvalue solver and the truncation-selection heuristic."""
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from transmute import spectral
from transmute.coeffs import BetaTable, compute_beta
from transmute.errors import DomainError, MissedRootWarning, TransmuteError
from transmute.solution import solution_evaluator, u_N
from transmute.spectral import (
    HARMONIC_L1_EIGENVALUES,
    SpectrumReport,
    choose_N,
    default_fit_size,
    dirichlet_eigenvalues,
    oracle_eigenvalues,
)


# ---------------------------------------------------------------------------
# choose_N


def test_choose_N_pure_decay_uses_whole_table():
    M = 20
    bt = BetaTable(l=1.0, x=np.pi, M=M, beta=2.0 ** -np.arange(M + 1),
                   fit_residual=0.0, sum_beta=0.0)
    assert choose_N(bt) == M - 2  # M - l - 1: nothing stalls


def test_choose_N_stops_at_noise_plateau():
    rng = np.random.default_rng(7)
    M = 20
    vals = 2.0 ** -np.arange(M + 1)
    vals[10:] = 1e-16 * rng.uniform(0.2, 1.0, M + 1 - 10)
    bt = BetaTable(l=1.0, x=np.pi, M=M, beta=vals,
                   fit_residual=0.0, sum_beta=0.0)
    # decay ends at k = 10, so the usable truncation is about 10 - l - 1
    assert 6 <= choose_N(bt) <= 12


def test_choose_N_on_fitted_harmonic_table(beta_harmonic):
    assert 10 <= choose_N(beta_harmonic[1]) <= 16


def test_choose_N_needs_headroom():
    bt = BetaTable(l=1.0, x=np.pi, M=4, beta=np.ones(5),
                   fit_residual=0.0, sum_beta=0.0)
    with pytest.raises(DomainError):
        choose_N(bt)


def test_default_fit_size():
    assert default_fit_size(0.0) >= 25
    assert default_fit_size(10.0) >= 2 * 10 + 16
    assert default_fit_size(0.5) >= 50  # slow decay needs the long table


# ---------------------------------------------------------------------------
# free problems with known spectra


def test_zero_potential_l0_integer_spectrum(zero_setups):
    rep = dirichlet_eigenvalues(zero_setups[0], 12)
    assert np.max(np.abs(rep.eigenvalues - np.arange(1, 13))) <= 1e-10
    assert rep.spacing_ok


def test_zero_potential_l1_bessel_zeros(zero_setups):
    rep = dirichlet_eigenvalues(zero_setups[1], 8)
    f = lambda z: jv(1.5, z)
    zg = np.linspace(2.0, 30.0, 4001)
    fg = f(zg)
    zeros = []
    for i in range(len(zg) - 1):
        if (fg[i] < 0) != (fg[i + 1] < 0):
            zeros.append(brentq(f, zg[i], zg[i + 1], xtol=1e-13))
    zeros = np.array(zeros[: 8])
    assert np.max(np.abs(rep.eigenvalues * np.pi - zeros)) < 1e-10


# ---------------------------------------------------------------------------
# perturbed problem


def test_harmonic_l1_against_reference_values(harmonic_setups):
    refs = {n: HARMONIC_L1_EIGENVALUES[n] for n in (1, 2, 5, 10)}
    rep = dirichlet_eigenvalues(harmonic_setups[1], 10, references=refs)
    assert rep.reference_errors is not None
    assert max(rep.reference_errors.values()) < 1e-9
    assert rep.N_used >= 8


def test_eigenvalue_count_matches_oracle_sign_changes(harmonic_setups):
    """Number of roots below a cutoff must agree with a direct scan of the
    shooting function."""
    setup = harmonic_setups[2]
    rep = dirichlet_eigenvalues(setup, 16)
    cutoff = 15.0
    inside = np.sum(rep.eigenvalues < cutoff)
    assert rep.eigenvalues[-1] > cutoff  # the request covered the window

    om_grid = np.linspace(0.05, cutoff, 700)
    from transmute.oracle import regular_solution_ode

    vals = np.array([
        float(regular_solution_ode(setup, float(om), np.array([setup.b])).u_values[0])
        for om in om_grid
    ])
    crossings = int(np.sum(np.signbit(vals[:-1]) != np.signbit(vals[1:])))
    assert inside == crossings


def test_residuals_are_converged(harmonic_setups, beta_harmonic):
    rep = dirichlet_eigenvalues(harmonic_setups[1], 6, beta=beta_harmonic[1])
    ev = solution_evaluator(beta_harmonic[1], rep.N_used)
    bracket_mag = max(
        abs(u_N(ev, float(om), np.pi))
        for pair in rep.brackets for om in pair
    )
    assert np.max(rep.residuals) <= 1e-10 * bracket_mag


def test_missed_root_warning_on_coarse_scan(harmonic_setups, beta_harmonic):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = dirichlet_eigenvalues(
            harmonic_setups[1], 10, beta=beta_harmonic[1], h_scan=2.2
        )
    assert any(issubclass(w.category, MissedRootWarning) for w in caught)
    assert not rep.spacing_ok


def test_harmonic_200_match_brentq_reference(harmonic_setups, beta_harmonic):
    rep = dirichlet_eigenvalues(harmonic_setups[1], 200, beta=beta_harmonic[1])
    ev = solution_evaluator(beta_harmonic[1], rep.N_used)
    ref = np.array([
        brentq(lambda w: u_N(ev, w, np.pi), lo, hi, xtol=1e-12, maxiter=200)
        for lo, hi in rep.brackets
    ])
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12


def test_spectrum_evaluates_u_N_over_arrays(harmonic_setups, beta_harmonic,
                                            monkeypatch):
    calls = []

    def counting(ev, omega, x):
        calls.append(np.size(omega))
        return u_N(ev, omega, x)

    monkeypatch.setattr(spectral, "u_N", counting)
    rep = dirichlet_eigenvalues(harmonic_setups[1], 200, beta=beta_harmonic[1])
    assert rep.eigenvalues.size == 200
    assert len(calls) < 100


# ---------------------------------------------------------------------------
# scan and polish on synthetic characteristic functions


def test_scan_nudges_exact_zero_on_grid_node():
    brackets = spectral._bracket_roots(lambda w: w - 1.0, 1, 0.25)
    assert len(brackets) == 1
    lo, hi, f_lo, f_hi = brackets[0]
    assert lo == 0.75 and hi == 1.0 + 1e-9 * 0.25   # the node at 1 moved up
    assert f_lo < 0.0 < f_hi
    root = spectral._polish(lambda w: w - 1.0, brackets)
    assert abs(root[0] - 1.0) <= 1e-12


def test_scan_rejects_non_finite_values():
    # F is NaN on (2.2, 2.6), around its root 3 pi/4; taking NaN for either
    # sign would drop that root and shift every later ordinal
    def F(w):
        return np.where((w > 2.2) & (w < 2.6), np.nan, np.cos(2.0 * w))

    with pytest.raises(TransmuteError, match="omega = 2.25"):
        spectral._bracket_roots(F, 2, 0.25)


def test_polish_rejects_non_finite_values():
    def F(w):
        return np.where(np.abs(w - 1.0) < 0.1, np.nan, w - 1.0)

    with pytest.raises(TransmuteError, match="omega"):
        spectral._polish(F, [(0.5, 1.6, -0.5, 0.6)])


def test_polish_reports_unconverged_bracket():
    # a steep step: regula falsi creeps along the flat side, so three
    # iterations cannot close the bracket
    def F(w):
        return np.where(w < 1.0, -1.0, 1e-3)

    with pytest.raises(TransmuteError, match=r"3 iterations; bracket \[0.5, "):
        spectral._polish(F, [(0.5, 2.0, -1.0, 1e-3)], maxiter=3)
    assert abs(spectral._polish(F, [(0.5, 2.0, -1.0, 1e-3)])[0] - 1.0) <= 2e-12


def test_cli_reports_non_finite_characteristic_function(monkeypatch, tmp_path, capsys):
    from transmute.cli import main

    monkeypatch.setattr(spectral, "u_N",
                        lambda ev, omega, x: np.full(np.shape(omega), np.nan))
    rc = main(["spectrum", "--l", "1", "--potential", "poly:0,0,1", "--count", "3",
               "--M", "8", "--out", str(tmp_path)])
    assert rc == 2
    assert "nan at omega" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report integrity


def test_report_rejects_root_outside_bracket():
    with pytest.raises(DomainError):
        SpectrumReport(
            eigenvalues=np.array([1.0]),
            brackets=np.array([[2.0, 3.0]]),
            residuals=np.array([0.0]),
            N_used=5,
            reference_errors=None,
        )


def test_report_rejects_unsorted_eigenvalues():
    with pytest.raises(DomainError):
        SpectrumReport(
            eigenvalues=np.array([2.0, 1.0]),
            brackets=np.array([[1.5, 2.5], [0.5, 1.5]]),
            residuals=np.array([0.0, 0.0]),
            N_used=5,
            reference_errors=None,
        )


def test_report_is_write_protected(zero_setups):
    rep = dirichlet_eigenvalues(zero_setups[0], 3)
    with pytest.raises(ValueError):
        rep.eigenvalues[0] = 0.0


# ---------------------------------------------------------------------------
# shooting cross-check


def test_oracle_eigenvalues_rejects_non_positive_scan_step(zero_setups):
    # a zero step would scan omega = 0 forever
    for h in (0.0, -0.25):
        with pytest.raises(DomainError):
            oracle_eigenvalues(zero_setups[0], 1, h_scan=h)


def test_oracle_eigenvalues_refines_requested_ordinals(harmonic_setups):
    got = oracle_eigenvalues(harmonic_setups[1], 5, which=[1, 5])
    assert set(got) == {1, 5}
    assert abs(got[1] - HARMONIC_L1_EIGENVALUES[1]) < 1e-8
    assert abs(got[5] - HARMONIC_L1_EIGENVALUES[5]) < 1e-8


# ---------------------------------------------------------------------------
# argument validation


def test_dirichlet_argument_validation(harmonic_setups, beta_harmonic, setup_half):
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(harmonic_setups[1], 0)
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(setup_half, 3)  # integer l only
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            harmonic_setups[1], 3, beta=beta_harmonic[1], M=30
        )  # beta excludes the fit controls
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            harmonic_setups[0], 3, beta=beta_harmonic[1]
        )  # table fitted at a different l
