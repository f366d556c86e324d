"""Dirichlet eigenvalue solver and the truncation-selection heuristic."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from transmute import spectral
from transmute.coeffs import BetaTable, compute_beta
from transmute.errors import DomainError, TransmuteError
from transmute.kernel import make_kernel_series
from transmute.oracle import ProblemSetup, regular_solutions
from transmute.solution import u_N
from transmute.spectral import (
    HARMONIC_L1_EIGENVALUES,
    SpectrumReport,
    choose_N,
    default_fit_size,
    dirichlet_eigenvalues,
    oracle_eigenvalues,
)


# ---------------------------------------------------------------------------
# the integer-l rule


@pytest.mark.parametrize("l, integer", [
    (0.0, True), (-1e-10, True), (1.0 + 5e-10, True),
    (1.0 + 2e-9, False), (0.5, False),
])
def test_every_stage_classifies_l_alike(l, integer):
    # q == 0 has beta == 0 exactly, so the table needs no fit
    M = 8
    bt = BetaTable(l=l, x=np.pi, M=M, beta=np.zeros(M + 1),
                   fit_residual=0.0, sum_beta=0.0)
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    seen = {"kernel": make_kernel_series(bt).mode == "integer-l",
            "fit size": default_fit_size(l) != 60}
    try:
        u_N(make_kernel_series(bt), 1.0, np.pi)
        seen["u_N"] = True
    except DomainError:
        seen["u_N"] = False
    try:
        dirichlet_eigenvalues(setup, 1, beta=bt)
        seen["spectrum"] = True
    except DomainError:
        seen["spectrum"] = False
    assert set(seen.values()) == {integer}, seen


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
# constant potentials: omega_n = sqrt((j_{l+1/2,n} / b)^2 + Q) exactly


def _constant_setup(l, Q, c2=0.0):
    return ProblemSetup(l=float(l), b=np.pi,
                        q=lambda x: Q + c2 * np.asarray(x, dtype=float) ** 2)


def _constant_spectrum(l, Q, count):
    return np.array([math.sqrt((float(mpmath.besseljzero(mpmath.mpf(l) + 0.5, n))
                                / np.pi) ** 2 + Q) for n in range(1, count + 1)])


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("Q, tol", [(0.0, 1e-12), (20.0, 1e-6)])
def test_constant_potential_spectrum(l, Q, tol):
    # worst errors 2.1e-14 / 7.1e-15 (Q = 0) and 4.9e-9 / 9.1e-8 (Q = 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = dirichlet_eigenvalues(_constant_setup(l, Q), 30)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(l, Q, 30))) <= tol


@pytest.mark.parametrize("Q", [0.0, 20.0])
def test_constant_potential_shooting_at_half_integer_l(Q):
    # worst error 3.2e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle_eigenvalues(_constant_setup(0.5, Q), 30)
    want = _constant_spectrum(0.5, Q, 30)
    assert max(abs(got[n] - want[n - 1]) for n in range(1, 31)) <= 1e-10


@pytest.mark.xfail(raises=AssertionError,
                   reason="ordinals right, values off by 2.4e-4 / 2.8e-4: the "
                          "unweighted fit (ROADMAP item 2)")
@pytest.mark.parametrize("l", [0, 1])
def test_constant_potential_50_spectrum(l):
    rep = dirichlet_eigenvalues(_constant_setup(l, 50.0), 30)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(l, 50.0, 30))) <= 1e-6


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ordinals right, values off by 1.0e-2 with no warning: "
                          "the unweighted fit at large l (ROADMAP item 2)")
def test_constant_potential_spectrum_at_l5():
    rep = dirichlet_eigenvalues(_constant_setup(5, 20.0), 40)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(5, 20.0, 40))) <= 1e-10


# (l, q = Q + c2 x^2, roots asked, Sturm count at the top of the last
# bracket): the scan of omega > 0 never brackets eigenvalues below zero,
# and q == 120 has gaps below the scan step, so each ordinal would be off
_WRONG_ORDINALS = [(0, 120.0, 0.0, 30, 38), (1, -10.0, 1.0, 200, 202),
                   (1, 400.0, 1.0, 200, 212), (0, -3.0, 0.0, 30, 31),
                   (1, -3.0, 0.0, 30, 31)]


@pytest.mark.parametrize("l, Q, c2, count, sturm", _WRONG_ORDINALS)
def test_series_solver_raises_on_wrong_ordinals(l, Q, c2, count, sturm):
    with pytest.raises(TransmuteError, match=rf"^{count} roots found below omega = "
                                             rf"[0-9.]+, Sturm count {sturm}: roots "
                                             "were missed or lie below zero$"):
        dirichlet_eigenvalues(_constant_setup(l, Q, c2), count)


def test_series_solver_raises_on_spurious_roots():
    # a table for q == 0 (beta == 0 exactly) puts roots at 1..10, but only
    # sqrt(n^2 + 50) <= 10.25, n <= 7, are eigenvalues of q == 50
    bt = BetaTable(l=0.0, x=np.pi, M=12, beta=np.zeros(13),
                   fit_residual=0.0, sum_beta=0.0)
    with pytest.raises(TransmuteError, match=r"^10 roots found below omega = 10\.25, "
                                             r"Sturm count 7: some are spurious$"):
        dirichlet_eigenvalues(_constant_setup(0, 50.0), 10, beta=bt)


@pytest.mark.parametrize("l, Q, c2, count, sturm", [
    (0, 120.0, 0.0, 10, 12), (1, -10.0, 1.0, 5, 7), (1, 400.0, 1.0, 5, 7),
    (0, -3.0, 0.0, 5, 6), (1, -3.0, 0.0, 5, 6),
])
def test_shooting_raises_on_wrong_ordinals(l, Q, c2, count, sturm):
    # q == 120 would otherwise give 11.3578, the true omega_3, as omega_1
    with pytest.raises(TransmuteError, match=rf"^{count} roots found below omega = "
                                             rf"[0-9.]+, Sturm count {sturm}: "):
        oracle_eigenvalues(_constant_setup(l, Q, c2), count)


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
    vals = regular_solutions(setup, om_grid, [setup.b])[0][:, 0]
    crossings = int(np.sum(np.signbit(vals[:-1]) != np.signbit(vals[1:])))
    assert inside == crossings


def test_residuals_are_converged(harmonic_setups, beta_harmonic):
    rep = dirichlet_eigenvalues(harmonic_setups[1], 6, beta=beta_harmonic[1])
    series = make_kernel_series(beta_harmonic[1], rep.N_used)
    bracket_mag = max(
        abs(u_N(series, float(om), np.pi))
        for pair in rep.brackets for om in pair
    )
    assert np.max(rep.residuals) <= 1e-10 * bracket_mag


def test_missed_root_warning_on_coarse_scan(harmonic_setups, beta_harmonic):
    """A scan step of 2.2, twice the eigenvalue gap, steps over pairs of
    roots; Sturm's count at the top of the last bracket sees them all."""
    with pytest.raises(TransmuteError, match=r"^10 roots found below omega = 94\.6, "
                                             r"Sturm count 94: roots were missed"):
        dirichlet_eigenvalues(harmonic_setups[1], 10, beta=beta_harmonic[1], h_scan=2.2)


def test_harmonic_200_match_brentq_reference(harmonic_setups, beta_harmonic):
    rep = dirichlet_eigenvalues(harmonic_setups[1], 200, beta=beta_harmonic[1])
    series = make_kernel_series(beta_harmonic[1], rep.N_used)
    ref = np.array([
        brentq(lambda w: u_N(series, w, np.pi), lo, hi, xtol=1e-12, maxiter=200)
        for lo, hi in rep.brackets
    ])
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12


def test_spectrum_evaluates_u_N_over_arrays(harmonic_setups, beta_harmonic,
                                            monkeypatch):
    calls = []

    def counting(series, omega, x):
        calls.append(np.size(omega))
        return u_N(series, omega, x)

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
                        lambda series, omega, x: np.full(np.shape(omega), np.nan))
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


def test_oracle_eigenvalues_scans_only_to_the_largest_ordinal(monkeypatch):
    # q == 20: omega_7 = 8.31, inside the first scan block (96 h = 24);
    # count = 60 alone would scan to omega_60 = 60.17
    seen = []

    def spy(setup, omegas, x_eval):
        seen.append(np.max(np.abs(omegas)))
        return regular_solutions(setup, omegas, x_eval)

    monkeypatch.setattr(spectral, "regular_solutions", spy)
    got = oracle_eigenvalues(_constant_setup(0, 20.0), 60, which=[3, 7])
    assert max(seen) <= 24.0
    assert got == oracle_eigenvalues(_constant_setup(0, 20.0), 7, which=[3, 7])
    assert abs(got[7] - math.sqrt(69.0)) <= 1e-10


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
