"""Dirichlet eigenvalue solver and its fit of the series coefficients."""
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from transmute import coeffs, kernel, spectral
from transmute.coeffs import BetaTable
from transmute.errors import DomainError, IllConditionedFit, TransmuteError
from transmute.kernel import make_kernel_series
from transmute.oracle import ProblemSetup, regular_solutions
from transmute.solution import u_N
from transmute.spectral import (
    HARMONIC_L1_EIGENVALUES,
    SpectrumReport,
    default_fit_size,
    dirichlet_eigenvalues,
    oracle_eigenvalues,
)


# ---------------------------------------------------------------------------
# the integer-l rule


@pytest.mark.parametrize("l, integer", [
    (0.0, True), (-1e-10, True), (1.0 + 5e-10, True), (1.0 - 5e-10, True),
    (1.0 + 2e-9, False), (0.5, False),
])
def test_every_stage_classifies_l_alike(l, integer):
    # q == 0 has beta == 0 exactly, so the table needs no fit
    M = 8
    bt = BetaTable(l=l, x=np.pi, M=M, beta=np.zeros(M + 1),
                   fit_residual=0.0, sum_beta=0.0)
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    # an integer-l series of a zero table was cut at N = 0
    series = make_kernel_series(bt, N=0 if integer else None)
    seen = {"kernel": series.mode == "integer-l",
            "fit size": default_fit_size(l) != 60}
    try:
        u_N(series, 1.0, np.pi)
        seen["u_N"] = True
    except DomainError:
        seen["u_N"] = False
    try:
        dirichlet_eigenvalues(setup, 1)   # the spectrum fits its own series
        seen["spectrum"] = True
    except DomainError:
        seen["spectrum"] = False
    assert set(seen.values()) == {integer}, seen


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


@lru_cache(maxsize=None)
def _bessel_zeros(l, count):
    """j_{l+1/2,1..count}, shared by every Q of one l (mpmath: ~0.25 s per l)."""
    return tuple(float(mpmath.besseljzero(mpmath.mpf(l) + 0.5, n))
                 for n in range(1, count + 1))


def _constant_spectrum(l, Q, count):
    return np.sqrt((np.array(_bessel_zeros(l, count)) / np.pi) ** 2 + Q)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("Q, tol", [(0.0, 1e-12), (20.0, 1e-6)])
def test_constant_potential_spectrum(l, Q, tol):
    # worst errors 2.9e-14 / 2.8e-14 (Q = 0) and 3.4e-12 / 1.4e-12 (Q = 20)
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


@pytest.mark.parametrize("l", [0, 1])
def test_constant_potential_50_spectrum(l):
    # worst errors 7.4e-8 / 1.6e-8
    rep = dirichlet_eigenvalues(_constant_setup(l, 50.0), 30)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(l, 50.0, 30))) <= 1e-6


def test_constant_potential_spectrum_at_l5():
    # worst error 1.1e-13
    rep = dirichlet_eigenvalues(_constant_setup(5, 20.0), 40)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(5, 20.0, 40))) <= 1e-10


@pytest.mark.parametrize("Q", [0.0, 20.0])
@pytest.mark.parametrize("l", [2, 5, 10, 20, 30])
def test_constant_potential_spectrum_at_growing_l(l, Q):
    # the weighted fit keeps the high rows, where |u| is many decades above
    # its low ones: worst error 6.2e-13 (l = 2, Q = 20), the unweighted
    # cosine fit gave 1.7e-6 at l = 2, 2.6e-3 at l = 5 and 0.93 at l = 20
    rep = dirichlet_eigenvalues(_constant_setup(l, Q), 40)
    assert np.max(np.abs(rep.eigenvalues - _constant_spectrum(l, Q, 40))) <= 1e-10


def test_fit_series_takes_any_x_up_to_b(harmonic_setups):
    # the kernel command fits d at each column's x, on the sweep
    # _sweep(S)/x; x = b is the spectrum's fit to the bit
    setup = harmonic_setups[1]
    default = spectral._fit_series(setup, 20)
    assert np.array_equal(default.weights, spectral._fit_series(setup, 20, np.pi).weights)
    # K(x, x) = x^3/6 to 2e-10 at pi/3 and 8e-10 at pi/12, where x^3/6
    # is 3e-3
    for x in (np.pi / 3, np.pi / 12):
        series = spectral._fit_series(setup, 20, x)
        assert series.x == x and series.N == 20 and series.l == 1.0
        assert abs(kernel.kernel_K(series, x) - x ** 3 / 6.0) <= 1e-9
    for x in (0.0, -1.0, np.pi * (1.0 + 1e-9), np.nan):
        with pytest.raises(DomainError, match=r"outside \(0, b\]"):
            spectral._fit_series(setup, 20, x)


def test_spectrum_fits_from_one_short_sweep(monkeypatch):
    # one regular_solutions call over 3(S+1) frequencies, the very sweep
    # compute_beta solves for M = S at x = b, and none of the cosine fit's
    # path
    sweeps = []

    def counting(setup, omegas, x_eval):
        sweeps.append(np.array(omegas))
        return regular_solutions(setup, omegas, x_eval)

    def forbidden(*args, **kwargs):
        raise AssertionError("the spectrum must not call the cosine fit's path")

    fit = coeffs.compute_beta
    monkeypatch.setattr(spectral, "regular_solutions", counting)
    monkeypatch.setattr(coeffs, "regular_solutions", counting)
    for module, name in ((coeffs, "compute_beta"), (kernel, "make_kernel_series")):
        monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(spectral, name, forbidden, raising=False)
    S, setup = 20, _constant_setup(1, 20.0)
    rep = dirichlet_eigenvalues(setup, 30)
    assert rep.N_used == S
    assert len(sweeps) == 1
    assert sweeps[0].size == 3 * (S + 1) == coeffs.sample_count(S)
    assert np.max(sweeps[0]) * setup.b <= 3 * (2 * S + 3) * (1 + 1e-12)
    fit(setup, setup.b, S)
    assert len(sweeps) == 2 and np.array_equal(sweeps[0], sweeps[1])


# (l, q = Q + c2 x^2, roots asked, Sturm count at the top of the last
# bracket): the scan of omega > 0 never brackets eigenvalues below zero,
# so each ordinal would be off
_WRONG_ORDINALS = [(1, -10.0, 1.0, 200, 202), (0, -3.0, 0.0, 30, 31),
                   (1, -3.0, 0.0, 30, 31)]


@pytest.mark.parametrize("l, Q, c2, count, sturm", _WRONG_ORDINALS)
def test_series_solver_raises_on_wrong_ordinals(l, Q, c2, count, sturm):
    with pytest.raises(TransmuteError, match=rf"^{count} roots found below omega = "
                                             rf"[0-9.]+, Sturm count {sturm}: roots "
                                             "were missed or lie below zero$"):
        dirichlet_eigenvalues(_constant_setup(l, Q, c2), count)


@pytest.mark.parametrize("l, Q, c2", [(0, 120.0, 0.0), (1, 400.0, 1.0)])
def test_series_solver_raises_on_rank_deficient_fit(l, Q, c2):
    # below omega = sqrt(Q) |u| grows, and the row weights span 15 (q == 120)
    # and 26 (400 + x^2) decades over the sweep, so the weighted columns lose
    # full rank; a rank-truncated solve gives a series that misses roots of
    # q == 120 even on a scan step of 0.02, so the fit raises instead
    with pytest.raises(IllConditionedFit, match=r"^weighted fit of d_0\.\.d_20 has "
                                                r"rank \d+ < 21$"):
        dirichlet_eigenvalues(_constant_setup(l, Q, c2), 30)


def test_series_solver_raises_on_spurious_roots():
    # a table for q == 0 (beta == 0 exactly) puts roots at 1..10, but only
    # sqrt(n^2 + 50) <= 10.25, n <= 7, are eigenvalues of q == 50
    bt = BetaTable(l=0.0, x=np.pi, M=12, beta=np.zeros(13),
                   fit_residual=0.0, sum_beta=0.0)
    with pytest.raises(TransmuteError, match=r"^10 roots found below omega = 10\.25, "
                                             r"Sturm count 7: some are spurious$"):
        dirichlet_eigenvalues(_constant_setup(0, 50.0), 10, series=make_kernel_series(bt, N=0))


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


@pytest.fixture(scope="module")
def series_harmonic(harmonic_setups):
    """The spectrum's own series for l = 1, q = x^2: d_0..d_20 at x = pi."""
    return spectral._fit_series(harmonic_setups[1], 20)


def test_harmonic_l1_against_reference_values(harmonic_setups):
    refs = {n: HARMONIC_L1_EIGENVALUES[n] for n in (1, 2, 5, 10)}
    rep = dirichlet_eigenvalues(harmonic_setups[1], 10)
    assert max(abs(rep.eigenvalues[n - 1] - v) for n, v in refs.items()) < 1e-9
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


def test_residuals_are_converged(harmonic_setups, series_harmonic):
    series = series_harmonic
    rep = dirichlet_eigenvalues(harmonic_setups[1], 6, series=series)
    bracket_mag = max(
        abs(u_N(series, float(om), np.pi))
        for pair in rep.brackets for om in pair
    )
    assert np.max(rep.residuals) <= 1e-10 * bracket_mag


def test_missed_root_warning_on_coarse_scan(harmonic_setups, series_harmonic):
    """A scan step of 2.2, twice the eigenvalue gap, steps over pairs of
    roots; Sturm's count at the top of the last bracket sees them all."""
    with pytest.raises(TransmuteError, match=r"^10 roots found below omega = 94\.6, "
                                             r"Sturm count 94: roots were missed"):
        dirichlet_eigenvalues(harmonic_setups[1], 10, series=series_harmonic, h_scan=2.2)


def test_harmonic_200_match_brentq_reference(harmonic_setups, series_harmonic):
    series = series_harmonic
    rep = dirichlet_eigenvalues(harmonic_setups[1], 200, series=series)
    ref = np.array([
        brentq(lambda w: u_N(series, w, np.pi), lo, hi, xtol=1e-12, maxiter=200)
        for lo, hi in rep.brackets
    ])
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12


def test_spectrum_evaluates_u_N_over_arrays(harmonic_setups, series_harmonic,
                                            monkeypatch):
    calls = []

    def counting(series, omega, x):
        calls.append(np.size(omega))
        return u_N(series, omega, x)

    monkeypatch.setattr(spectral, "u_N", counting)
    rep = dirichlet_eigenvalues(harmonic_setups[1], 200, series=series_harmonic)
    assert rep.eigenvalues.size == 200
    assert len(calls) < 100


def _step_matching_zeros(jump, count):
    """First zeros of u(pi, omega) for q = 20 on [0, jump), 0 past it, l = 0:
    u = sin(k t)/k with k^2 = omega^2 - 20 (sinh below omega^2 = 20) up to
    the jump, continued by cos and sin of omega (t - jump) past it."""
    J = mpmath.mpf(jump)

    def F(om):
        om = mpmath.mpf(om)
        k = mpmath.sqrt(om * om - 20)
        rest = mpmath.pi - J
        return mpmath.re(mpmath.sin(k * J) / k * mpmath.cos(om * rest)
                         + mpmath.cos(k * J) * mpmath.sin(om * rest) / om)

    roots, lo = [], 0.01
    with mpmath.workdps(30):
        f_lo = F(lo)
        while len(roots) < count:
            hi = lo + 0.05
            f_hi = F(hi)
            if f_lo * f_hi < 0:
                roots.append(float(mpmath.findroot(F, (lo, hi), solver="anderson")))
            lo, f_lo = hi, f_hi
    return np.array(roots)


@pytest.mark.parametrize("jump", [1.0, np.pi / 2, 1.0 + 1e-3])
def test_step_potential_is_right_or_loud(jump):
    # the series path assumes a smooth kernel; a jump in q must either
    # raise or still give the matching-condition zeros (at jump = pi the
    # reference reads sqrt(n^2 + 20) exactly)
    assert np.max(np.abs(_step_matching_zeros(np.pi, 3) - np.sqrt([21.0, 24.0, 29.0]))) <= 1e-14
    setup = ProblemSetup(l=0.0, b=np.pi,
                         q=lambda x: np.where(np.asarray(x, dtype=float) < jump, 20.0, 0.0))
    try:
        report = dirichlet_eigenvalues(setup, 20)
    except TransmuteError:
        return
    want = _step_matching_zeros(jump, 20)
    assert np.max(np.abs(report.eigenvalues - want)) <= 1e-10


# ---------------------------------------------------------------------------
# scan and polish on synthetic characteristic functions


def test_scan_nudges_exact_zero_on_grid_node():
    brackets = spectral._bracket_roots(lambda w: w - 1.0, 1, 0.25, 1.0)
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
        spectral._bracket_roots(F, 2, 0.25, math.pi / 2.0)


def test_polish_rejects_non_finite_values():
    def F(w):
        return np.where(np.abs(w - 1.0) < 0.1, np.nan, w - 1.0)

    with pytest.raises(TransmuteError, match="omega"):
        spectral._polish(F, [(0.5, 1.6, -0.5, 0.6)])


def test_polish_reports_unconverged_bracket():
    # a steep step: regula falsi creeps along the flat side, so three
    # iterations cannot close the bracket.  Round 1 narrowed it to the
    # Chebyshev nodes around the step, 0.938 and 1.143 (the interpolant's
    # root), and the iterations crept from there
    def F(w):
        return np.where(w < 1.0, -1.0, 1e-3)

    with pytest.raises(TransmuteError, match=r"3 iterations; bracket "
                                             r"\[0\.93843874024858\d*, 1\.14154\d*\] is still open"):
        spectral._polish(F, [(0.5, 2.0, -1.0, 1e-3)], maxiter=3)
    assert abs(spectral._polish(F, [(0.5, 2.0, -1.0, 1e-3)])[0] - 1.0) <= 2e-12


def test_polish_is_loud_on_extra_sign_changes_in_a_bracket():
    # F has roots at 0.8, 1.15 and 1.5 inside one bracket: one refined root
    # would hide two, and shift every later ordinal
    def F(w):
        return (w - 0.8) * (w - 1.15) * (w - 1.5)

    with pytest.raises(TransmuteError, match=r"changes sign 3 times in the bracket \[0\.5, 2\.0\]"):
        spectral._polish(F, [(0.5, 2.0, float(F(0.5)), float(F(2.0)))])


def test_polish_closes_a_smooth_bracket_in_two_rounds():
    # round 1's interpolant root of cos on [1, 2] (root pi/2) lies within
    # half a stopping width of the root, so round 2 closes the bracket and
    # the loop makes no call
    calls = []

    def F(w):
        calls.append(np.size(w))
        return np.cos(w)

    root = spectral._polish(F, [(1.0, 2.0, math.cos(1.0), math.cos(2.0))])
    assert calls == [10, 2]
    assert abs(root[0] - math.pi / 2.0) <= 1e-12


def test_cli_reports_non_finite_characteristic_function(monkeypatch, tmp_path, capsys):
    from transmute.cli import main

    monkeypatch.setattr(spectral, "u_N",
                        lambda series, omega, x: np.full(np.shape(omega), np.nan))
    rc = main(["spectrum", "--l", "1", "--potential", "poly:0,0,1", "--count", "3",
               "--N", "8", "--out", str(tmp_path)])
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
        )


def test_report_rejects_unsorted_eigenvalues():
    with pytest.raises(DomainError):
        SpectrumReport(
            eigenvalues=np.array([2.0, 1.0]),
            brackets=np.array([[1.5, 2.5], [0.5, 1.5]]),
            residuals=np.array([0.0, 0.0]),
            N_used=5,
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
    # q == 20: omega_7 = 8.31; the scan's first block is sized to 7 roots
    # and one more (to omega = 8), its second to the one missing and one
    # more (to 10); count = 60 alone would scan to omega_60 = 60.17
    seen = []

    def spy(setup, omegas, x_eval):
        seen.append(np.max(np.abs(omegas)))
        return regular_solutions(setup, omegas, x_eval)

    monkeypatch.setattr(spectral, "regular_solutions", spy)
    got = oracle_eigenvalues(_constant_setup(0, 20.0), 60, which=[3, 7])
    assert max(seen) <= 10.0
    assert got == oracle_eigenvalues(_constant_setup(0, 20.0), 7, which=[3, 7])
    assert abs(got[7] - math.sqrt(69.0)) <= 1e-10


def test_oracle_scan_stops_near_its_last_root(monkeypatch):
    # q == 20: omega_49 = sqrt(2421) = 49.20; one block sized to the 49
    # roots and one more, 200 samples to omega = 50, holds them all, where
    # blocks of 96 took three calls and 204 samples (288 with a third
    # block of 96)
    sizes = []
    bracket_roots = spectral._bracket_roots

    def spy(f, *args):
        def counted(omegas):
            sizes.append(omegas.size)
            return f(omegas)
        return bracket_roots(counted, *args)

    monkeypatch.setattr(spectral, "_bracket_roots", spy)
    got = oracle_eigenvalues(_constant_setup(0, 20.0), 60, which=[49])
    assert sizes == [200]
    assert abs(got[49] - math.sqrt(49.0 ** 2 + 20.0)) <= 1e-10


def test_sized_scan_blocks_bracket_as_fixed_blocks():
    # blocks sized for roots twice as dense as they are fall short, so
    # the scan takes many of them, and some root falls between two
    def f(omegas):
        calls.append(omegas)
        return np.sin(2.0 * omegas + 0.3)

    h, straddled = 0.25, 0
    for count in range(1, 25):
        calls = []
        got = spectral._bracket_roots(f, count, h, math.pi / 4.0)
        ends = {(a[-1], b[0]) for a, b in zip(calls[:-1], calls[1:])}
        straddled += sum((lo, hi) in ends for lo, hi, _, _ in got)
        assert got == spectral._bracket_roots(f, count, h, 1e6)   # blocks of 4096
    assert straddled


def test_oracle_eigenvalues_refines_requested_ordinals(harmonic_setups):
    got = oracle_eigenvalues(harmonic_setups[1], 5, which=[1, 5])
    assert set(got) == {1, 5}
    assert abs(got[1] - HARMONIC_L1_EIGENVALUES[1]) < 1e-8
    assert abs(got[5] - HARMONIC_L1_EIGENVALUES[5]) < 1e-8


# ---------------------------------------------------------------------------
# argument validation


def test_counts_and_ordinals_must_be_integers(monkeypatch):
    """count, N and the ordinals take integers and integral floats, and
    anything else raises DomainError before the oracle is called: a count
    of 2.5 was scanned for and ended in a Sturm message, ordinal 1.5 was
    polished as 1, and oracle_eigenvalues with a count of 3.0 raised
    TypeError."""
    setup = _constant_setup(0, 20.0)
    assert oracle_eigenvalues(setup, 3.0) == oracle_eigenvalues(setup, 3)
    assert np.array_equal(dirichlet_eigenvalues(setup, 3.0, N=20.0).eigenvalues,
                          dirichlet_eigenvalues(setup, 3).eigenvalues)
    calls = []
    monkeypatch.setattr(spectral, "regular_solutions", lambda *args: calls.append(args))
    for bad in (2.5, 0, 0.0, math.nan, math.inf, "3", None):
        with pytest.raises(DomainError, match="^count must be an integer >= 1, got "):
            dirichlet_eigenvalues(setup, bad)
        with pytest.raises(DomainError, match="^count must be an integer >= 1, got "):
            oracle_eigenvalues(setup, bad)
    for bad in (2.5, -1, math.nan, "20"):
        with pytest.raises(DomainError, match="^N must be an integer >= 0, got "):
            dirichlet_eigenvalues(setup, 3, N=bad)
    for which in ([1.5], [2, 0.5], [0], [math.inf]):
        with pytest.raises(DomainError, match="^ordinal must be an integer >= 1, got "):
            oracle_eigenvalues(setup, 2, which=which)
    with pytest.raises(DomainError, match="ordinals must lie in"):
        oracle_eigenvalues(setup, 2, which=[3.0])
    assert not calls


def test_dirichlet_argument_validation(harmonic_setups, series_harmonic, setup_half,
                                      beta_harmonic):
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(harmonic_setups[1], 0)
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(setup_half, 3)  # integer l only
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            harmonic_setups[1], 3, N=12, series=series_harmonic
        )  # a series excludes the fit's length
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            harmonic_setups[0], 3, series=series_harmonic
        )  # series fitted at a different l
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            replace(harmonic_setups[1], b=2.0), 3, series=series_harmonic
        )  # and at a different x
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(
            harmonic_setups[1], 3, series=make_kernel_series(beta_harmonic[1], mode="real-l")
        )  # not an integer-l series
    for N in (-1, 2.5):
        with pytest.raises(DomainError):
            dirichlet_eigenvalues(harmonic_setups[1], 3, N=N)


# ---------------------------------------------------------------------------
# one oracle probe, one call per scan, a two-round polish


def test_constant_q_spectrum_calls_and_roots(monkeypatch):
    """On q == 20, l = 0 the spectrum, the shooting check and the validation
    suite build one step-rule probe between them (13 when every oracle call
    built its own); the spectrum makes at most 5 u_N calls (13 with scan
    blocks of 96 and the regula falsi alone), the shooting check at most 3
    regular_solutions calls (8), and the 60 roots stay within 5e-12 of
    sqrt(n^2 + 20)."""
    from transmute import oracle, validation

    counts = {"_probe": 0, "u_N": 0, "regular_solutions": 0}

    def counting(module, name):
        def spy(*args, _f=getattr(module, name), **kwargs):
            counts[name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    counting(oracle, "_probe")
    counting(spectral, "u_N")
    setup = _constant_setup(0, 20.0)
    rep = dirichlet_eigenvalues(setup, 60)
    assert counts["u_N"] <= 5
    assert np.max(np.abs(rep.eigenvalues - np.sqrt(np.arange(1, 61) ** 2 + 20.0))) <= 5e-12

    counting(spectral, "regular_solutions")
    shot = oracle_eigenvalues(setup, 60, which=[17, 31, 37, 49])
    assert counts["regular_solutions"] <= 3
    assert all(abs(shot[n] - math.sqrt(n * n + 20.0)) <= 1e-10 for n in shot)

    assert all(r.passed for r in validation.run_validation(setup))
    assert counts["_probe"] == 1
