"""Frequency-collocation fit of the Legendre coefficients beta_k."""
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

import transmute.coeffs as coeffs
from transmute.coeffs import BetaTable, compute_beta, unperturbed_term
from transmute.errors import DomainError, IllConditionedFit
from transmute.oracle import ProblemSetup, regular_solution_ode, regular_solutions
from transmute import specialfn as sf


def test_unperturbed_term_l0_is_sinc():
    x = np.linspace(0.1, np.pi, 19)
    for om in [0.5, 2.0, 31.0]:
        got = unperturbed_term(0.0, om, x)
        want = np.sin(om * x) / om
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, 1.0 / om)


def test_unperturbed_term_l1_closed_form():
    x = np.linspace(0.2, np.pi, 13)
    for om in [1.0, 7.0]:
        z = om * x
        want = 3.0 / om ** 2 * (np.sin(z) / z - np.cos(z))
        got = unperturbed_term(1.0, om, x)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_unperturbed_term_rejects_nan_argument():
    with pytest.raises(DomainError):
        unperturbed_term(1.0, 2.0, np.nan)


@pytest.mark.parametrize("l", [0.0, 1.0, 2.5])
def test_unperturbed_term_low_frequency_limit(l):
    # y -> x^(l+1) as omega -> 0 at fixed x; omega = 0 itself is outside
    # the formula and must not come back as NaN
    x = 1.3
    got = unperturbed_term(l, 1e-6, x)
    assert abs(got - x ** (l + 1.0)) < 1e-9 * x ** (l + 1.0)
    with pytest.raises(DomainError):
        unperturbed_term(l, np.array([1.0, 0.0]), x)


def test_zero_potential_coefficients_vanish(zero_setups):
    bt = compute_beta(zero_setups[0], np.pi, 12)
    assert np.max(np.abs(bt.beta)) < 1e-10
    assert abs(bt.sum_beta) < 1e-10


def test_fit_residual_small_for_smooth_potential(beta_harmonic):
    for l in (0, 1, 2):
        assert beta_harmonic[l].fit_residual < 1e-12


def test_held_out_frequencies(harmonic_setups, beta_harmonic):
    """The fitted Bessel series must predict u - y at frequencies that were
    never part of the collocation sweep."""
    bt = beta_harmonic[1]
    setup = harmonic_setups[1]
    x = np.pi
    k = np.arange(bt.M + 1)
    worst = 0.0
    for s in [1.234, 2.7182, 17.31, 77.7]:
        om = s / x
        table = sf.spherical_j_table(2 * bt.M, s)[0::2, 0]
        pred = float(((-1.0) ** k * bt.beta) @ table)
        sol = regular_solution_ode(setup, om, np.array([x]))
        r = float(sol.u_values[0]) - unperturbed_term(1.0, om, x)
        scale = max(abs(r), 0.1)
        worst = max(worst, abs(pred - r) / scale)
    assert worst < 1e-8


def test_coefficient_sum_vanishes(beta_harmonic):
    # R(x, x) = 0 translates to sum_k beta_k = 0
    for l in (0, 1, 2):
        bt = beta_harmonic[l]
        assert abs(bt.sum_beta) < 1e-7 * np.max(np.abs(bt.beta))


def test_eval_R_cosine_transform_round_trip(beta_harmonic):
    # R(x,t) = sum_k (beta_k/x) P_{2k}(t/x) built from the table must satisfy
    # int_0^x R(x,t) cos(om t) dt == sum_k (-1)^k beta_k j_{2k}(om x)
    bt = beta_harmonic[1]
    x = np.pi
    z, w = roots_legendre(240)
    t = 0.5 * x * (z + 1.0)
    wt = 0.5 * x * w
    rvals = (bt.beta / x) @ sf.jacobi_all(2 * bt.M, 0.0, 0.0, t / x)[0::2]
    k = np.arange(bt.M + 1)
    for om in [0.9, 4.0, 11.5]:
        quad_val = float(np.sum(wt * rvals * np.cos(om * t)))
        series = float(
            ((-1.0) ** k * bt.beta) @ sf.spherical_j_table(2 * bt.M, om * x)[0::2, 0]
        )
        assert abs(quad_val - series) < 1e-10 * max(1.0, np.max(np.abs(bt.beta)))


def _spy_sweeps(monkeypatch):
    """Record omega * x of every regular_solutions call compute_beta makes."""
    sweeps = []

    def counting(setup, omegas, x_eval):
        sweeps.append(np.asarray(omegas) * x_eval[0])
        return regular_solutions(setup, omegas, x_eval)

    monkeypatch.setattr(coeffs, "regular_solutions", counting)
    return sweeps


def test_fit_is_one_sweep_of_sample_count_rows(harmonic_setups, monkeypatch):
    # one regular_solutions call of 3(M+1) rows, omega x within [0.5, 3(2M+3)]
    sweeps = _spy_sweeps(monkeypatch)
    M, x = 25, 0.7 * np.pi
    compute_beta(harmonic_setups[1], x, M)
    assert len(sweeps) == 1
    s = sweeps[0]
    assert s.size == coeffs.sample_count(M) == 3 * (M + 1)
    assert 0.5 * (1 - 1e-12) <= s.min() and s.max() <= 3 * (2 * M + 3) * (1 + 1e-12)


@pytest.mark.parametrize("l", [-1e-10, 5e-10, 1 - 5e-10, 1 + 1e-10])
def test_near_integer_l_fits_as_the_integer(harmonic_setups, beta_harmonic, l):
    # the oracle and the free term's Bessel factor round such an l, so the
    # free term's amplitude must too, or the fit sees data off by ~1e-10 |y|
    setup = ProblemSetup(l=l, b=np.pi, q=harmonic_setups[1].q)
    bt = compute_beta(setup, np.pi, 25)
    assert np.array_equal(bt.beta, beta_harmonic[round(l)].beta)


def _harmonic(x):
    return np.asarray(x, dtype=float) ** 2


def _const_20(x):
    return np.full_like(np.asarray(x, dtype=float), 20.0)


@pytest.mark.parametrize("l, q, M, lead, tol", [
    pytest.param(1.0, _harmonic, 25, 26, 1e-12, id="l1-x^2-M25"),    # moves 1.7e-14
    pytest.param(0.0, _const_20, 22, 23, 1e-12, id="l0-20-M22"),     # 1.1e-13
    # real l: the trailing third of the table absorbs the unmodeled tail;
    # the leading 2M/3 move 1.5e-10
    pytest.param(0.5, _harmonic, 60, 40, 1e-8, id="l0.5-x^2-M60"),
])
def test_fit_stable_under_freq_count_doubling(monkeypatch, l, q, M, lead, tol):
    setup = ProblemSetup(l=l, b=np.pi, q=q)
    bt = compute_beta(setup, np.pi, M)
    count = coeffs.sample_count
    monkeypatch.setattr(coeffs, "sample_count", lambda n: 2 * count(n))
    sweeps = _spy_sweeps(monkeypatch)
    bt2 = compute_beta(setup, np.pi, M)
    assert [s.size for s in sweeps] == [2 * count(M)]
    scale = np.max(np.abs(bt.beta[:lead]))
    assert np.max(np.abs(bt.beta[:lead] - bt2.beta[:lead])) < tol * scale


def test_slow_decay_rate_for_half_integer_l(beta_half_dense):
    """For l = 1/2 the coefficients decay like k^-(2l+3) = k^-4; check the
    log-log slope over the well-resolved stretch of the table."""
    bt = beta_half_dense
    k = np.arange(20, 61)
    y = np.log(np.abs(bt.beta[k]))
    slope = np.polyfit(np.log(k), y, 1)[0]
    assert abs(slope - (-4.0)) < 0.6, slope


def test_ill_conditioned_fit_reported(zero_setups, monkeypatch):
    # squeeze the whole frequency sweep into a sliver: columns collapse,
    # though the matrix of the usual sweep at that M is cached
    compute_beta(zero_setups[0], np.pi, 10)
    monkeypatch.setattr(coeffs, "_FREQ_HI", 0.018)
    with pytest.raises(IllConditionedFit):
        compute_beta(zero_setups[0], np.pi, 10)


def test_both_fits_solve_at_one_cutoff(zero_setups, monkeypatch):
    """compute_beta and the spectrum's fit of u_N share one solve and its
    cutoff coeffs._RCOND: raised to 0.5 it leaves both rank deficient,
    each with its own message, with the matrix of that sweep cached."""
    from transmute import spectral

    compute_beta(zero_setups[0], np.pi, 10)
    monkeypatch.setattr(coeffs, "_RCOND", 0.5)
    with pytest.raises(IllConditionedFit,
                       match=r"^collocation matrix has rank \d+ < 11; reduce M$"):
        compute_beta(zero_setups[0], np.pi, 10)
    with pytest.raises(IllConditionedFit, match=r"^weighted fit of d_0..d_10 has rank \d+ < 11$"):
        spectral._fit_series(zero_setups[0], 10)


def test_one_collocation_matrix_per_sweep(harmonic_setups, zero_setups, monkeypatch):
    """Fits at one M share one read-only matrix whatever the setup and x,
    and give the same bits from a cold cache as from a warm one."""
    M, tables, inner = 17, [], sf.spherical_j_table

    def spy(nmax, z):
        if nmax == 2 * M:
            tables.append(z)
        return inner(nmax, z)

    monkeypatch.setattr(sf, "spherical_j_table", spy)
    coeffs._collocation.cache_clear()
    cold = compute_beta(harmonic_setups[1], np.pi, M)
    other = compute_beta(zero_setups[0], 0.6 * np.pi, M)
    assert len(tables) == 1 and tables[0].size == coeffs.sample_count(M)
    warm = compute_beta(harmonic_setups[1], np.pi, M)
    assert len(tables) == 1
    assert np.array_equal(cold.beta, warm.beta) and cold.fit_residual == warm.fit_residual
    assert np.max(np.abs(other.beta)) < 1e-10
    A = coeffs._collocation(M, coeffs._sweep(M).tobytes())
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1.0


def test_beta_table_validation():
    with pytest.raises(ValueError):
        BetaTable(l=0.0, x=1.0, M=3, beta=np.zeros(3),  # needs M+1 entries
                  fit_residual=0.0, sum_beta=0.0)
    bt = BetaTable(l=0.0, x=1.0, M=3, beta=np.zeros(4),
                   fit_residual=0.0, sum_beta=0.0)
    with pytest.raises(ValueError):
        bt.beta[0] = 1.0


def test_compute_beta_argument_validation(zero_setups):
    with pytest.raises(DomainError):
        compute_beta(zero_setups[0], np.pi, -1)
    with pytest.raises(DomainError):
        compute_beta(zero_setups[0], 2 * np.pi, 5)  # x beyond b

