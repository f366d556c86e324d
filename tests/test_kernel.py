"""Kernel series: evaluation in both parameter regimes, diagonal limit,
moments, truncation error, and the transmutation integral."""
import math

import numpy as np
import pytest
from scipy.special import jv, roots_legendre

from transmute.coeffs import BetaTable, compute_beta, eval_R, unperturbed_term
from transmute.errors import DomainError, NearDiagonalError
from transmute.kernel import (
    KernelSeries,
    apply_transmutation,
    epsilon_N,
    kernel_K,
    kernel_moment,
    make_kernel_series,
    poisson_transform,
)
from transmute.oracle import regular_solution_ode

HALF_INT_Q = math.pi ** 3 / 6.0  # (1/2) int_0^pi t^2 dt


def _zero_table(l, x=np.pi, M=8):
    return BetaTable(l=float(l), x=float(x), M=M, beta=np.zeros(M + 1),
                     fit_residual=0.0, sum_beta=0.0)


# ---------------------------------------------------------------------------
# diagonal (Goursat) values: K_N(x, x) -> (1/2) int_0^x q


def test_goursat_value_harmonic(beta_harmonic):
    # with the stall-detected truncation the diagonal limit is clean; the
    # full-table default drags in amplified trailing noise at higher l
    from transmute.spectral import choose_N

    for l in (0, 1, 2):
        series = make_kernel_series(beta_harmonic[l], N=choose_N(beta_harmonic[l]))
        got = kernel_K(series, series.x)
        assert abs(got - HALF_INT_Q) < 1e-6 * HALF_INT_Q, l


def test_goursat_error_decreases_with_N(beta_harmonic):
    errs = []
    for N in (4, 8, 13):
        series = make_kernel_series(beta_harmonic[1], N=N)
        errs.append(abs(kernel_K(series, series.x) - HALF_INT_Q))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# zero potential


def test_zero_potential_kernel_vanishes():
    for l in (0, 2):
        series = make_kernel_series(_zero_table(l))
        t = np.linspace(0.0, np.pi, 40)
        assert np.max(np.abs(kernel_K(series, t))) < 1e-10


def test_apply_transmutation_identity_for_zero_kernel():
    series = make_kernel_series(_zero_table(1))
    y = lambda t: np.cos(0.7 * np.asarray(t))
    got = apply_transmutation(series, y, np.pi)
    assert abs(got - math.cos(0.7 * math.pi)) < 1e-12


@pytest.mark.parametrize("l", [1, 0.5])
def test_apply_transmutation_needs_vectorized_y(l):
    # y is called once on the node array; a y that cannot map it is an
    # error, not a reason to fall back to one call per node
    series = make_kernel_series(_zero_table(l))
    with pytest.raises(DomainError):
        apply_transmutation(series, lambda t: 1.0, np.pi)
    with pytest.raises(DomainError):
        apply_transmutation(series, lambda t: np.ones(3), np.pi)


# ---------------------------------------------------------------------------
# moments


def test_moment_alpha1_l0_is_beta0(beta_harmonic):
    series = make_kernel_series(beta_harmonic[0])
    got = kernel_moment(series, 1.0)
    want = beta_harmonic[0].beta[0]
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 3.5])
def test_moment_matches_quadrature(beta_harmonic, alpha):
    """Closed form vs direct integration of the truncated kernel.  The
    substitution t = x s^2 turns t^alpha K_N into a polynomial in s for
    half-integer alpha, so Gauss-Legendre is exact."""
    series = make_kernel_series(beta_harmonic[1], N=12)
    x = series.x
    z, w = roots_legendre(160)
    s = 0.5 * (z + 1.0)
    ws = 0.5 * w
    t = x * s * s
    integrand = t ** alpha * kernel_K(series, t) * 2.0 * x * s
    ref = float(np.sum(ws * integrand))
    got = kernel_moment(series, alpha)
    assert abs(got - ref) < 1e-9 * max(1.0, abs(ref)), alpha


def test_moment_domain():
    series = make_kernel_series(_zero_table(0))
    with pytest.raises(DomainError):
        kernel_moment(series, -2.0)  # needs alpha > -l-2


# ---------------------------------------------------------------------------
# the two evaluation modes agree where both apply


def test_integer_and_real_mode_agree(beta_harmonic):
    bt = beta_harmonic[1]
    s_int = make_kernel_series(bt, N=12, mode="integer-l")
    s_real = make_kernel_series(bt, N=12, mode="real-l", t_max_fraction=0.9,
                                goursat_diag=HALF_INT_Q)
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 0.9 * bt.x, size=40)
    a = kernel_K(s_int, t)
    b = kernel_K(s_real, t)
    assert np.max(np.abs(a - b)) < 1e-8 * np.max(np.abs(a))


def test_l0_kernel_is_minus_dR_dt(beta_harmonic):
    bt = beta_harmonic[0]
    series = make_kernel_series(bt)
    x = bt.x
    h = 1e-5
    ts = np.array([0.3, 1.1, 2.0, 2.9])
    got = kernel_K(series, ts)
    want = -(eval_R(x, ts + h, bt) - eval_R(x, ts - h, bt)) / (2.0 * h)
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(got))


# ---------------------------------------------------------------------------
# truncation error


def test_epsilon_N_decreases(harmonic_setups, beta_harmonic):
    ref = make_kernel_series(compute_beta(harmonic_setups[1], np.pi, 40))
    eps = [
        epsilon_N(make_kernel_series(beta_harmonic[1], N=N), ref)
        for N in (4, 8, 12)
    ]
    assert eps[0] > eps[1] > eps[2] > 0.0


def test_epsilon_N_mode_mismatch(beta_harmonic):
    a = make_kernel_series(beta_harmonic[1], N=8, mode="integer-l")
    b = make_kernel_series(beta_harmonic[1], N=8, mode="real-l",
                           t_max_fraction=0.9)
    with pytest.raises(DomainError):
        epsilon_N(a, b)


# ---------------------------------------------------------------------------
# Poisson-type transform


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [1.0, 6.0])
def test_poisson_transform_of_cosine(l, omega):
    x = 2.2
    got = poisson_transform(lambda s: np.cos(omega * s), l, x)
    z = omega * x
    want = (
        math.sqrt(math.pi) * math.gamma(l + 1.0)
        / (2.0 * omega ** (l + 1.0) * math.gamma(l + 1.5))
        * math.sqrt(z) * jv(l + 0.5, z)
    )
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_poisson_transform_domain():
    with pytest.raises(DomainError):
        poisson_transform(np.cos, -1.0, 1.0)
    with pytest.raises(DomainError):
        poisson_transform(np.cos, 0.0, 0.0)


# ---------------------------------------------------------------------------
# transmutation integral vs the ODE solver


def test_apply_transmutation_matches_ode(harmonic_setups, beta_harmonic):
    setup = harmonic_setups[1]
    series = make_kernel_series(beta_harmonic[1])
    for om in [1.0, 5.0, 10.0]:
        y = lambda t, om=om: unperturbed_term(1.0, om, t)
        got = apply_transmutation(series, y, np.pi, omega_hint=om)
        sol = regular_solution_ode(setup, om, np.array([np.pi]))
        scale = max(
            float(np.hypot(sol.u_values[0], sol.u_prime_values[0] / max(om, 1.0))),
            1e-300,
        )
        assert abs(got - float(sol.u_values[0])) < 1e-8 * scale, om


# ---------------------------------------------------------------------------
# domain checks


def test_near_diagonal_guard(beta_half_dense):
    series = make_kernel_series(beta_half_dense, N=60, t_max_fraction=0.95)
    assert series.mode == "real-l"
    with pytest.raises(NearDiagonalError):
        kernel_K(series, 0.97 * series.x)


def test_series_construction_validation(beta_harmonic, beta_half_dense):
    with pytest.raises(DomainError):
        make_kernel_series(beta_half_dense, mode="integer-l")
    with pytest.raises(DomainError):
        make_kernel_series(beta_harmonic[1], N=40)  # table only supports M-l-1
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=1.0, mode="banana", N=1, weights=np.zeros(2))
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=1.0, mode="integer-l", N=1, weights=np.zeros(5))
    # the real-l series divides by (x^2 - t^2)^(l+1): no cutoff at t = x
    with pytest.raises(DomainError):
        make_kernel_series(beta_half_dense, t_max_fraction=1.0)
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=0.5, mode="real-l", N=1, weights=np.zeros(2))
    assert make_kernel_series(beta_harmonic[1], t_max_fraction=1.0).t_max_fraction == 1.0


def test_kernel_eval_outside_range(beta_harmonic):
    series = make_kernel_series(beta_harmonic[1], N=10)
    with pytest.raises(DomainError):
        kernel_K(series, series.x * 1.01)
    with pytest.raises(DomainError):
        kernel_K(series, -0.1)


def test_moment_requires_integer_mode(beta_half_dense):
    series = make_kernel_series(beta_half_dense, N=40, t_max_fraction=0.9)
    with pytest.raises(DomainError):
        kernel_moment(series, 1.0)
