"""Closed-form evaluation of the truncated solution representation."""
import math

import numpy as np
import pytest
from scipy.special import gammaln, jv, roots_legendre

from transmute import specialfn as sf
from transmute.coeffs import BetaTable, compute_beta
from transmute.errors import DomainError
from transmute.kernel import apply_transmutation, epsilon_N, make_kernel_series
from transmute.oracle import regular_solution_ode
from transmute.solution import (
    integral_row,
    sup_sqrt_bessel,
    u_N,
    uniform_error_bound,
)


def _zero_table(l, x, M=8):
    return BetaTable(l=float(l), x=float(x), M=M, beta=np.zeros(M + 1),
                     fit_residual=0.0, sum_beta=0.0)


def _normalized(l, omega, u_physical):
    # solution with u ~ x^(l+1) rescaled to the omega-normalized variant
    return u_physical * omega ** (l + 1) / (
        2.0 ** (l + 0.5) * math.exp(gammaln(l + 1.5))
    )


# ---------------------------------------------------------------------------
# the integral row


def test_anchor_row():
    # I_{l,0} = x^(l+3/2) J_{l+3/2}(omega x)/omega
    for om, x in [(1.0, 2.0), (30.0, np.pi), (0.5, 1.0)]:
        for l in range(1, 10):
            want = x ** (l + 1.5) * jv(l + 1.5, om * x) / om
            got = integral_row(l, 8, om, x)[0]
            assert abs(got - want) <= 1e-12 * max(abs(want), x ** (l + 1.5) / om * 0.05)


def _row_by_quadrature(l, m_max, omega, x):
    panels = max(4, int(np.ceil(omega * x / np.pi)) * 2)
    z40, w40 = roots_legendre(40)
    edges = np.linspace(0.0, x, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * z40[None, :]).ravel()
    w = (half[:, None] * w40[None, :]).ravel()
    zz = 1.0 - 2.0 * (t / x) ** 2
    base = w * t ** (l + 1.5) * jv(l + 0.5, omega * t)
    return sf.jacobi_all(m_max, l + 0.5, l + 1.0, zz) @ base


@pytest.mark.parametrize("case", ["short", "long"])
def test_integral_row_against_quadrature(case):
    # "long" reaches the truncations of full fits (m_max up to 40) and
    # phases omega*x down to 1e-4, where a forward recurrence in m fails
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        l = int(rng.integers(0, 4))
        x = float(rng.uniform(0.5, np.pi))
        if case == "short":
            m_max = int(rng.integers(1, 11))
            om = float(rng.uniform(1.0, 100.0)) / x
        else:
            m_max = int(rng.integers(11, 41))
            om = 10.0 ** float(rng.uniform(-4.0, 2.0)) / x
        row = integral_row(l, m_max, om, x)
        ref = _row_by_quadrature(l, m_max, om, x)
        worst = max(worst, np.max(np.abs(row - ref)) / np.max(np.abs(ref)))
    assert worst < 1e-11, worst


def test_integral_row_argument_checks():
    for bad in (-2.0, 0.0, np.nan):
        with pytest.raises(DomainError):
            integral_row(1, 4, bad, 1.0)
    with pytest.raises(DomainError, match="-2.0"):
        integral_row(1, 4, np.array([1.0, -2.0, 0.0]), 1.0)
    with pytest.raises(DomainError):
        integral_row(1, 4, np.ones((2, 2)), 1.0)
    for l, m_max, x in ((-1, 4, 1.0), (1, -1, 1.0), (1, 4, 0.0)):
        with pytest.raises(DomainError):
            integral_row(l, m_max, 1.0, x)
    assert integral_row(1, 4, 2.0, 1.0).shape == (5,)
    assert integral_row(1, 4, np.array([2.0, 3.0]), 1.0).shape == (2, 5)


# ---------------------------------------------------------------------------
# u_N


def test_free_solution_is_bessel():
    b = np.pi
    for l in (0, 1, 3):
        series = make_kernel_series(_zero_table(l, b))
        for om in (0.01, 0.5, 7.3, 180.0):
            got = u_N(series, om, b)
            want = math.sqrt(om * b) * jv(l + 0.5, om * b)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (l, om)


def test_matches_ode_solver_both_sides_of_threshold(harmonic_setups, beta_harmonic):
    setup = harmonic_setups[1]
    series = make_kernel_series(beta_harmonic[1], N=13)
    b = np.pi
    # omega*b from 0.09 to 190: the Bessel table behind the row switches
    # from Miller's algorithm to forward recurrence at omega*b = 29
    for om in (0.03, 0.0335, 2.0, 60.0):
        u_ref = float(regular_solution_ode(setup, om, np.array([b])).u_values[0])
        want = _normalized(1, om, u_ref)
        assert abs(u_N(series, om, b) - want) < 1e-9 * max(1.0, abs(want)), om


def test_uniform_accuracy_and_bound(harmonic_setups, beta_harmonic):
    """The truncation error must not grow with frequency and must respect
    the c_l * eps_N budget."""
    setup = harmonic_setups[1]
    series_N = make_kernel_series(beta_harmonic[1], N=11)
    series_ref = make_kernel_series(
        compute_beta(setup, np.pi, 40))
    bound = uniform_error_bound(series_N, epsilon_N(series_N, series_ref))

    def errs(om_grid):
        out = []
        for om in om_grid:
            u_ref = float(
                regular_solution_ode(setup, float(om), np.array([np.pi])).u_values[0]
            )
            out.append(abs(u_N(series_N, float(om), np.pi)
                           - _normalized(1, float(om), u_ref)))
        return np.array(out)

    low = errs(np.linspace(1.0, 50.0, 20))
    high = errs(np.linspace(150.0, 200.0, 20))
    assert high.max() <= 2.0 * low.max()
    assert max(low.max(), high.max()) <= bound


def test_small_x_normalization():
    # for q == 0 the representation must approach (om x)^(l+1) / (2^(l+1/2)
    # Gamma(l+3/2)) as x -> 0: fixes both the power and the constant
    om = 3.0
    for x in (0.5, 0.1, 0.02):
        series = make_kernel_series(_zero_table(2, x))
        lead = (om * x) ** 3 / (2.0 ** 2.5 * math.exp(gammaln(3.5)))
        # next Bessel-series term gives a deviation z^2/(2(2l+3)) = z^2/14
        assert abs(u_N(series, om, x) / lead - 1.0) < 0.1 * (om * x) ** 2


def test_u_N_equals_apply_transmutation(beta_harmonic):
    # same beta, two routes: closed-form row vs explicit kernel integral
    bt = beta_harmonic[1]
    series = make_kernel_series(bt, N=13)
    for om in (1.0, 5.0, 10.0):
        y = lambda t, om=om: np.sqrt(om * np.asarray(t)) * jv(1.5, om * np.asarray(t))
        ta = apply_transmutation(series, y, np.pi, omega_hint=om)
        un = u_N(series, om, np.pi)
        assert abs(ta - un) < 1e-8 * max(1.0, abs(un)), om
    # synthetic tables used at their full truncation N = M - l - 1, where
    # the high-m entries of the row carry weight
    rng = np.random.default_rng(3)
    M = 25
    for l in (0, 1, 2):
        beta = 1e-2 * 0.8 ** np.arange(M + 1) * rng.choice([-1.0, 1.0], M + 1)
        bt = BetaTable(l=float(l), x=np.pi, M=M, beta=beta,
                       fit_residual=0.0, sum_beta=float(np.sum(beta)))
        series = make_kernel_series(bt)
        for om in (0.05, 0.3, 1.0, 3.0, 10.0, 30.0):
            y = lambda t, om=om: np.sqrt(om * t) * jv(l + 0.5, om * t)
            ta = apply_transmutation(series, y, np.pi, omega_hint=om)
            un = u_N(series, om, np.pi)
            assert abs(ta - un) < 1e-11 * max(1.0, abs(un)), (l, om)


# ---------------------------------------------------------------------------
# the sup constant


def test_sup_sqrt_bessel_l0_exact():
    # sup_z |sqrt(z) J_{1/2}(z)| = sqrt(2/pi) exactly
    assert abs(sup_sqrt_bessel(0.0) - math.sqrt(2.0 / math.pi)) < 1e-12


def test_sup_sqrt_bessel_l1():
    c1 = sup_sqrt_bessel(1.0)
    assert abs(c1 - 0.8482339959762067) < 1e-9
    # it is a sup: sampled values never exceed it
    z = np.linspace(0.01, 60.0, 4001)
    samples = np.sqrt(z) * jv(1.5, z)
    assert np.max(np.abs(samples)) <= c1 + 1e-12


def test_uniform_error_bound_validation(beta_harmonic):
    series = make_kernel_series(beta_harmonic[1])
    with pytest.raises(DomainError):
        uniform_error_bound(series, -1.0)


# ---------------------------------------------------------------------------
# argument validation


def test_array_omega_matches_scalar_calls(beta_harmonic):
    series = make_kernel_series(beta_harmonic[1], N=13)
    b = np.pi
    nmax = int(series.l) + 2 * series.N + 1   # top order of the row's table
    om = np.array([
        0.0064, 0.0286, 0.035, 1.0, 3.7,                # Miller branch
        (nmax + 1.5) / b, 40.0, 211.3,                  # forward recurrence
    ])
    assert np.any(om * b < nmax + 1)
    assert np.any(om * b >= nmax + 1)
    got = u_N(series, om, b)
    want = np.array([u_N(series, float(w), b) for w in om])
    assert isinstance(got, np.ndarray) and got.shape == om.shape
    assert isinstance(u_N(series, 2.0, b), float)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_array_omega_checks_every_element(beta_harmonic):
    series = make_kernel_series(beta_harmonic[1])
    for bad in ([1.0, 0.0], [2.0, -1.0, 3.0], [1.0, np.nan]):
        with pytest.raises(DomainError):
            u_N(series, np.array(bad), np.pi)
    with pytest.raises(DomainError):
        u_N(series, np.ones((2, 2)), np.pi)


def test_u_N_series_validation(beta_half_dense, beta_harmonic):
    for real_l in (make_kernel_series(beta_half_dense),         # non-integer l
                   make_kernel_series(beta_harmonic[1], mode="real-l")):
        with pytest.raises(DomainError, match="integer-l kernel series"):
            u_N(real_l, 1.0, np.pi)
    with pytest.raises(DomainError):
        make_kernel_series(beta_harmonic[1], N=24)  # table supports N <= 23
    series = make_kernel_series(beta_harmonic[1])
    with pytest.raises(DomainError):
        u_N(series, -1.0, np.pi)
    with pytest.raises(DomainError):
        u_N(series, 1.0, 2.0)  # coefficients fitted at x = pi
