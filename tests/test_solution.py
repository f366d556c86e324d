"""Recurrent evaluation of the truncated solution representation."""
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
    SMALL_PHASE,
    SolutionEvaluator,
    _triangle_quadrature,
    integral_triangle,
    solution_evaluator,
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
# the integral table


def test_anchor_row():
    for om, x in [(1.0, 2.0), (30.0, np.pi), (0.5, 1.0)]:
        tri = integral_triangle(1, 8, om, x)
        for k in range(1, 10):
            want = x ** (k + 1.5) * jv(k + 1.5, om * x) / om
            got = tri.value(k, 0)
            assert abs(got - want) <= 1e-12 * max(abs(want), x ** (k + 1.5) / om * 0.05)


def _triangle_by_quadrature(l, m_max, omega, x):
    panels = max(4, int(np.ceil(omega * x / np.pi)) * 2)
    z24, w24 = roots_legendre(24)
    edges = np.linspace(0.0, x, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * z24[None, :]).ravel()
    w = (half[:, None] * w24[None, :]).ravel()
    zz = 1.0 - 2.0 * (t / x) ** 2
    out = np.zeros((m_max + 1, m_max + 1))
    for j in range(m_max + 1):
        k = l + j
        base = w * t ** (k + 1.5) * jv(k + 0.5, omega * t)
        rows = sf.jacobi_all(m_max - j, k + 0.5, k + 1.0, zz)
        out[j, : m_max - j + 1] = rows @ base
    return out


def test_triangle_against_quadrature():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        l = int(rng.integers(0, 4))
        m_max = int(rng.integers(1, 11))
        x = float(rng.uniform(0.5, np.pi))
        om = float(rng.uniform(1.0, 100.0)) / x
        tri = integral_triangle(l, m_max, om, x)
        ref = _triangle_by_quadrature(l, m_max, om, x)
        scale = np.max(np.abs(ref))
        worst = max(worst, np.max(np.abs(tri.values - ref)) / scale)
    assert worst < 1e-9, worst


def test_triangle_small_phase_branch():
    # below the phase threshold the table comes from direct quadrature;
    # check continuity across the switch
    x = 1.0
    for om in (0.99 * SMALL_PHASE, 1.01 * SMALL_PHASE):
        tri = integral_triangle(0, 4, om, x)
        ref = _triangle_by_quadrature(0, 4, om, x)
        assert np.max(np.abs(tri.values - ref)) < 1e-12 * np.max(np.abs(ref))


def test_small_phase_quadrature_matches_recurrence():
    # the quadrature takes every order from one spherical Bessel table; just
    # above the switch the recurrence is still exact for a short triangle
    for l in (0, 1, 3):
        for x in (0.5, np.pi):
            om = 1.01 * SMALL_PHASE / x
            quad = _triangle_quadrature(l, 6, om, x)
            rec = integral_triangle(l, 6, om, x).values
            assert np.max(np.abs(quad - rec)) <= 1e-12 * np.max(np.abs(rec)), (l, x)


def test_triangle_accessor_bounds():
    tri = integral_triangle(1, 4, 2.0, 1.0)
    tri.value(1, 4)
    tri.value(5, 0)
    with pytest.raises(DomainError):
        tri.value(0, 0)       # below l
    with pytest.raises(DomainError):
        tri.value(5, 1)       # outside the triangle
    with pytest.raises(DomainError):
        integral_triangle(1, 4, -2.0, 1.0)


# ---------------------------------------------------------------------------
# u_N


def test_free_solution_is_bessel():
    b = np.pi
    for l in (0, 1, 3):
        ev = solution_evaluator(_zero_table(l, b))
        for om in (0.01, 0.5, 7.3, 180.0):
            got = u_N(ev, om, b)
            want = math.sqrt(om * b) * jv(l + 0.5, om * b)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (l, om)


def test_matches_ode_solver_both_sides_of_threshold(harmonic_setups, beta_harmonic):
    setup = harmonic_setups[1]
    ev = solution_evaluator(beta_harmonic[1], N=13)
    b = np.pi
    for om in (0.95 * SMALL_PHASE / b, 1.05 * SMALL_PHASE / b, 2.0, 60.0):
        u_ref = float(regular_solution_ode(setup, om, np.array([b])).u_values[0])
        want = _normalized(1, om, u_ref)
        assert abs(u_N(ev, om, b) - want) < 1e-9 * max(1.0, abs(want)), om


def test_uniform_accuracy_and_bound(harmonic_setups, beta_harmonic):
    """The truncation error must not grow with frequency and must respect
    the c_l * eps_N budget."""
    setup = harmonic_setups[1]
    ev = solution_evaluator(beta_harmonic[1], N=11)
    series_N = make_kernel_series(beta_harmonic[1], N=11)
    series_ref = make_kernel_series(
        compute_beta(setup, np.pi, 40))
    bound = uniform_error_bound(ev, np.pi, epsilon_N(series_N, series_ref))

    def errs(om_grid):
        out = []
        for om in om_grid:
            u_ref = float(
                regular_solution_ode(setup, float(om), np.array([np.pi])).u_values[0]
            )
            out.append(abs(u_N(ev, float(om), np.pi) - _normalized(1, float(om), u_ref)))
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
        ev = solution_evaluator(_zero_table(2, x))
        lead = (om * x) ** 3 / (2.0 ** 2.5 * math.exp(gammaln(3.5)))
        # next Bessel-series term gives a deviation z^2/(2(2l+3)) = z^2/14
        assert abs(u_N(ev, om, x) / lead - 1.0) < 0.1 * (om * x) ** 2


def test_u_N_equals_apply_transmutation(beta_harmonic):
    # same beta, two routes: recurrent sum vs explicit kernel integral
    bt = beta_harmonic[1]
    ev = solution_evaluator(bt, N=13)
    series = make_kernel_series(bt, N=13)
    for om in (1.0, 5.0, 10.0):
        y = lambda t, om=om: np.sqrt(om * np.asarray(t)) * jv(1.5, om * np.asarray(t))
        ta = apply_transmutation(series, y, np.pi, omega_hint=om)
        un = u_N(ev, om, np.pi)
        assert abs(ta - un) < 1e-8 * max(1.0, abs(un)), om


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
    ev = solution_evaluator(beta_harmonic[1])
    with pytest.raises(DomainError):
        uniform_error_bound(ev, np.pi, -1.0)


# ---------------------------------------------------------------------------
# argument validation


def test_array_omega_matches_scalar_calls(beta_harmonic):
    ev = solution_evaluator(beta_harmonic[1], N=13)
    b = np.pi
    nmax = int(ev.series.l) + ev.series.N + 1
    om = np.array([
        0.2 * SMALL_PHASE / b, 0.9 * SMALL_PHASE / b,   # quadrature
        1.1 * SMALL_PHASE / b, 1.0, 3.7,                # Miller branch
        (nmax + 1.5) / b, 40.0, 211.3,                  # forward recurrence
    ])
    assert np.any(om * b < SMALL_PHASE)
    assert np.any((om * b >= SMALL_PHASE) & (om * b < nmax + 1))
    assert np.any(om * b >= nmax + 1)
    got = u_N(ev, om, b)
    want = np.array([u_N(ev, float(w), b) for w in om])
    assert isinstance(got, np.ndarray) and got.shape == om.shape
    assert isinstance(u_N(ev, 2.0, b), float)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_array_omega_checks_every_element(beta_harmonic):
    ev = solution_evaluator(beta_harmonic[1])
    for bad in ([1.0, 0.0], [2.0, -1.0, 3.0], [1.0, np.nan]):
        with pytest.raises(DomainError):
            u_N(ev, np.array(bad), np.pi)
    with pytest.raises(DomainError):
        u_N(ev, np.ones((2, 2)), np.pi)


def test_solution_evaluator_validation(beta_half_dense, beta_harmonic):
    with pytest.raises(DomainError):
        solution_evaluator(beta_half_dense)      # non-integer l
    with pytest.raises(DomainError):
        solution_evaluator(beta_harmonic[1], N=24)  # table supports N <= 23
    with pytest.raises(DomainError):
        SolutionEvaluator(make_kernel_series(beta_harmonic[1], mode="real-l"), 1.0)
    ev = solution_evaluator(beta_harmonic[1])
    with pytest.raises(DomainError):
        u_N(ev, -1.0, np.pi)
    with pytest.raises(DomainError):
        u_N(ev, 1.0, 2.0)  # coefficients fitted at x = pi
