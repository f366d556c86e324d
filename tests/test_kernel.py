"""Kernel series: evaluation in both parameter regimes, diagonal limit,
moments, truncation error, and the transmutation integral."""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import eval_jacobi, roots_legendre

from transmute import kernel
from transmute.coeffs import BetaTable, compute_beta, unperturbed_term
from transmute.errors import DomainError, QuadratureError
from transmute.kernel import (
    KernelSeries,
    apply_transmutation,
    epsilon_N,
    kernel_K,
    kernel_moment,
    make_kernel_series,
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
    # R(x, t) = sum_k (beta_k/x) P_2k(t/x)
    c = np.zeros(2 * bt.M + 1)
    c[0::2] = bt.beta
    R = lambda t: legval(t / x, c) / x
    got = kernel_K(series, ts)
    want = -(R(ts + h) - R(ts - h)) / (2.0 * h)
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


@pytest.fixture(scope="module")
def beta_ref(harmonic_setups, setup_half):
    """Reference-length tables: M = 40 for l = 0, 1, 2; M = 30 and 60 for
    l = 1/2."""
    tables = {l: compute_beta(harmonic_setups[l], np.pi, 40) for l in (0, 1, 2)}
    tables[0.5] = (compute_beta(setup_half, np.pi, 30), compute_beta(setup_half, np.pi, 60))
    return tables


def _scipy_kernel_difference(series_N, series_ref, t):
    """K_ref(x, t) - K_N(x, t) at one t from scipy's Jacobi polynomials, an
    evaluation route independent of specialfn.jacobi_all and
    compensated_sum.  The weights are subtracted before the sum, so the
    difference keeps its digits where the two kernels agree to 1e-11."""
    x, l = series_N.x, series_N.l
    n = max(series_N.N, series_ref.N) + 1
    dw = np.pad(series_ref.weights, (0, n - series_ref.N - 1)) \
        - np.pad(series_N.weights, (0, n - series_N.N - 1))
    z = 1.0 - 2.0 * (t / x) ** 2
    if series_N.mode == "integer-l":
        p = eval_jacobi(np.arange(n), l + 0.5, l + 1.0, z)
        pref = t ** (l + 1.0)
    else:
        p = eval_jacobi(np.arange(n), l + 0.5, -l - 1.0, z)
        pref = t ** (l + 1.0) / (x * x - t * t) ** (l + 1.0)
    return pref * float(np.dot(dw, p))


def _reference_epsilon(series_N, series_ref):
    """int |K_ref - K_N| split at the zeros of the difference (brentq on
    the sign changes of a 2000-point grid), one adaptive quad per piece."""
    hi = min(series_N.t_max_fraction, series_ref.t_max_fraction) * series_N.x
    d = lambda t: _scipy_kernel_difference(series_N, series_ref, t)
    ts = np.linspace(0.0, hi, 2001)[1:]
    ds = np.array([d(t) for t in ts])
    cross = np.flatnonzero(np.sign(ds[:-1]) != np.sign(ds[1:]))
    edges = [0.0] + [brentq(d, ts[i], ts[i + 1], xtol=1e-12 * hi) for i in cross] + [hi]
    return sum(
        quad(lambda t: abs(d(t)), a, b, epsabs=0.0, epsrel=1e-9, limit=50)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize("l, N", [(0, 6), (0, 13), (1, 6), (1, 11), (2, 11), (0.5, None)])
def test_epsilon_N_matches_split_quad_reference(beta_harmonic, beta_ref, l, N):
    # seven doublings of uniform panels did not converge on any of these
    # cases, because |K_ref - K_N| has a kink at each sign change; the
    # bound is the 1e-6 agreement that epsilon_N asks of its passes
    if l == 0.5:
        short, long_ = beta_ref[0.5]
        series_N, series_ref = make_kernel_series(short), make_kernel_series(long_)
    else:
        series_N = make_kernel_series(beta_harmonic[l], N=N)
        series_ref = make_kernel_series(beta_ref[l])
    want = _reference_epsilon(series_N, series_ref)
    assert abs(epsilon_N(series_N, series_ref) - want) <= 1e-6 * want


def test_epsilon_N_raises_when_passes_disagree(monkeypatch, beta_harmonic):
    # relative noise of 1e-3 in every kernel value keeps successive
    # estimates from agreeing to 1e-6 however fine the panels get
    rng = np.random.default_rng(0)
    exact = kernel.kernel_K
    monkeypatch.setattr(
        kernel, "kernel_K",
        lambda s, t: exact(s, t) * (1.0 + 1e-3 * rng.standard_normal(np.shape(t))),
    )
    with pytest.raises(QuadratureError, match="did not converge in 7 passes"):
        epsilon_N(make_kernel_series(beta_harmonic[1], N=6),
                  make_kernel_series(beta_harmonic[1]))


def test_epsilon_N_mode_mismatch(beta_harmonic):
    a = make_kernel_series(beta_harmonic[1], N=8, mode="integer-l")
    b = make_kernel_series(beta_harmonic[1], N=8, mode="real-l",
                           t_max_fraction=0.9)
    with pytest.raises(DomainError):
        epsilon_N(a, b)
    # same mode and x, but l = 0 and l = 1 weights
    with pytest.raises(DomainError, match="share l"):
        epsilon_N(make_kernel_series(beta_harmonic[0], N=8),
                  make_kernel_series(beta_harmonic[1]))


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


@pytest.mark.parametrize("l", [1, 0.5])
def test_apply_transmutation_evaluates_the_kernel_once_per_series(
    monkeypatch, beta_harmonic, beta_half_dense, l
):
    # K_N(x, .) does not depend on omega: twelve calls with omega x <= 50
    # make one kernel_K call over the 200 nodes, plus one for the anchored
    # near-diagonal tail at real l
    table = beta_harmonic[1] if l == 1 else beta_half_dense
    build = lambda: make_kernel_series(table, goursat_diag=HALF_INT_Q)
    y = lambda om: (lambda t: unperturbed_term(float(l), om, t))
    omegas = np.linspace(1.0, 15.0, 12)
    series = build()
    sizes = []
    exact = kernel.kernel_K
    monkeypatch.setattr(kernel, "kernel_K", lambda s, t: sizes.append(np.size(t)) or exact(s, t))
    got = [apply_transmutation(series, y(om), np.pi, omega_hint=om) for om in omegas]
    assert sizes == ([200] if l == 1 else [200, 2])
    monkeypatch.undo()
    for om, value in zip(omegas, got):
        assert value == apply_transmutation(build(), y(om), np.pi, omega_hint=om)

    def in_place(t):
        t *= 2.0
        return t

    with pytest.raises(ValueError, match="read-only"):
        apply_transmutation(series, in_place, np.pi)
    assert got[0] == apply_transmutation(series, y(omegas[0]), np.pi, omega_hint=omegas[0])


# ---------------------------------------------------------------------------
# domain checks


def test_near_diagonal_guard(beta_half_dense):
    series = make_kernel_series(beta_half_dense, N=60, t_max_fraction=0.95)
    assert series.mode == "real-l"
    with pytest.raises(DomainError, match="near the diagonal"):
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
