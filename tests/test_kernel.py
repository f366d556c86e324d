"""Kernel series: evaluation in both parameter regimes, diagonal limit,
moments, truncation error, and the transmutation integral."""
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import eval_jacobi, roots_legendre

from transmute import kernel
from transmute import specialfn as sf
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
# truncations of the M = 25 tables of q = x^2 at x = pi, where their
# coefficients stop decaying, for l = 0, 1, 2
N_HARMONIC = {0: 13, 1: 11, 2: 11}


def _zero_table(l, x=np.pi, M=8):
    return BetaTable(l=float(l), x=float(x), M=M, beta=np.zeros(M + 1),
                     fit_residual=0.0, sum_beta=0.0)


def _zero_series(l, **kwargs):
    """The series of a zero table: N = 0 at integer l, the whole table
    at real l."""
    return make_kernel_series(_zero_table(l), N=0 if l == int(l) else None, **kwargs)


def test_integer_l_weight_ratio_against_mpmath():
    # Gamma(m+2l+5/2)/Gamma(m+l+3/2) as a product of l+1 half-integers:
    # correct to rounding, and finite far past any fit size
    m = np.r_[np.arange(201), 10 ** 6]
    with mpmath.workdps(40):
        for li in range(11):
            got = sf.gamma_ratio(m, li)
            want = np.array([float(mpmath.gamma(mm + 2 * li + mpmath.mpf(5) / 2)
                                   / mpmath.gamma(mm + li + mpmath.mpf(3) / 2))
                             for mm in m])
            assert np.all(np.isfinite(got)), li
            assert np.max(np.abs(got - want) / want) <= 1e-15, li


# ---------------------------------------------------------------------------
# diagonal (Goursat) values: K_N(x, x) -> (1/2) int_0^x q


def test_goursat_value_harmonic(beta_harmonic):
    # truncated where the coefficients stop decaying the diagonal limit is
    # clean; the full table drags in amplified trailing noise at higher l
    for l in (0, 1, 2):
        series = make_kernel_series(beta_harmonic[l], N=N_HARMONIC[l])
        got = kernel_K(series, series.x)
        assert abs(got - HALF_INT_Q) < 1e-6 * HALF_INT_Q, l


def test_default_truncation(beta_harmonic, beta_half_dense):
    # an integer-l series needs its length: the whole table would drag in
    # its amplified noise.  Real l keeps the whole table
    for bt in beta_harmonic.values():
        with pytest.raises(DomainError, match=rf"needs its length N, at most "
                                              rf"{bt.M - int(bt.l) - 1} for M=25$"):
            make_kernel_series(bt)
        with pytest.raises(DomainError, match="needs its length N"):
            make_kernel_series(bt, mode="integer-l")
    assert make_kernel_series(beta_half_dense).N == beta_half_dense.M
    short = _zero_table(1, M=4)
    with pytest.raises(DomainError, match="needs its length N"):
        make_kernel_series(short)
    assert make_kernel_series(short, N=2).N == 2
    assert make_kernel_series(_zero_table(0.5, M=4)).N == 4


def test_goursat_error_decreases_with_N(beta_harmonic):
    errs = []
    for N in (4, 8, 13):
        series = make_kernel_series(beta_harmonic[1], N=N)
        errs.append(abs(kernel_K(series, series.x) - HALF_INT_Q))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("l, mode", [(l, mode) for l in (0, 0.5, 1, 5)
                                     for mode in ("integer-l", "real-l")
                                     if mode == "real-l" or l == int(l)])
def test_pointwise_kernel_K_has_the_bits_of_a_wide_call(l, mode):
    """kernel_K at one t runs the Python-float path of jacobi_all and
    compensated_sum, over more than _NARROW points the numpy one; each
    value of the wide call is the pointwise value, bit for bit."""
    rng = np.random.default_rng(7)
    M = 30
    table = BetaTable(l=float(l), x=np.pi, M=M,
                      beta=rng.standard_normal(M + 1) * 0.7 ** np.arange(M + 1),
                      fit_residual=0.0, sum_beta=0.0)
    # the integer-l truncations where these tables' coefficients stop decaying
    N = {0: 22, 1: 21, 5: 17}[l] if mode == "integer-l" else None
    series = make_kernel_series(table, N=N, mode=mode)
    ts = np.linspace(0.0, series.t_max_fraction * np.pi, sf._NARROW + 5)
    wide = kernel_K(series, ts)
    for i, t in enumerate(ts):
        assert kernel_K(series, float(t)) == wide[i]


@pytest.mark.parametrize("l, mode", [(1, "integer-l"), (0.5, "real-l")])
def test_pointwise_kernel_K_checks_t_as_a_wide_call(l, mode):
    """A scalar t is checked in Python floats: it raises what a one-point
    array raises, and takes the same clip at both ends.  A NaN t is named
    as such, on both paths, in place of the Jacobi argument it becomes."""
    series = _zero_series(l, mode=mode)
    hi = series.x * series.t_max_fraction
    for t in (-1e-3, hi * (1.0 + 1e-9), np.pi + 1.0, math.nan):
        with pytest.raises(DomainError) as wide:
            kernel_K(series, np.array([t]))
        with pytest.raises(DomainError) as point:
            kernel_K(series, t)
        assert str(point.value) == str(wide.value)
    with pytest.raises(DomainError, match=r"^t must be >= 0, got nan$"):
        kernel_K(series, math.nan)
    with pytest.raises(DomainError, match=r"^t must be >= 0, got nan$"):
        kernel_K(series, np.array([0.5, math.nan]))
    for t in (-1e-14, 0.0, 1, hi, hi * (1.0 + 1e-13), np.float64(0.7)):
        assert kernel_K(series, t) == kernel_K(series, np.array([float(t)]))[0]


# ---------------------------------------------------------------------------
# zero potential


def test_zero_potential_kernel_vanishes():
    for l in (0, 2):
        series = _zero_series(l)
        t = np.linspace(0.0, np.pi, 40)
        assert np.max(np.abs(kernel_K(series, t))) < 1e-10


def test_apply_transmutation_identity_for_zero_kernel():
    series = _zero_series(1)
    y = lambda t: np.cos(0.7 * np.asarray(t))
    got = apply_transmutation(series, y, np.pi)
    assert abs(got - math.cos(0.7 * math.pi)) < 1e-12


@pytest.mark.parametrize("l", [1, 0.5])
def test_apply_transmutation_needs_vectorized_y(l):
    # y is called once on the node array; a y that cannot map it is an
    # error, not a reason to fall back to one call per node
    series = _zero_series(l)
    with pytest.raises(DomainError):
        apply_transmutation(series, lambda t: 1.0, np.pi)
    with pytest.raises(DomainError):
        apply_transmutation(series, lambda t: np.ones(3), np.pi)


@pytest.mark.parametrize("l", [1, 0.5])
@pytest.mark.parametrize("omega", [None, 30.0])
def test_apply_transmutation_calls_y_once_with_x_last(l, omega):
    # y(x) comes from the same call as the integrand: the nodes with x
    # appended, read-only.  omega x = 30 pi > 50 lays 24-node panels of
    # pi/omega, 30 on [0, pi] and 29 on [0, 0.95 pi]; real l adds the
    # 32-node tail
    series = _zero_series(l, goursat_diag=0.0)
    size = {(1, None): 200, (1, 30.0): 24 * 30,
            (0.5, None): 200 + 32, (0.5, 30.0): 24 * 29 + 32}[l, omega]
    calls = []

    def y(t):
        calls.append(t)
        return np.cos(t)

    assert apply_transmutation(series, y, np.pi, omega_hint=omega) == -1.0
    [t] = calls
    assert t.shape == (size + 1,) and t[-1] == np.pi and not t.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        apply_transmutation(series, lambda t: np.multiply(t, 2.0, out=t), np.pi,
                            omega_hint=omega)
    for wrong in (lambda t: t[:-1], lambda t: np.ones(3)):
        with pytest.raises(DomainError, match="same shape"):
            apply_transmutation(series, wrong, np.pi, omega_hint=omega)


@pytest.mark.parametrize("x, omega, match", [
    (np.nan, None, "x=nan"),
    (np.pi, np.inf, "omega_hint must be finite, got inf"),
    (np.pi, -np.inf, "omega_hint must be finite, got -inf"),
    (np.pi, np.nan, "omega_hint must be finite, got nan"),
    (np.pi, 1e6, "omega_hint=1000000.0 needs more than 4096 panels"),
])
def test_apply_transmutation_checks_its_input_first(monkeypatch, x, omega, match):
    # a NaN x, a non-finite omega_hint and one past the panel bound raise
    # before any node is laid or y is called
    series = make_kernel_series(_zero_table(0.5))
    monkeypatch.setattr(kernel, "_gl_nodes", lambda n: pytest.fail("nodes laid"))
    with pytest.raises(DomainError, match=match):
        apply_transmutation(series, lambda t: pytest.fail("y called"), x, omega_hint=omega)


def test_apply_transmutation_panel_bound_covers_the_oracle_range():
    # |omega_hint| x = 2000 pi, the oracle's validated range, takes 2000
    # panels at l = 1, under the bound
    series = _zero_series(1)
    assert apply_transmutation(series, np.cos, np.pi, omega_hint=2000.0) == -1.0


# ---------------------------------------------------------------------------
# moments


def test_moment_alpha1_l0_is_beta0(beta_harmonic):
    series = make_kernel_series(beta_harmonic[0], N=N_HARMONIC[0])
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
    series = _zero_series(0)
    for alpha in (-2.0, np.nan):   # needs alpha > -l-2
        with pytest.raises(DomainError):
            kernel_moment(series, alpha)


@pytest.fixture(scope="module")
def series_by_l():
    """Integer-l series for q = x^2 and q == 20 on (0, pi] at l = 0, 1, 2, 5,
    10, fitted at the default M and truncated where their coefficients stop
    decaying."""
    from transmute.oracle import ProblemSetup
    from transmute.spectral import default_fit_size

    pots = {"x^2": lambda x: np.asarray(x, dtype=float) ** 2,
            "20": lambda x: np.full(np.shape(x), 20.0)}
    N = {("x^2", 0): 13, ("x^2", 1): 11, ("x^2", 2): 11, ("x^2", 5): 10, ("x^2", 10): 8,
         ("20", 0): 16, ("20", 1): 15, ("20", 2): 22, ("20", 5): 15, ("20", 10): 10}
    out = {}
    for name, q in pots.items():
        for l in (0, 1, 2, 5, 10):
            bt = compute_beta(ProblemSetup(l=float(l), b=np.pi, q=q), np.pi,
                              default_fit_size(l))
            out[name, l] = (bt, make_kernel_series(bt, N=N[name, l]))
    return out


@pytest.mark.parametrize("q", ["x^2", "20"])
@pytest.mark.parametrize("l", [0, 1, 2, 5, 10])
def test_kernel_K_matches_the_paper_basis(series_by_l, q, l):
    # the weights are stored in P_s^(l+1/2, 0); the paper's series is
    # t^(l+1) sum_m c_m P_m^(l+1/2, l+1)(z) with c_m written out here.
    # mpmath evaluates it: scipy's eval_jacobi is off by 1.6e-11 of max|K|
    # near t = x at l = 10, the jacobi_all recurrence by 1e-13
    bt, series = series_by_l[q, l]
    x = mpmath.mpf(bt.x)
    t = np.linspace(0.0, bt.x, 31)
    want = np.zeros_like(t)
    with mpmath.workdps(30):
        half = mpmath.mpf(1) / 2
        c = [(-1) ** (m + l + 1) * mpmath.sqrt(mpmath.pi)
             / (x ** (2 * l + 3) * mpmath.gamma(l + 3 * half))
             * mpmath.gamma(m + 2 * l + 5 * half) / mpmath.gamma(m + l + 3 * half)
             * mpmath.mpf(bt.beta[m + l + 1]) for m in range(series.N + 1)]
        for i, ti in enumerate(t):
            z = 1 - 2 * (mpmath.mpf(ti) / x) ** 2
            want[i] = float(mpmath.mpf(ti) ** (l + 1) * mpmath.fsum(
                cm * mpmath.jacobi(m, l + half, l + 1, z) for m, cm in enumerate(c)))
    got = kernel_K(series, t)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("l", [0, 2, 5, 10])
def test_moment_matches_quadrature_on_constant_potential(series_by_l, l):
    # the P_s^(l+1/2, 0) form has positive-ratio terms; the 3F2 per term
    # it replaced cancelled down to 2.7e-10 here at l = 5.  t = x s^2 makes
    # the integrand a polynomial in s that 400 nodes integrate exactly
    series = series_by_l["20", l][1]
    x = series.x
    z, w = roots_legendre(400)
    s = 0.5 * (z + 1.0)
    t = x * s * s
    kt = kernel_K(series, t)
    for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0, 3.5):
        ref = float(np.sum(0.5 * w * t ** alpha * kt * 2.0 * x * s))
        assert abs(kernel_moment(series, alpha) - ref) <= 1e-12 * abs(ref), alpha


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
    series = make_kernel_series(bt, N=bt.M - 1)   # R below takes every beta_k
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
    ref = make_kernel_series(compute_beta(harmonic_setups[1], np.pi, 40), N=38)
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
        p = eval_jacobi(np.arange(n), l + 0.5, 0.0, z)
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
        series_ref = make_kernel_series(beta_ref[l], N=40 - l - 1)
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
                  make_kernel_series(beta_harmonic[1], N=N_HARMONIC[1]))


def test_epsilon_N_mode_mismatch(beta_harmonic):
    a = make_kernel_series(beta_harmonic[1], N=8, mode="integer-l")
    b = make_kernel_series(beta_harmonic[1], N=8, mode="real-l",
                           t_max_fraction=0.9)
    with pytest.raises(DomainError):
        epsilon_N(a, b)
    # same mode and x, but l = 0 and l = 1 weights
    with pytest.raises(DomainError, match="share l"):
        epsilon_N(make_kernel_series(beta_harmonic[0], N=8),
                  make_kernel_series(beta_harmonic[1], N=N_HARMONIC[1]))


# ---------------------------------------------------------------------------
# transmutation integral vs the ODE solver


def test_apply_transmutation_matches_ode(harmonic_setups, beta_harmonic):
    setup = harmonic_setups[1]
    series = make_kernel_series(beta_harmonic[1], N=N_HARMONIC[1])
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
    N = N_HARMONIC[1] if l == 1 else None
    build = lambda: make_kernel_series(table, N=N, goursat_diag=HALF_INT_Q)
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
    for table in (beta_harmonic[1], beta_half_dense):
        for N in (3.5, np.nan):
            with pytest.raises(DomainError, match="integer"):
                make_kernel_series(table, N=N)
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=1.0, mode="banana", N=1, weights=np.zeros(2))
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=1.0, mode="integer-l", N=1, weights=np.zeros(5))
    # the real-l series divides by (x^2 - t^2)^(l+1): no cutoff at t = x
    with pytest.raises(DomainError):
        make_kernel_series(beta_half_dense, t_max_fraction=1.0)
    with pytest.raises(DomainError):
        KernelSeries(x=1.0, l=0.5, mode="real-l", N=1, weights=np.zeros(2))
    assert make_kernel_series(beta_harmonic[1], N=N_HARMONIC[1],
                              t_max_fraction=1.0).t_max_fraction == 1.0


@pytest.mark.parametrize("x, goursat, match", [
    (np.nan, None, "x must be finite and > 0, got nan"),
    (0.0, None, "x must be finite and > 0, got 0.0"),
    (-1.0, None, "x must be finite and > 0, got -1.0"),
    (np.inf, None, "x must be finite and > 0, got inf"),
    (1.0, np.nan, "goursat_diag must be finite, got nan"),
    (1.0, -np.inf, "goursat_diag must be finite, got -inf"),
])
def test_series_needs_a_finite_positive_x_and_a_finite_diagonal(x, goursat, match):
    # a NaN goursat_diag would anchor the real-l tail at NaN and make
    # apply_transmutation return NaN without a word
    for l, mode, frac in ((1.0, "integer-l", 1.0), (0.5, "real-l", 0.95)):
        with pytest.raises(DomainError, match=match):
            KernelSeries(x=x, l=l, mode=mode, N=1, weights=np.zeros(2),
                         t_max_fraction=frac, goursat_diag=goursat)


def test_kernel_eval_outside_range(beta_harmonic):
    series = make_kernel_series(beta_harmonic[1], N=10)
    with pytest.raises(DomainError):
        kernel_K(series, series.x * 1.01)
    with pytest.raises(DomainError):
        kernel_K(series, -0.1)
    with pytest.raises(DomainError):
        kernel_K(series, np.nan)


def test_moment_requires_integer_mode(beta_half_dense):
    series = make_kernel_series(beta_half_dense, N=40, t_max_fraction=0.9)
    with pytest.raises(DomainError):
        kernel_moment(series, 1.0)


# ---------------------------------------------------------------------------
# the numpy Gauss-Legendre rule and the real-l weights


@pytest.mark.parametrize("n", [16, 24, 120, 200])
def test_gl_nodes_integrate_polynomials_and_match_scipy(n):
    """The rule integrates x^j exactly to 1e-14 for every j <= 2n - 1; its
    nodes agree with roots_legendre to 2 ulp of 1, the interval's scale
    (scipy's nodes near 0 are off by about 3e-17, tens of their own ulps,
    where mpmath's Newton solve agrees with these to 1e-18); the arrays
    are read-only, as every caller shares them."""
    x, w = kernel._gl_nodes(n)
    j = np.arange(2 * n)
    exact = np.where(j % 2 == 0, 2.0 / (j + 1.0), 0.0)
    moments = (w[None, :] * x[None, :] ** j[:, None]).sum(axis=1)
    assert np.max(np.abs(moments - exact)) <= 1e-14
    xr, _ = roots_legendre(n)
    assert np.max(np.abs(x - xr)) <= 2.0 * np.spacing(1.0)
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_gl_end_weights_against_mpmath():
    # scipy's own end weight at n = 200 is off by 8e-15 to 4e-11 across
    # versions, so the reference is mpmath's root of P_200
    n = 200
    x, w = kernel._gl_nodes(n)
    with mpmath.workdps(40):
        for i in (0, 1, n - 2, n - 1):
            r = mpmath.mpf(float(x[i]))
            for _ in range(4):   # Newton, from a node already good to 1e-16
                dp = n * (r * mpmath.legendre(n, r) - mpmath.legendre(n - 1, r)) / (r * r - 1)
                r -= mpmath.legendre(n, r) / dp
            dp = n * (r * mpmath.legendre(n, r) - mpmath.legendre(n - 1, r)) / (r * r - 1)
            want = 2 / ((1 - r * r) * dp * dp)
            assert abs(w[i] - float(want)) <= 1e-13, i


def _gammaln_weights(table, N):
    """The real-l weights as scipy's gammaln and gammasgn assemble them."""
    from scipy.special import gammaln, gammasgn

    l, k = table.l, np.arange(N + 1)
    arg = k - l
    pole = (arg <= 0.0) & (np.abs(arg - np.round(arg)) < 1e-12)
    lpref = 0.5 * math.log(math.pi) - math.lgamma(l + 1.5) - math.log(table.x)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (-1.0) ** k * gammasgn(arg) * np.exp(
            lpref + gammaln(k + 1.0) - gammaln(arg)) * table.beta[: N + 1]
    return np.where(pole, 0.0, terms)


@pytest.mark.parametrize("l", [0.25, 0.5, 1.5, 2.7, 1.0])
def test_real_l_weights_match_the_gammaln_formula(l):
    """The product recurrence gives the gammaln/gammasgn weights to 1e-14
    of each; at l = 1 the poles k = 0, 1 give zero.  The table is short:
    the log form rounds |lgamma| ~ 20 here, and at k ~ 60 it is 4e-14 off
    the exact ratio (the mpmath tests below)."""
    M = 12
    rng = np.random.default_rng(int(10 * l))
    table = BetaTable(l=l, x=2.0, M=M, beta=rng.uniform(-1.0, 1.0, M + 1),
                      fit_residual=0.0, sum_beta=0.0)
    got = make_kernel_series(table, M, mode="real-l").weights
    want = _gammaln_weights(table, M)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), np.max(
        np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
    if l == 1.0:
        assert got[0] == 0.0 and got[1] == 0.0 and np.all(got[2:] != 0.0)


@pytest.mark.parametrize("l", [0.5, 2.7])
def test_real_l_weights_as_accurate_as_gammaln(l):
    # against the exact k!/Gamma(k - l) at M = 60, no worse than scipy's form
    M = 60
    table = BetaTable(l=l, x=1.0, M=M, beta=np.ones(M + 1), fit_residual=0.0, sum_beta=0.0)
    got = make_kernel_series(table, M, mode="real-l").weights
    with mpmath.workdps(40):
        pref = mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(l) + 1.5)
        exact = np.array([float((-1) ** k * pref * mpmath.factorial(k)
                                * mpmath.rgamma(k - mpmath.mpf(l))) for k in range(M + 1)])
    ours = np.max(np.abs(got - exact) / np.abs(exact))
    theirs = np.max(np.abs(_gammaln_weights(table, M) - exact) / np.abs(exact))
    assert ours <= max(2.0 * theirs, 1e-14), (ours, theirs)


def _exact_weights(l, M, x=1.0):
    """(-1)^k sqrt(pi) k! / (Gamma(l + 3/2) Gamma(k - l) x), k <= M, by mpmath."""
    with mpmath.workdps(40):
        pref = mpmath.sqrt(mpmath.pi) / (mpmath.gamma(mpmath.mpf(l) + 1.5) * x)
        return np.array([float((-1) ** k * pref * mpmath.factorial(k)
                               * mpmath.rgamma(k - mpmath.mpf(l))) for k in range(M + 1)])


@pytest.mark.parametrize("M", [60, 100])
@pytest.mark.parametrize("l", [0.25, 0.5, 1.0, 1.5, 2.7, 10.3])
def test_real_l_weights_within_2e14_of_mpmath(l, M):
    """The product recurrence r_{k+1} = -r_k (k + 1)/(k - l) keeps every
    weight within 2e-14 of the exact one (4.4e-15 measured); the log form
    exp(lpref + lgamma(k + 1) - lgamma(k - l)) rounded |lgamma| in the
    hundreds and was 4.4e-14 to 1.5e-13 off.  At l = 1 it starts past the
    poles k = 0, 1 of Gamma(k - l), whose weights are zero."""
    table = BetaTable(l=l, x=1.3, M=M, beta=np.ones(M + 1), fit_residual=0.0, sum_beta=0.0)
    got = make_kernel_series(table, M, mode="real-l").weights
    exact = _exact_weights(l, M, 1.3)
    pole = exact == 0.0
    assert np.count_nonzero(pole) == (2 if l == 1.0 else 0)
    assert np.all(got[pole] == 0.0)
    assert np.max(np.abs(got[~pole] - exact[~pole]) / np.abs(exact[~pole])) <= 2e-14


def test_real_l_weights_stay_finite_at_large_l():
    """Gamma(l + 3/2) alone overflows past l ~ 170, so the prefactor is
    folded into the first weight: at l = 200.5 every weight is finite and
    within 1e-13 of mpmath (2.3e-14 measured)."""
    M = 100
    table = BetaTable(l=200.5, x=1.0, M=M, beta=np.ones(M + 1), fit_residual=0.0, sum_beta=0.0)
    got = make_kernel_series(table, M, mode="real-l").weights
    assert np.all(np.isfinite(got))
    exact = _exact_weights(200.5, M)
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13


def test_real_l_weights_past_the_float_range_raise_domain_error():
    """A first weight past the float range is inf, and the series rejects
    it as any non-finite weight: DomainError, not math.exp's
    OverflowError."""
    table = BetaTable(l=0.5, x=1e-310, M=4, beta=np.ones(5), fit_residual=0.0, sum_beta=0.0)
    with pytest.raises(DomainError, match="weights must be finite"):
        make_kernel_series(table, mode="real-l")
