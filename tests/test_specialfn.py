"""Special-function layer: orthogonal polynomials, spherical Bessel tables,
gamma ratios, terminating hypergeometric sums, the integer-l rule.

Reference values come from scipy.special (independent implementations),
mpmath, and closed forms.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi, eval_legendre, jv, spherical_jn

from transmute import specialfn as sf
from transmute.errors import DomainError


# ---------------------------------------------------------------------------
# Legendre / Jacobi


def test_legendre_matches_scipy():
    z = np.linspace(-1.0, 1.0, 41)
    for n in [0, 1, 2, 3, 7, 20, 55]:
        got = sf.jacobi_all(n, 0.0, 0.0, z)[n]
        ref = eval_legendre(n, z)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_jacobi_all_matches_scipy_classical():
    z = np.linspace(-1.0, 1.0, 31)
    for alpha, beta in [(0.0, 0.0), (0.5, 1.0), (2.5, 3.0), (1.5, 0.0)]:
        table = sf.jacobi_all(12, alpha, beta, z)
        assert table.shape == (13, z.size)
        for n in range(13):
            ref = eval_jacobi(n, alpha, beta, z)
            assert np.max(np.abs(table[n] - ref)) < 1e-11 * max(
                1.0, np.max(np.abs(ref))
            )


def test_jacobi_negative_beta_matches_mpmath():
    # beta <= -1 leaves the orthogonal range but the recurrence is still
    # the defining one; mpmath evaluates the terminating 2F1 form directly.
    mpmath.mp.dps = 30
    z = np.linspace(-0.95, 0.95, 9)
    for beta in [-1.5, -2.0, -3.5]:
        table = sf.jacobi_all(10, 1.0, beta, z)
        for n in [0, 1, 2, 5, 8, 10]:
            ref = np.array(
                [float(mpmath.jacobi(n, 1.0, beta, zz)) for zz in z]
            )
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(table[n] - ref)) < 1e-11 * scale, (n, beta)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=80),
       st.floats(min_value=0.0, max_value=math.pi))
def test_legendre_bounded_on_interval(n, theta):
    val = sf.jacobi_all(n, 0.0, 0.0, math.cos(theta))[n]
    assert abs(val) <= 1.0 + 1e-12


def test_legendre_argument_range():
    with pytest.raises(DomainError):
        sf.jacobi_all(3, 0.0, 0.0, 1.01)
    # a hair of overshoot from rounding t/x is tolerated
    sf.jacobi_all(3, 0.0, 0.0, 1.0 + 5e-13)


@pytest.mark.parametrize("l", [0.25, 0.5])
@pytest.mark.parametrize("kind", ["real-l", "integer-l"])
def test_jacobi_all_degree_60_matches_scipy(l, kind):
    # the kernel series' parameters (l+1/2, -l-1) and (l+1/2, l+1) at the
    # longest truncation the CLI uses; row-normalized, since P_n grows
    # like n^alpha at the endpoints
    alpha, beta = l + 0.5, (-l - 1.0 if kind == "real-l" else l + 1.0)
    z = np.linspace(-1.0, 1.0, 41)
    ref = eval_jacobi(np.arange(61)[:, None], alpha, beta, z[None, :])
    scale = np.max(np.abs(ref), axis=1)
    table = sf.jacobi_all(60, alpha, beta, z)
    assert np.max(np.max(np.abs(table - ref), axis=1) / scale) < 1e-13
    column = sf.jacobi_all(60, alpha, beta, np.float64(0.3))
    assert column.shape == (61,)
    ref0 = eval_jacobi(np.arange(61), alpha, beta, 0.3)
    assert np.max(np.abs(column - ref0) / scale) < 1e-13


def test_jacobi_all_degenerate_recurrence_names_the_degree():
    # alpha + beta = -3 zeroes the leading coefficient 2n(n+a+b)(2n+a+b-2)
    # at n = 3
    with pytest.raises(DomainError, match=r"degenerate at n=3 "):
        sf.jacobi_all(5, 0.0, -3.0, 0.2)


# ---------------------------------------------------------------------------
# compensated summation


def _neumaier_sum(terms):
    """Column-wise Neumaier summation, last row first, with the
    compare-and-branch error term: the reference compensated_sum must
    reproduce bit for bit."""
    total = np.zeros(terms.shape[1])
    comp = np.zeros_like(total)
    for term in terms[::-1]:
        t = total + term
        big = np.abs(total) >= np.abs(term)
        comp += np.where(big, (total - t) + term, (term - t) + total)
        total = t
    return total + comp


@pytest.mark.parametrize("rows", [1, 61])
@pytest.mark.parametrize("cols", [1, 202])
def test_compensated_sum_bitwise_equals_neumaier(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    terms = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-17.0, 18.0, (rows, cols))
    if rows > 1:
        terms[rows // 2] = -terms[0]    # the largest terms cancel exactly
    assert np.array_equal(sf.compensated_sum(terms), _neumaier_sum(terms))


def test_compensated_sum_recovers_cancelled_digits():
    terms = np.array([[1e16, 3.0], [1.0, 1e-16], [-1e16, -3.0]])
    assert np.array_equal(sf.compensated_sum(terms), [1.0, 1e-16])


# ---------------------------------------------------------------------------
# spherical Bessel


def test_spherical_j_table_against_scipy():
    zs = np.array([1e-3, 0.1, 0.9, 3.0, 11.0, 47.0, 211.0])
    nmax = 40
    table = sf.spherical_j_table(nmax, zs)
    for n in range(nmax + 1):
        ref = spherical_jn(n, zs)
        err = np.abs(table[n] - ref)
        # oscillatory region: absolute error against the 1/z envelope;
        # decay region: relative error (both routes are normalized there)
        for e, r, z in zip(err, ref, zs):
            if z >= n + 1.0:
                assert e * max(z, 1.0) < 5e-13, (n, z)
            elif abs(r) > 1e-250:
                assert e < 1e-11 * abs(r), (n, z, e / abs(r))


def test_spherical_j_small_argument_asymptotics():
    z = 1e-4
    for n in [1, 2, 5, 10]:
        lead = z ** n / math.prod(range(2 * n + 1, 0, -2))
        got = sf.spherical_j(n, z)
        assert abs(got - lead) < 1e-7 * lead


def test_spherical_j_zero_argument():
    table = sf.spherical_j_table(6, 0.0)
    assert table[0, 0] == 1.0
    assert np.all(table[1:, 0] == 0.0)


def test_spherical_j_table_validation():
    with pytest.raises(DomainError):
        sf.spherical_j_table(-1, 1.0)
    with pytest.raises(DomainError):
        sf.spherical_j_table(3, -0.5)


def test_bessel_j_half_integer_and_real_orders():
    z = np.linspace(0.05, 60.0, 37)
    for l in [0.0, 1.0, 4.0, 0.5, 2.25, -0.5]:
        got = sf.bessel_j_half(l, z)
        ref = jv(l + 0.5, z)
        assert np.max(np.abs(got - ref)) < 5e-13, l


def test_legendre_bessel_cosine_identity():
    # int_0^1 P_{2k}(s) cos(z s) ds = (-1)^k j_{2k}(z): the identity that
    # turns the Legendre expansion into a Bessel series under the cosine
    # transform.
    for k in [0, 1, 3, 6]:
        for z in [0.7, 4.0, 19.5]:
            ref, err = quad(
                lambda s: eval_legendre(2 * k, s) * math.cos(z * s),
                0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            got = (-1.0) ** k * sf.spherical_j(2 * k, z)
            assert abs(got - ref) < 1e-11, (k, z)


# ---------------------------------------------------------------------------
# gamma ratios, 3F2


def test_gamma_ratio_small_arguments():
    for m in [0, 1, 4, 9]:
        for l in [0.0, 0.5, 1.0, 3.0]:
            want = math.gamma(m + 2 * l + 2.5) / math.gamma(m + l + 1.5)
            got = math.exp(sf.gamma_ratio_log(m, l))
            assert abs(got - want) < 1e-12 * want


def test_gamma_ratio_log_vectorized_consistency():
    m = np.arange(0, 25)
    logs = sf.gamma_ratio_log(m, 1.5)
    for mm in m:
        want = math.lgamma(mm + 2 * 1.5 + 2.5) - math.lgamma(mm + 1.5 + 1.5)
        assert abs(logs[mm] - want) < 1e-12


def test_gamma_ratio_large_m_no_overflow():
    assert math.isfinite(sf.gamma_ratio_log(10 ** 6, 10.0))


def _hyp3f2_term_scale(m, l, alpha):
    """Sum of |terms|: the alternating series cancels down from this scale,
    so roundoff in the result is proportional to it."""
    a2 = 2 * l + m + 2.5
    a3 = 0.5 * (alpha + l) + 1.0
    b1 = l + 1.5
    b2 = a3 + 1.0
    term = 1.0
    total = 1.0
    for j in range(m):
        term *= ((j - m) * (a2 + j) * (a3 + j)) / ((b1 + j) * (b2 + j) * (j + 1.0))
        total += abs(term)
    return total


def _hyp3f2_tol(m, l, alpha):
    return 1e-15 * (m + 1) * _hyp3f2_term_scale(m, l, alpha) + 1e-13


def test_hyp3f2_l0_alpha1_closed_form():
    # at l = 0, alpha = 1 the third numerator parameter cancels the first
    # denominator and the sum collapses to (-1)^m m!/(5/2)_m
    for m in range(0, 15):
        poch = 1.0
        for j in range(m):
            poch *= 2.5 + j
        want = (-1.0) ** m * math.factorial(m) / poch
        got = sf.hyp3f2_terminating(m, 0.0, 1.0)
        assert abs(got - want) < _hyp3f2_tol(m, 0.0, 1.0), m


def test_hyp3f2_against_mpmath():
    mpmath.mp.dps = 40
    for m in [0, 3, 7, 12]:
        for l in [0.0, 1.0, 2.0]:
            for alpha in [0.5, 1.0, 2.0]:
                ref = float(
                    mpmath.hyper(
                        [-m, 2 * l + m + 2.5, 0.5 * (alpha + l) + 1.0],
                        [l + 1.5, 0.5 * (alpha + l) + 2.0],
                        1,
                    )
                )
                got = sf.hyp3f2_terminating(m, l, alpha)
                assert abs(got - ref) < _hyp3f2_tol(m, l, alpha), (m, l, alpha)


def test_hyp3f2_validation():
    with pytest.raises(DomainError):
        sf.hyp3f2_terminating(-2, 0.0, 1.0)
    with pytest.raises(DomainError):
        sf.hyp3f2_terminating(3, 0.0, -2.0)


# ---------------------------------------------------------------------------
# the integer-l rule


@pytest.mark.parametrize("l, integer", [
    (0.0, True), (3.0, True), (-1e-10, True), (1.0 + 5e-10, True),
    (1.0 + 2e-9, False), (0.5, False), (-0.5, False),
])
def test_is_integer_l(l, integer):
    assert sf.is_integer_l(l) is integer
