"""Special-function layer: orthogonal polynomials, spherical Bessel tables,
gamma ratios, terminating hypergeometric sums, the integer-l rule.

Reference values come from scipy.special (independent implementations),
mpmath, and closed forms.
"""
import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi, eval_legendre, jv, spherical_jn

from transmute import bessel
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


def test_jacobi_all_rejects_nan():
    with pytest.raises(DomainError):
        sf.jacobi_all(3, 0.5, 1.0, np.nan)
    with pytest.raises(DomainError):
        sf.jacobi_all(3, 0.5, 1.0, np.array([0.2, np.nan]))


@pytest.mark.parametrize("degree", [-1, 2.5, "3", None])
def test_jacobi_all_rejects_bad_degree(degree):
    with pytest.raises(DomainError, match="degree"):
        sf.jacobi_all(degree, 0.5, 1.0, 0.2)


def test_size_arguments_take_numpy_integers():
    assert sf.jacobi_all(np.int64(3), 0.5, 1.0, 0.2).shape == (4,)
    assert sf.spherical_j_table(np.int64(3), 0.2).shape == (4, 1)


@pytest.mark.parametrize("terms", [np.ones(3), np.ones((2, 3, 4)), 1.0])
def test_compensated_sum_rejects_non_2d(terms):
    with pytest.raises(DomainError, match="2-D"):
        sf.compensated_sum(terms)


@pytest.mark.parametrize("alpha, beta", [(1.5, 0.0), (0.5, 1.0), (1.0, -1.5), (5.5, -6.0)])
@pytest.mark.parametrize("degree", [0, 1, 2, 60])
def test_jacobi_all_narrow_and_wide_paths_agree(degree, alpha, beta):
    """Up to _NARROW points run the recurrence in Python floats, more in
    numpy; each column of a wide table has the bits of the call at that
    point alone, 0-d or 1-D, at the interval's ends too.  beta = -l-1 is
    the real-l kernel's."""
    rng = np.random.default_rng(degree)
    z = np.r_[-1.0, 1.0, 0.0, rng.uniform(-1.0, 1.0, sf._NARROW)]
    assert z.size > sf._NARROW
    table = sf.jacobi_all(degree, alpha, beta, z)
    assert table.shape == (degree + 1, z.size)
    for i, zi in enumerate(z):
        point = sf.jacobi_all(degree, alpha, beta, zi)
        assert point.shape == (degree + 1,)
        assert np.array_equal(point, table[:, i])
        assert np.array_equal(sf.jacobi_all(degree, alpha, beta, [zi])[:, 0], point)
    narrow = z[: sf._NARROW]
    assert np.array_equal(sf.jacobi_all(degree, alpha, beta, narrow), table[:, : sf._NARROW])
    square = sf.jacobi_all(degree, alpha, beta, z[:4].reshape(2, 2))
    assert np.array_equal(square, table[:, :4].reshape(degree + 1, 2, 2))


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
@pytest.mark.parametrize("cols", [1, sf._NARROW, sf._NARROW + 1, 202])
def test_compensated_sum_bitwise_equals_neumaier(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    terms = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-17.0, 18.0, (rows, cols))
    if rows > 1:
        terms[rows // 2] = -terms[0]    # the largest terms cancel exactly
    assert np.array_equal(sf.compensated_sum(terms), _neumaier_sum(terms))


@pytest.mark.parametrize("cols", [1, sf._NARROW, sf._NARROW + 1])
def test_compensated_sum_keeps_the_summation_order(cols):
    """Terms up to 1e18 that cancel to below 1e-3 leave a sum that is not
    exact even compensated, so it depends on the order of the additions:
    both paths add the last row first, as the reference does."""
    rng = np.random.default_rng(cols)
    big = rng.choice([-1.0, 1.0], (30, cols)) * 10.0 ** rng.uniform(0.0, 18.0, (30, cols))
    terms = np.concatenate([big, -rng.permuted(big, axis=0), rng.uniform(-1e-3, 1e-3, (5, cols))])
    assert not np.array_equal(_neumaier_sum(terms[::-1]), _neumaier_sum(terms))
    assert np.array_equal(sf.compensated_sum(terms), _neumaier_sum(terms))


def test_compensated_sum_recovers_cancelled_digits():
    terms = np.array([[1e16, 3.0], [1.0, 1e-16], [-1e16, -3.0]])
    assert np.array_equal(sf.compensated_sum(terms), [1.0, 1e-16])


# ---------------------------------------------------------------------------
# spherical Bessel


def _assert_matches_spherical_jn(table, zs):
    for n in range(table.shape[0]):
        ref = spherical_jn(n, zs)
        err = np.abs(table[n] - ref)
        # oscillatory region: absolute error against the 1/z envelope;
        # decay region: relative error (both routes are normalized there)
        for e, r, z in zip(err, ref, zs):
            if z >= n + 1.0:
                assert e * max(z, 1.0) < 5e-13, (n, z)
            elif abs(r) > 1e-250:
                assert e < 1e-11 * abs(r), (n, z, e / abs(r))


def test_spherical_j_table_against_scipy():
    zs = np.array([1e-3, 0.1, 0.9, 3.0, 11.0, 47.0, 211.0])
    _assert_matches_spherical_jn(sf.spherical_j_table(40, zs), zs)


# 1e-4 and 0.02 pass 1e250 on the way down from order 190 and are
# rescaled, 5 is not, and 300 runs the upward recurrence
_RESCALED_ZS = np.array([1e-4, 0.02, 5.0, 300.0])


def _plain_spherical_table(nmax, z):
    # the recurrences as plain loops, with the overflow test at every order
    out = np.zeros((nmax + 1, z.size))
    fwd = z >= nmax + 1.0
    zf, zb = z[fwd], z[~fwd]
    j0, j1 = np.sin(zf) / zf, np.sin(zf) / (zf * zf) - np.cos(zf) / zf
    out[0, fwd] = j0
    if nmax >= 1:
        out[1, fwd] = j1
    for n in range(1, nmax):
        j0, j1 = j1, (2 * n + 1) / zf * j1 - j0
        out[n + 1, fwd] = j1
    sub = np.zeros((nmax + 1, zb.size))
    jp, jc = np.zeros_like(zb), np.full_like(zb, 1e-30)
    for n in range(nmax + max(20, math.ceil(math.sqrt(40.0 * max(nmax, 1)))), 0, -1):
        jm = (2 * n + 1) / zb * jc - jp
        big = np.abs(jm) > 1e250
        jm[big] *= 1e-250
        jc[big] *= 1e-250
        sub[:, big] *= 1e-250
        if n - 1 <= nmax:
            sub[n - 1] = jm
        jp, jc = jc, jm
    pick = np.abs(sub[0]) >= np.abs(sub[1]) if nmax >= 1 else np.ones(zb.size, bool)
    truth = np.where(pick, np.sin(zb) / zb, np.sin(zb) / (zb * zb) - np.cos(zb) / zb)
    sub *= truth / np.where(pick, sub[0], sub[min(nmax, 1)])
    out[:, ~fwd] = sub
    return out


@pytest.mark.parametrize("nmax", [0, 1, 2, 50, 120])
def test_spherical_j_table_equals_the_plain_recurrence(nmax):
    # same floating-point operations in the same order: equal to the bit
    zs = np.concatenate([_RESCALED_ZS, np.linspace(0.5, 159.0, 31)])
    assert np.array_equal(sf.spherical_j_table(nmax, zs), _plain_spherical_table(nmax, zs))


def test_spherical_j_table_with_rescaling_is_finite():
    assert np.all(np.isfinite(sf.spherical_j_table(120, _RESCALED_ZS)))


def test_spherical_j_table_columns_do_not_depend_on_each_other():
    # u_N's scan splits its frequencies into blocks; the values must not
    # depend on which arguments share a call
    table = sf.spherical_j_table(120, _RESCALED_ZS)
    for k, z in enumerate(_RESCALED_ZS):
        assert np.array_equal(table[:, k], sf.spherical_j_table(120, z)[:, 0]), z


def test_spherical_j_table_with_rescaling_against_scipy():
    _assert_matches_spherical_jn(sf.spherical_j_table(120, _RESCALED_ZS), _RESCALED_ZS)


def test_spherical_j_small_argument_asymptotics():
    z = 1e-4
    for n in [1, 2, 5, 10]:
        lead = z ** n / math.prod(range(2 * n + 1, 0, -2))
        got = sf.spherical_j_table(n, z)[n, 0]
        assert abs(got - lead) < 1e-7 * lead


@pytest.mark.parametrize("z", [1e-300, 1e-100, 4.5e-58, 1e-51])
def test_spherical_j_table_tiny_arguments(z):
    # Miller's start overflowed here and the table came back NaN; the
    # leading term z^n/(2n+1)!! is exact to rounding, and underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nmax in (0, 2, 20, 120):
            got = sf.spherical_j_table(nmax, [z, 0.0])
            with mpmath.workdps(30):
                want = np.array([float(mpmath.mpf(z) ** n / mpmath.fac2(2 * n + 1))
                                 for n in range(nmax + 1)])
            # relative to the value, or absolutely below the smallest normal
            assert np.all(np.abs(got[:, 0] - want)
                          <= 1e-14 * want + np.finfo(float).tiny), (z, nmax)
            assert np.array_equal(got[:, 1], np.eye(nmax + 1)[0])
        # J_{3/2}(z) = sqrt(2z/pi) j_1(z) ~ sqrt(2z/pi) z/3
        want = math.sqrt(2.0 * z / math.pi) * z / 3.0
        assert abs(sf.bessel_j_half(1.0, z) - want) <= 1e-14 * want


def test_spherical_j_zero_argument():
    table = sf.spherical_j_table(6, 0.0)
    assert table[0, 0] == 1.0
    assert np.all(table[1:, 0] == 0.0)


def test_spherical_j_table_validation():
    with pytest.raises(DomainError):
        sf.spherical_j_table(-1, 1.0)
    with pytest.raises(DomainError, match="order"):
        sf.spherical_j_table(2.5, [0.5, 2.0])
    with pytest.raises(DomainError):
        sf.spherical_j_table(3, -0.5)


@pytest.mark.parametrize("z", [np.nan, np.inf, [1.0, np.nan]])
def test_spherical_j_table_rejects_non_finite(z):
    with pytest.raises(DomainError, match="finite"):
        sf.spherical_j_table(3, z)


def test_bessel_j_half_integer_and_real_orders():
    z = np.linspace(0.05, 60.0, 37)
    for l in [0.0, 1.0, 4.0, 0.5, 2.25, -0.5]:
        got = sf.bessel_j_half(l, z)
        ref = jv(l + 0.5, z)
        assert np.max(np.abs(got - ref)) < 5e-13, l


@pytest.mark.parametrize("l", [1.0, 0.5])
def test_bessel_j_half_rejects_nan(l):
    # integer l through the spherical table, real l through the numpy
    # evaluator, a scalar as a 0-d array
    for z in (np.nan, np.inf, -1e-300, [1.0, np.nan], [-1.0, 2.0]):
        with pytest.raises(DomainError, match="finite"):
            sf.bessel_j_half(l, z)


@pytest.mark.parametrize("nu", [-0.1, np.nan, np.inf])
def test_bessel_j_rejects_bad_orders(nu):
    with pytest.raises(DomainError, match="order"):
        bessel.bessel_j(nu, 1.0)


def _envelope(nu, z):
    return math.sqrt(2.0 / (math.pi * max(z, nu))) if max(z, nu) > 0 else 1.0


REAL_ORDERS = [0.0, 0.25, 0.75, 1.0, 3.2, 10.8, 40.3]


def _bessel_arguments(nu):
    """z = 0, tiny and small arguments, a band around the turning point
    z = nu, both sides of the switch from Miller's recurrence to Hankel's
    expansion at max(20, 2 nu), and up to 1e3."""
    switch = max(bessel._HANKEL_Z, 2.0 * nu)
    return np.unique(np.r_[
        0.0, 1e-300, 1e-120, 1e-100, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.5,
        nu * np.linspace(0.8, 1.2, 9), nu + 1e-9,
        np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf),
        switch * np.linspace(0.9, 1.1, 9), bessel._HANKEL_AT,
        np.linspace(2.0, 120.0, 60), np.geomspace(120.0, 1e3, 25),
    ])


@pytest.mark.parametrize("nu", REAL_ORDERS)
def test_bessel_j_half_real_order_against_mpmath(nu):
    """Within 1e-13 of the envelope sqrt(2 / (pi max(z, nu))) of mpmath's
    J_nu from z = 0 to 1e3; no warning at z = 0 or elsewhere."""
    z = _bessel_arguments(nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf.bessel_j_half(nu - 0.5, z)
        at_zero = sf.bessel_j_half(nu - 0.5, 0.0)
    assert at_zero == (1.0 if nu == 0.0 else 0.0) == got[0]
    with mpmath.workdps(30):
        err = [abs(g - float(mpmath.besselj(nu, zi))) / _envelope(nu, zi)
               for zi, g in zip(z.tolist(), got.tolist())]
    assert max(err) <= 1e-13, (nu, z[int(np.argmax(err))], max(err))


# sha256, first 16 hex digits, of bessel_j_half(nu - 1/2, .) over
# _bessel_arguments(nu): one scalar call per point, then one wide call, as
# float64 bytes (x86-64, glibc's libm)
BESSEL_DIGESTS = {
    0.0: "a37a47378c92d41a", 0.25: "7c5f7aded504a4a8", 0.75: "1da60c959fdc33c1",
    1.0: "8b0930218a5af5d5", 3.2: "5f6418c578c28de8", 10.8: "9eb925f61f54ecfc",
    40.3: "f7858fe36d3ff35e",
}


@pytest.mark.parametrize("nu", REAL_ORDERS)
def test_bessel_j_half_bits_are_pinned(nu):
    """The real-order values keep their bits: a change of method, order of
    operations or call path that moves any of them shows here."""
    z = _bessel_arguments(nu)
    scalar = np.array([sf.bessel_j_half(nu - 0.5, zi) for zi in z.tolist()])
    wide = sf.bessel_j_half(nu - 0.5, z)
    digest = hashlib.sha256(scalar.tobytes() + wide.tobytes()).hexdigest()[:16]
    assert digest == BESSEL_DIGESTS[nu]


@pytest.mark.parametrize("nu", REAL_ORDERS)
def test_bessel_j_half_paths_agree_bitwise(nu):
    """Each value of a wide call is that of the call at the point alone,
    whatever else the call holds, in any shape or width."""
    rng = np.random.default_rng(int(10 * nu))
    switch = max(bessel._HANKEL_Z, 2.0 * nu)
    z = np.r_[0.0, 1e-120, rng.uniform(0.0, switch, 3 * sf._NARROW),
              switch, rng.uniform(switch, 1e3, 3 * sf._NARROW)]
    l = nu - 0.5
    wide = sf.bessel_j_half(l, z)
    for zi, w in zip(z.tolist(), wide.tolist()):
        assert sf.bessel_j_half(l, zi) == w
    assert np.array_equal(sf.bessel_j_half(l, z[::-1]), wide[::-1])
    assert np.array_equal(sf.bessel_j_half(l, z[: sf._NARROW]), wide[: sf._NARROW])
    assert np.array_equal(sf.bessel_j_half(l, z[:6].reshape(2, 3)), wide[:6].reshape(2, 3))
    assert sf.bessel_j_half(l, np.float64(z[5])) == wide[5]
    assert sf.bessel_j_half(l, np.array(z[5])) == wide[5]
    assert sf.bessel_j_half(l, np.empty(0)).shape == (0,)
    # a method's points run in slices of _CHUNK
    copies = -(-2 * bessel._CHUNK // z.size) + 1
    assert np.array_equal(sf.bessel_j_half(l, np.tile(z, copies)), np.tile(wide, copies))


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_bessel_j_exact_zero_of_the_chain_divisor(monkeypatch, nu):
    """At z = 11.064709488501185, j_{4,1} in double precision, the chain's
    divisor at k = 3 is exactly 0: the chain meets inf and nan without a
    warning and redoes that point alone in the same numpy chain, with a
    tiny number in place of the zero."""
    z0 = 11.064709488501185
    redone = []
    miller = bessel._bessel_miller

    def spy(nu, z, floor=False):
        if floor:
            redone.append(z.tolist())
        return miller(nu, z, floor)

    monkeypatch.setattr(bessel, "_bessel_miller", spy)
    z = np.r_[np.linspace(1.0, 15.0, 2 * sf._NARROW), z0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = sf.bessel_j_half(nu - 0.5, z)
        alone = sf.bessel_j_half(nu - 0.5, z0)
    assert redone == [[z0], [z0]]
    assert wide[-1] == alone == {0.0: -0.15943449969200085, 1.0: -0.1864203917433028}[nu]
    assert abs(wide[-1] - float(mpmath.besselj(nu, z0))) < 1e-15


def test_bessel_j_half_below_the_leading_term_bound():
    """Below 1e-100 the leading term (z/2)^nu / Gamma(nu + 1) is J_nu to
    rounding, subnormal z included; values past the smallest double
    underflow to 0 without a warning."""
    for nu in (0.0, 0.25, 0.75, 1.0, 3.2, 40.3):
        for z in (9.99e-101, 1e-200, 1e-310, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sf.bessel_j_half(nu - 0.5, z)
            want = float(mpmath.besselj(nu, z))
            if want >= 1e-300:
                assert abs(got - want) <= 1e-14 * want, (nu, z)
            else:
                assert 0.0 <= got <= 1e-300


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
            got = (-1.0) ** k * sf.spherical_j_table(2 * k, z)[2 * k, 0]
            assert abs(got - ref) < 1e-11, (k, z)


# ---------------------------------------------------------------------------
# gamma ratios


def test_gamma_ratio_small_arguments():
    for m in [0, 1, 4, 9]:
        for l in [0.0, 1.0, 2.0, 3.0]:
            want = math.gamma(m + 2 * l + 2.5) / math.gamma(m + l + 1.5)
            got = sf.gamma_ratio(m, l)
            assert abs(got - want) < 1e-12 * want
    for l in [0.5, -1.0]:
        with pytest.raises(DomainError):
            sf.gamma_ratio(0, l)


def test_gamma_ratio_log_vectorized_consistency():
    m = np.arange(0, 25)
    ratios = sf.gamma_ratio(m, 2)
    assert ratios.shape == m.shape
    for mm in m:
        want = math.lgamma(mm + 2 * 2 + 2.5) - math.lgamma(mm + 2 + 1.5)
        assert abs(math.log(ratios[mm]) - want) < 1e-12
        assert ratios[mm] == sf.gamma_ratio(int(mm), 2)


def test_gamma_ratio_large_m_no_overflow():
    assert math.isfinite(sf.gamma_ratio(10 ** 6, 10.0))


# ---------------------------------------------------------------------------
# the integer-l rule


@pytest.mark.parametrize("l, integer", [
    (0.0, True), (3.0, True), (-1e-10, True), (1.0 + 5e-10, True),
    (1.0 + 2e-9, False), (0.5, False), (-0.5, False), (np.nan, False),
    (np.inf, False),
])
def test_is_integer_l(l, integer):
    assert sf.is_integer_l(l) is integer
