"""Regular-solution evaluation with uniform-in-frequency error control.

The normalized regular solution (behaving like
(omega x)^(l+1)/(2^(l+1/2) Gamma(l+3/2)) at the origin) is

    u(omega, x) = sqrt(omega x) J_{l+1/2}(omega x)
                  + sqrt(pi omega)/(x^(2l+3) Gamma(l+3/2))
                    * sum_m (-1)^(m+l+1) (Gamma(m+2l+5/2)/Gamma(m+l+3/2))
                      beta_{m+l+1}(x) I_{l,m}(omega, x),

where I_{k,m} = int_0^x t^(k+3/2) J_{k+1/2}(omega t)
P_m^(k+1/2, k+1)(1-2t^2/x^2) dt.  The I-table satisfies a two-term
recurrence anchored at the closed form I_{k,0} = x^(k+3/2)
J_{k+3/2}(omega x)/omega, so evaluating the truncated sum u_N costs one
spherical-Bessel pass plus O(N^2) arithmetic — for any omega.  Its terms
are summed over m with specialfn.compensated_sum, the same column-wise
compensated sum kernel.kernel_K uses over the kernel series.  The payoff
is the uniform bound |u - u_N| <= c_l * eps_N(x) with c_l =
sup_z |sqrt(z) J_{l+1/2}(z)| and eps_N the L1 kernel truncation error:
the accuracy does not degrade as omega grows, which is what makes
large-index eigenvalue computation behave.

Integer l only: the recurrence rests on integer-order Jacobi derivative
identities.  Non-integer l goes through kernel.apply_transmutation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from . import specialfn
from .coeffs import BetaTable
from .errors import DomainError
from .kernel import KernelSeries, make_kernel_series

__all__ = [
    "SolutionEvaluator",
    "integral_triangle",
    "solution_evaluator",
    "u_N",
    "uniform_error_bound",
    "sup_sqrt_bessel",
]

SMALL_PHASE = 0.1   # below omega*x = 0.1 the recurrence divides tiny by tiny;
                    # direct quadrature of the defining integral is used instead


def _triangle_quadrature(l, m_max, omega, x):
    """Direct Gauss-Legendre evaluation of every I_{k,m}; the slow exact
    route, used when omega*x is too small for the recurrence."""
    z60, w60 = roots_legendre(60)
    t = 0.5 * x * (z60 + 1.0)
    w = 0.5 * x * w60
    zz = 1.0 - 2.0 * (t / x) ** 2
    z = omega * t
    # J_{k+1/2}(z) = sqrt(2z/pi) j_k(z); one table covers every order
    bess = np.sqrt(2.0 * z / math.pi) * specialfn.spherical_j_table(l + m_max, z)
    out = np.zeros((m_max + 1, m_max + 1))
    for j in range(m_max + 1):
        k = l + j
        base = w * t ** (k + 1.5) * bess[k]
        rows = specialfn.jacobi_all(m_max - j, k + 0.5, k + 1.0, zz)
        out[j, : m_max - j + 1] = rows @ base
    return out


def _triangles(l: int, m_max: int, omega: np.ndarray, x: float) -> np.ndarray:
    """integral_triangle at every omega of a 1-D array, stacked along the
    first axis; the recurrence is elementwise in omega."""
    out = np.zeros((omega.size, m_max + 1, m_max + 1))
    small = omega * x < SMALL_PHASE
    for i in np.flatnonzero(small):
        out[i] = _triangle_quadrature(l, m_max, float(omega[i]), x)

    om = omega[~small, None]
    z = om * x
    jt = specialfn.spherical_j_table(l + m_max + 1, z[:, 0]).T
    tri = np.zeros((om.size, m_max + 1, m_max + 1))
    ks = np.arange(l, l + m_max + 1)
    tri[:, :, 0] = x ** (ks + 1.5) * np.sqrt(2.0 * z / math.pi) * jt[:, ks + 1] / om

    wx2 = om * x * x
    for m in range(1, m_max + 1):
        j = np.arange(0, m_max - m + 1)
        k = l + j
        # C(k+m+1, m) from the exact integer, correctly rounded
        binom = np.array([math.comb(kk + m + 1, m) for kk in k.tolist()], dtype=float)
        tri[:, j, m] = (-1.0) ** m * binom * tri[:, j, 0] \
            + (2.0 * m + 4.0 * k + 5.0) / wx2 * tri[:, j + 1, m - 1]
    out[~small] = tri
    if not np.all(np.isfinite(out)):
        raise DomainError("triangle entries must be finite")
    return out


def integral_triangle(l: int, m_max: int, omega: float, x: float) -> np.ndarray:
    """The I_{k,m} table at one (omega, x), shape (m_max+1, m_max+1).

    Entry [j, m] holds I_{l+j, m} for m <= m_max - j; entries outside the
    triangle are zero.

    Anchored at I_{k,0} = x^(k+3/2) J_{k+3/2}(omega x)/omega (one spherical
    Bessel pass covers every k), then filled by

        I_{k,m} = (-1)^m C(k+m+1, m) I_{k,0}
                  + ((2m+4k+5)/(omega x^2)) I_{k+1,m-1}.

    For omega*x < 0.1 every entry is computed by direct quadrature of the
    defining integral instead.

    Limit: the recurrence loses the high-m entries of long triangles for
    omega*x between 0.1 and a few tens.  Against the 60-node quadrature at
    x = pi (l = 1, 200 values of omega*x in [0.1, 100]) row 0 is off by up
    to 0.6 of its largest entry at m_max = 23 (9e-2 at omega*x = 10), by
    7e-6 at m_max = 16 and by 2.4e-9 at m_max = 11; at omega*x = 100 all
    three agree to 7e-13.  The truncations choose_N picks for l = 1,
    q = x^2 (11) and for l = 0, q = 20 (16), both at M = 25, sit at the
    benign end; a long truncation at moderate omega*x is not reliable.
    """
    if l < 0 or m_max < 0:
        raise DomainError("need l >= 0 and m_max >= 0")
    if omega <= 0.0 or x <= 0.0:
        raise DomainError("need omega > 0 and x > 0")
    return _triangles(l, m_max, np.array([omega], dtype=float), x)[0]


@lru_cache(maxsize=32)
def sup_sqrt_bessel(l: float) -> float:
    """Empirical sup over z > 0 of |sqrt(z) J_{l+1/2}(z)|.

    The function tends to sqrt(2/pi) from its oscillating envelope as
    z grows; the global maximum sits near the turning point z ~ l, so a
    dense scan over (0, 4l+60] with a fine pass around the argmax settles
    it to ~1e-8, plenty for an error *budget* constant.
    """
    hi = 4.0 * max(l, 0.0) + 60.0
    z = np.linspace(1e-4, hi, 60001)
    vals = np.abs(np.sqrt(z) * specialfn.bessel_j_half(l, z))
    i = int(np.argmax(vals))
    lo2, hi2 = max(z[i] - 0.01, 1e-6), z[i] + 0.01
    z2 = np.linspace(lo2, hi2, 20001)
    refined = float(np.max(np.abs(np.sqrt(z2) * specialfn.bessel_j_half(l, z2))))
    return max(refined, math.sqrt(2.0 / math.pi))


@dataclass(frozen=True)
class SolutionEvaluator:
    """Precombined state for u_N at one x: the integer-l kernel series,
    whose weights are the u_N series coefficients, and the uniform-bound
    constant c_l."""

    series: KernelSeries
    c_l_estimate: float

    def __post_init__(self):
        if self.series.mode != "integer-l":
            raise DomainError("u_N needs an integer-l kernel series")


def solution_evaluator(beta: BetaTable, N: int | None = None) -> SolutionEvaluator:
    """Bundle a BetaTable into a SolutionEvaluator (integer l only).

    N defaults to the largest the table supports, M - l - 1; the table
    and N are checked by make_kernel_series.
    """
    series = make_kernel_series(beta, N, mode="integer-l")
    return SolutionEvaluator(series=series, c_l_estimate=sup_sqrt_bessel(series.l))


def u_N(ev: SolutionEvaluator, omega, x: float):
    """Truncated representation of the normalized regular solution.

    ``omega`` is a float or a 1-D array (all > 0), and so is the result;
    one call over an array is far cheaper than a call per frequency.

    The approximation error is bounded by c_l * eps_N(x) independently of
    omega — see uniform_error_bound.
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim > 1:
        raise DomainError(f"omega must be a scalar or 1-D, got shape {om.shape}")
    flat = np.atleast_1d(om)
    bad = ~(flat > 0.0)
    if np.any(bad):
        raise DomainError(f"omega must be > 0, got {flat[bad][0]}")
    series = ev.series
    if abs(x - series.x) > 1e-9 * max(1.0, series.x):
        raise DomainError(
            f"evaluator holds coefficients at x={series.x}, got x={x}"
        )
    l = int(series.l)
    tri = _triangles(l, series.N, flat, x)
    terms = series.weights * np.sqrt(flat)[:, None] * tri[:, 0]
    z = flat * x
    main = z * math.sqrt(2.0 / math.pi) * specialfn.spherical_j(l, z)
    vals = main + specialfn.compensated_sum(terms.T)
    return float(vals[0]) if om.ndim == 0 else vals


def uniform_error_bound(ev: SolutionEvaluator, eps_N: float) -> float:
    """omega-independent error budget c_l * eps_N for |u - u_N| on (0, x],
    x being the evaluator's point."""
    if eps_N < 0.0:
        raise DomainError("eps_N must be >= 0")
    return ev.c_l_estimate * float(eps_N)
