"""Regular-solution evaluation with uniform-in-frequency error control.

The normalized regular solution (behaving like
(omega x)^(l+1)/(2^(l+1/2) Gamma(l+3/2)) at the origin) is

    u(omega, x) = sqrt(omega x) J_{l+1/2}(omega x)
                  + sqrt(pi omega)/(x^(2l+3) Gamma(l+3/2))
                    * sum_m (-1)^(m+l+1) (Gamma(m+2l+5/2)/Gamma(m+l+3/2))
                      beta_{m+l+1}(x) I_{l,m}(omega, x),

where I_{l,m} = int_0^x t^(l+3/2) J_{l+1/2}(omega t) P_m^(l+1/2, l+1)(1-2t^2/x^2) dt.
In the basis P_s^(l+1/2, 0) each Jacobi polynomial integrates to a single
Bessel function, so I_{l,m} = (x^(l+3/2)/omega) sum_s C[m, s] J_{l+2s+3/2}(omega x)
(integral_row, good to 8e-13 of the row's largest entry for l <= 10, N <= 40):
u_N costs one spherical-Bessel table and an (N+1)^2 product for any omega.
Its terms are summed with specialfn.compensated_sum, as kernel.kernel_K sums
the kernel series.  The payoff is the uniform bound |u - u_N| <= c_l * eps_N(x)
with c_l = sup_z |sqrt(z) J_{l+1/2}(z)| and eps_N the L1 kernel truncation
error: the accuracy does not degrade as omega grows, which is what makes
large-index eigenvalue computation behave.

Integer l only, because the weights of u_N are those of the integer-l
kernel series; non-integer l goes through kernel.apply_transmutation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specialfn
from .coeffs import BetaTable
from .errors import DomainError
from .kernel import KernelSeries, make_kernel_series

__all__ = [
    "SolutionEvaluator",
    "integral_row",
    "solution_evaluator",
    "u_N",
    "uniform_error_bound",
    "sup_sqrt_bessel",
]


def _connection(l: int, m_max: int) -> np.ndarray:
    """C with P_m^(l+1/2, l+1) = sum_s C[m, s] P_s^(l+1/2, 0), m, s <= m_max.

    Raises the second parameter from 0 to l+1 by one lower-bidiagonal solve
    per unit: (2k+a+b+1) P_k^(a,b) = (k+a+b+1) P_k^(a,b+1) + (k+a) P_{k-1}^(a,b+1)
    (DLMF 18.9.5).
    """
    a = l + 0.5
    k = np.arange(m_max + 1.0)
    c = np.eye(m_max + 1)
    for b in range(l + 1):
        step = np.diag(k + a + b + 1.0) + np.diag(k[1:] + a, -1)
        c = np.linalg.solve(step, (2.0 * k + a + b + 1.0)[:, None] * c)
    return c


def integral_row(l: int, m_max: int, omega, x: float) -> np.ndarray:
    """I_{l,m}(omega, x) for m = 0..m_max: shape (m_max+1,) for a float
    omega, (len(omega), m_max+1) for a 1-D array, every omega > 0.

    In the basis P_s^(v,0), v = l+1/2, the Jacobi polynomials integrate to
    single Bessel functions, int_0^1 r^(v+1) P_s^(v,0)(1-2r^2) J_v(k r) dr
    = J_{v+2s+1}(k)/k (the Hankel transform of a Zernike radial
    polynomial), so with C from _connection

        I_{l,m} = (x^(l+3/2)/omega) sum_s C[m, s] J_{l+2s+3/2}(omega x).

    Against panel quadrature at x = pi, omega*x in [1e-4, 1e3], the row is
    off by at most 7.7e-13 of its largest entry for l <= 10, m_max <= 40.
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim > 1:
        raise DomainError(f"omega must be a scalar or 1-D, got shape {om.shape}")
    flat = np.atleast_1d(om)
    bad = ~(flat > 0.0)
    if np.any(bad):
        raise DomainError(f"omega must be > 0, got {flat[bad][0]}")
    if l < 0 or m_max < 0 or not x > 0.0:
        raise DomainError("need l >= 0, m_max >= 0 and x > 0")
    z = flat * x
    orders = l + 1 + 2 * np.arange(m_max + 1)
    # J_{n+1/2}(z) = sqrt(2z/pi) j_n(z)
    bess = np.sqrt(2.0 * z / math.pi) * specialfn.spherical_j_table(orders[-1], z)[orders]
    row = (np.power(x, l + 1.5) / flat)[:, None] * (bess.T @ _connection(l, m_max).T)
    if not np.all(np.isfinite(row)):
        raise DomainError("integral row must be finite")
    return row[0] if om.ndim == 0 else row


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
    series = ev.series
    if abs(x - series.x) > 1e-9 * max(1.0, series.x):
        raise DomainError(f"evaluator holds coefficients at x={series.x}, got x={x}")
    l = int(series.l)
    row = np.atleast_2d(integral_row(l, series.N, omega, x))
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    terms = series.weights * np.sqrt(om)[:, None] * row
    main = om * x * math.sqrt(2.0 / math.pi) * specialfn.spherical_j(l, om * x)
    vals = main + specialfn.compensated_sum(terms.T)
    return float(vals[0]) if np.ndim(omega) == 0 else vals


def uniform_error_bound(ev: SolutionEvaluator, eps_N: float) -> float:
    """omega-independent error budget c_l * eps_N for |u - u_N| on (0, x],
    x being the evaluator's point."""
    if eps_N < 0.0:
        raise DomainError("eps_N must be >= 0")
    return ev.c_l_estimate * float(eps_N)
