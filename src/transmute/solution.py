"""Regular-solution evaluation with uniform-in-frequency error control.

The normalized regular solution (behaving like
(omega x)^(l+1)/(2^(l+1/2) Gamma(l+3/2)) at the origin) is

    u(omega, x) = sqrt(omega x) J_{l+1/2}(omega x)
                  + sqrt(omega) int_0^x K(x,t) t^(l+1/2) J_{l+1/2}(omega t) dt.

With the integer-l kernel series K_N = t^(l+1) sum_s d_s P_s^(l+1/2, 0)(z)
of kernel.make_kernel_series, z = 1 - 2t^2/x^2, each term integrates to a
single Bessel function (integral_row), so u_N is a Neumann series

    u_N(omega, x) = sqrt(omega x) J_{l+1/2}(omega x)
                    + (x^(l+3/2)/sqrt(omega)) sum_s d_s J_{l+2s+3/2}(omega x),

all of whose orders come from one spherical-Bessel table: u_N costs that
table and an (N+1)-term sum for any omega.  Its terms are summed with
specialfn.compensated_sum, as kernel.kernel_K sums the kernel series.
The payoff is the uniform bound |u - u_N| <= c_l * eps_N(x) with
c_l = sup_z |sqrt(z) J_{l+1/2}(z)| and eps_N the L1 kernel truncation
error: the accuracy does not degrade as omega grows, which is what makes
large-index eigenvalue computation behave.

Integer l only, because the weights of u_N are those of the integer-l
kernel series; non-integer l goes through kernel.apply_transmutation.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specialfn
from .errors import DomainError
from .kernel import KernelSeries
from .specialfn import is_integer_l

__all__ = [
    "integral_row",
    "series_terms",
    "u_N",
    "uniform_error_bound",
    "sup_sqrt_bessel",
]


def _row(l: int, s_max: int, omega, x):
    """(om, j, row): omega > 0 as a 1-D array, the spherical-Bessel table
    j_0..j_{l+2 s_max+1}(omega x) and the integral row taken from it; x is
    a float or an array paired element-wise with omega."""
    om = np.asarray(omega, dtype=float)
    if om.ndim > 1 or np.ndim(x) and np.shape(x) != om.shape:
        raise DomainError(f"omega must be a scalar or 1-D and x a scalar or of its shape, "
                          f"got shapes {om.shape} and {np.shape(x)}")
    om = np.atleast_1d(om)
    bad = ~(om > 0.0)
    if np.any(bad):
        raise DomainError(f"omega must be > 0, got {om[bad][0]}")
    z = om * x
    j = specialfn.spherical_j_table(l + 2 * s_max + 1, z)
    # J_{n+1/2}(z) = sqrt(2z/pi) j_n(z)
    row = (np.power(x, l + 1.5) / om)[:, None] * (np.sqrt(2.0 * z / math.pi) * j[l + 1::2]).T
    if not np.all(np.isfinite(row)):
        raise DomainError("integral row must be finite")
    return om, j, row


def integral_row(l: int, s_max: int, omega, x) -> np.ndarray:
    """int_0^x t^(l+3/2) J_{l+1/2}(omega t) P_s^(l+1/2, 0)(1-2t^2/x^2) dt
    for s = 0..s_max: shape (s_max+1,) for a float omega, (len(omega),
    s_max+1) for a 1-D array, every omega > 0.  x > 0 is a float, or a
    1-D array paired element-wise with omega, so that draws at many points
    share one spherical-Bessel table.  l is an integer >= 0 in the sense
    of specialfn.is_integer_l.

    The Hankel transform of a Zernike radial polynomial,
    int_0^1 r^(v+1) P_s^(v,0)(1-2r^2) J_v(k r) dr = J_{v+2s+1}(k)/k with
    v = l+1/2 (DLMF 18.17), makes the entries single Bessel functions,

        x^(l+3/2) J_{l+2s+3/2}(omega x) / omega.

    Against panel quadrature at x = pi, omega*x in [1e-4, 1e3], the row is
    off by at most 1.1e-13 of its largest entry for l <= 10, s_max <= 40.
    """
    if not (is_integer_l(l) and float(s_max).is_integer() and s_max >= 0
            and np.all(np.asarray(x) > 0.0)):   # NaN fails too
        raise DomainError("need an integer l >= 0, an integer s_max >= 0 and x > 0")
    row = _row(int(round(l)), int(s_max), omega, x)[2]
    return row[0] if np.ndim(omega) == 0 else row


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


def u_N(series: KernelSeries, omega, x: float):
    """Truncated representation of the normalized regular solution.

    ``series`` is the integer-l kernel series at x, whose weights are the
    series coefficients of u_N.  ``omega`` is a float or a 1-D array (all
    > 0), and so is the result; one call over an array is far cheaper
    than a call per frequency.

    The approximation error is bounded by c_l * eps_N(x) independently of
    omega — see uniform_error_bound.
    """
    if series.mode != "integer-l":
        raise DomainError("u_N needs an integer-l kernel series")
    if abs(x - series.x) > 1e-9 * max(1.0, series.x):
        raise DomainError(f"series holds coefficients at x={series.x}, got x={x}")
    main, terms = series_terms(int(round(series.l)), series.N, omega, x)
    vals = main + specialfn.compensated_sum((series.weights * terms).T)
    return float(vals[0]) if np.ndim(omega) == 0 else vals


def series_terms(l: int, s_max: int, omega, x: float):
    """(main, terms) of u_N at omega > 0: main = sqrt(omega x) J_{l+1/2}(omega x)
    and terms[:, s] = sqrt(omega) integral_row(l, s_max, omega, x)[:, s], the
    term d_s multiplies.  u_N sums them; the spectrum's fit solves for d."""
    om, j, row = _row(l, s_max, omega, x)
    return om * x * math.sqrt(2.0 / math.pi) * j[l], np.sqrt(om)[:, None] * row


def uniform_error_bound(series: KernelSeries, eps_N: float) -> float:
    """omega-independent error budget c_l * eps_N for |u - u_N| on (0, x],
    x being the series' point and c_l = sup_sqrt_bessel(l)."""
    if not eps_N >= 0.0:   # NaN fails too
        raise DomainError("eps_N must be >= 0")
    return sup_sqrt_bessel(series.l) * float(eps_N)
