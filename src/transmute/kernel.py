"""Truncated-series evaluation of the integral kernel K(x, t).

The kernel of the Volterra operator mapping the free regular solution to
the perturbed one, T[y](x) = y(x) + int_0^x K(x,t) y(t) dt, is expanded
over Jacobi polynomials in z = 1 - 2 t^2/x^2.  Two forms are provided:

* integer l >= 0:
    K(x,t) = t^(l+1) sum_m c_m(x) P_m^(l+1/2, l+1)(z),
    c_m = (sqrt(pi)/(x^(2l+3) Gamma(l+3/2))) (-1)^(m+l+1)
          * (Gamma(m+2l+5/2)/Gamma(m+l+3/2)) beta_{m+l+1}(x);

* real l > -1/2:
    K(x,t) = (t^(l+1)/(x^2-t^2)^(l+1)) sum_k c_k(x) P_k^(l+1/2, -l-1)(z),
    c_k = (sqrt(pi)/(Gamma(l+3/2) x)) (-1)^k (k!/Gamma(k-l)) beta_k(x),

the latter valid away from the diagonal t = x, where the division by
(x^2 - t^2)^(l+1) amplifies truncation error; evaluation is therefore cut
off at t_max_fraction * x < x.  One evaluator, kernel_K, serves both: the
series' mode picks the second Jacobi parameter, the t prefactor and the
cutoff.  The integer-l series reaches the diagonal, where K_N(x, x)
converges to the Goursat value (1/2) int_0^x q.  The weights are assembled
in log-magnitude + sign form and the series summed from the highest index
down with compensation, because the Gamma ratios span many orders of
magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, gammasgn, roots_jacobi, roots_legendre

from . import specialfn
from .coeffs import BetaTable
from .errors import DomainError, NearDiagonalError, QuadratureError

__all__ = [
    "KernelSeries",
    "make_kernel_series",
    "kernel_K",
    "kernel_moment",
    "epsilon_N",
    "poisson_transform",
    "apply_transmutation",
]

_T_SLACK = 1e-12


@dataclass(frozen=True)
class KernelSeries:
    """Immutable truncated kernel series at a fixed x.

    weights holds the fully combined coefficients c_0..c_N (everything
    except the t-dependent prefactor and the Jacobi polynomial), so
    evaluation is a plain weighted polynomial sum.  t_max_fraction is the
    evaluation cutoff: 1 for the integer-l series, below 1 for the real-l
    one, which is singular at t = x.  goursat_diag optionally carries
    (1/2) int_0^x q, the exact diagonal value K(x,x); the real-l
    transmutation integral uses it to anchor its near-diagonal tail.
    """

    x: float
    l: float
    mode: str
    N: int
    weights: np.ndarray
    t_max_fraction: float = 1.0
    goursat_diag: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("integer-l", "real-l"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == "integer-l" and not specialfn.is_integer_l(self.l):
            raise DomainError(
                f"integer-l mode requires l in 0,1,2,..., got {self.l}"
            )
        if not 0.0 < self.t_max_fraction <= 1.0:
            raise DomainError("t_max_fraction must lie in (0, 1]")
        if self.mode == "real-l" and self.t_max_fraction == 1.0:
            raise DomainError(
                "a real-l series needs t_max_fraction < 1: its "
                "(x^2-t^2)^(l+1) division is singular at t = x"
            )
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.N + 1,):
            raise DomainError(
                f"weights must have shape ({self.N + 1},), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def make_kernel_series(
    beta: BetaTable,
    N: int | None = None,
    mode: str = "auto",
    t_max_fraction: float = 0.95,
    goursat_diag: float | None = None,
) -> KernelSeries:
    """Combine a BetaTable into evaluation-ready kernel weights.

    Parameters
    ----------
    beta : BetaTable
    N : int, optional
        Truncation index.  Defaults to the largest the table supports:
        M - l - 1 in integer-l mode (the series consumes beta_{m+l+1}),
        M in real-l mode.
    mode : {"auto", "integer-l", "real-l"}
        "auto" picks integer-l whenever specialfn.is_integer_l(l) holds,
        that is, l lies within 1e-9 of a non-negative integer.
    t_max_fraction : float
        Near-diagonal evaluation cutoff for the real-l series, in (0, 1);
        the integer-l series is always evaluated up to t = x.
    goursat_diag : float, optional
        Exact diagonal value (1/2) int_0^x q(s) ds when the caller has the
        potential at hand; enables the anchored tail estimate in
        apply_transmutation for real-l kernels.
    """
    l = beta.l
    x = beta.x
    if mode == "auto":
        mode = "integer-l" if specialfn.is_integer_l(l) else "real-l"

    if mode == "integer-l":
        if not specialfn.is_integer_l(l):
            raise DomainError(
                f"integer-l mode requires l in 0,1,2,..., got {l}"
            )
        li = int(round(l))
        n_max = beta.M - li - 1
        if n_max < 0:
            raise DomainError(
                f"table with M={beta.M} too short for integer-l kernel at l={li}"
            )
        if N is None:
            N = n_max
        if not 0 <= N <= n_max:
            raise DomainError(f"N={N} outside [0, {n_max}] for M={beta.M}")
        lpref = 0.5 * math.log(math.pi) - (2 * li + 3) * math.log(x) \
            - math.lgamma(li + 1.5)
        m = np.arange(N + 1)
        logmag = lpref + specialfn.gamma_ratio_log(m, float(li))
        sign = (-1.0) ** (m + li + 1)
        weights = sign * np.exp(logmag) * beta.beta[m + li + 1]
        return KernelSeries(
            x=x, l=float(li), mode=mode, N=N, weights=weights,
            t_max_fraction=1.0, goursat_diag=goursat_diag,
        )

    if mode != "real-l":
        raise DomainError(f"unknown mode {mode!r}")
    if N is None:
        N = beta.M
    if not 0 <= N <= beta.M:
        raise DomainError(f"N={N} outside [0, {beta.M}]")
    lpref = 0.5 * math.log(math.pi) - math.lgamma(l + 1.5) - math.log(x)
    k = np.arange(N + 1)
    # 1/Gamma(k - l) vanishes at the poles k - l = 0, -1, ...
    arg = k - l
    pole = (arg <= 0.0) & (np.abs(arg - np.round(arg)) < 1e-12)
    terms = (-1.0) ** k * gammasgn(arg) * np.exp(
        lpref + gammaln(k + 1.0) - gammaln(arg)
    ) * beta.beta[: N + 1]
    weights = np.where(pole, 0.0, terms)
    return KernelSeries(
        x=x, l=l, mode="real-l", N=N, weights=weights,
        t_max_fraction=t_max_fraction, goursat_diag=goursat_diag,
    )


def _check_t(series: KernelSeries, t):
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    hi = series.x * series.t_max_fraction
    if np.any(ta < -_T_SLACK * series.x):
        raise DomainError("t must be >= 0")
    if np.any(ta > hi * (1.0 + _T_SLACK)):
        if series.t_max_fraction < 1.0:
            raise NearDiagonalError(
                f"t beyond {series.t_max_fraction} * x: the (x^2-t^2)^(l+1) "
                "division amplifies truncation error near the diagonal"
            )
        raise DomainError("t must lie in [0, x]")
    return np.clip(ta, 0.0, hi)


def kernel_K(series: KernelSeries, t):
    """K_N(x, t) for 0 <= t <= t_max_fraction * x.  Vectorized in t.

    Past the cutoff of a real-l series it raises NearDiagonalError instead
    of returning a value dominated by amplified truncation error.
    """
    ta = _check_t(series, t)
    x, l = series.x, series.l
    z = 1.0 - 2.0 * (ta / x) ** 2
    if series.mode == "integer-l":
        rows = specialfn.jacobi_all(series.N, l + 0.5, l + 1.0, z)
        pref = ta ** (int(l) + 1)
    else:
        rows = specialfn.jacobi_all(series.N, l + 0.5, -l - 1.0, z)
        pref = ta ** (l + 1.0) / (x * x - ta * ta) ** (l + 1.0)
    vals = pref * specialfn.compensated_sum(series.weights[:, None] * rows)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def kernel_moment(series: KernelSeries, alpha: float) -> float:
    """int_0^x t^alpha K_N(x,t) dt in closed form (terminating 3F2 per term).

    Valid for alpha > -l-2; agrees with direct quadrature of the truncated
    kernel, and at l=0, alpha=1 collapses to beta_0(x).
    """
    if series.mode != "integer-l":
        raise DomainError("kernel_moment requires an integer-l series")
    li = int(series.l)
    x = series.x
    if alpha <= -li - 2.0:
        raise DomainError(f"need alpha > {-li - 2}, got {alpha}")
    # weights already carry sqrt(pi)/(x^(2l+3) Gamma(l+3/2)) and the
    # Gamma(m+2l+5/2)/Gamma(m+l+3/2) ratio; the closed form needs
    # Gamma(m+2l+5/2)/m! and one more 1/Gamma(l+3/2), so adjust per term:
    # Gamma(m+l+3/2)/(m! Gamma(l+3/2)) and the alpha-dependent prefactor.
    m = np.arange(series.N + 1)
    adjust_log = (
        gammaln(m + li + 1.5) - gammaln(m + 1.0) - math.lgamma(li + 1.5)
    )
    half = 0.5 * (alpha + li) + 1.0
    pref = x ** (alpha + li + 2.0) / (2.0 * half)   # net of the x^(2l+3) in weights
    f32 = np.array(
        [specialfn.hyp3f2_terminating(int(mm), float(li), alpha) for mm in m]
    )
    terms = pref * series.weights * np.exp(adjust_log) * f32
    return math.fsum(terms)


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    z, w = roots_legendre(n)
    return z, w


def epsilon_N(series_N: KernelSeries, series_ref: KernelSeries) -> float:
    """L1[0, x] distance between two truncations of the same kernel.

    series_ref (larger N) stands in for the exact kernel; the integral of
    |K_ref - K_N| runs over panels that are doubled until two successive
    composite Gauss estimates agree.  Real-l series are compared on
    [0, t_max_fraction * x].
    """
    if series_N.mode != series_ref.mode:
        raise DomainError("series must share a mode")
    if abs(series_N.x - series_ref.x) > 1e-9 * max(1.0, series_N.x):
        raise DomainError("series must share x")
    hi = min(series_N.t_max_fraction, series_ref.t_max_fraction) * series_N.x
    z16, w16 = _gl_nodes(16)
    panels = max(8, (2 * series_ref.N) // 8)
    prev = None
    for _ in range(7):
        edges = np.linspace(0.0, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        tg = (mid[:, None] + half[:, None] * z16[None, :]).ravel()
        diff = np.abs(kernel_K(series_ref, tg) - kernel_K(series_N, tg))
        est = float(np.sum((half[:, None] * w16[None, :]).ravel() * diff))
        if prev is not None and abs(est - prev) <= 1e-6 * max(est, 1e-300) + 1e-15:
            return est
        prev = est
        panels *= 2
    return est


def poisson_transform(f: Callable, l: float, x: float) -> float:
    """(x^(-l)/(2^(l+1/2) Gamma(l+3/2))) int_0^x (x^2-s^2)^l f(s) ds.

    The endpoint weight (x^2-s^2)^l (degenerate or singular at s = x for
    non-integer or negative l) is absorbed exactly into Gauss-Jacobi nodes
    with weight (1-z)^l on the mapped interval; the node count is doubled
    until two successive estimates agree.

    Maps cos(omega s) to sqrt(pi) Gamma(l+1)/(2 omega^(l+1) Gamma(l+3/2))
    * sqrt(omega x) J_{l+1/2}(omega x).
    """
    if x <= 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    if l <= -1.0:
        raise DomainError(f"need l > -1 for an integrable weight, got {l}")
    const = x ** (l + 1.0) / (2.0 ** (2.0 * l + 1.5) * math.exp(math.lgamma(l + 1.5)))
    prev = None
    n = 48
    while n <= 768:
        z, w = roots_jacobi(n, l, 0.0)
        s = x * (z + 1.0) / 2.0
        g = ((3.0 + z) / 2.0) ** l * np.asarray(f(s), dtype=float)
        val = const * float(np.sum(w * g))
        scale = const * float(np.sum(np.abs(w * g))) + 1e-300
        if prev is not None and abs(val - prev) <= 1e-11 * scale + 1e-15 * abs(val):
            return val
        prev = val
        n *= 2
    raise QuadratureError(
        "Poisson transform did not converge by 768 Gauss-Jacobi nodes "
        "(integrand too oscillatory or rough)"
    )


def apply_transmutation(
    series: KernelSeries,
    y: Callable,
    x: float,
    omega_hint: float | None = None,
) -> float:
    """y(x) + int_0^x K_N(x,t) y(t) dt by Gauss quadrature.

    y must be vectorized: it is called once on the array of quadrature
    nodes and must return an array of the same shape.

    omega_hint, when given, is the dominant oscillation frequency of y;
    past omega x = 50 the integral switches from a single 200-node rule to
    composite panels no longer than pi/omega.

    Real-l kernels are integrated up to t_max_fraction * x only; the
    remaining sliver is covered by a quadratic-in-t^2 interpolation of the
    kernel anchored at the exact diagonal value when the series carries
    goursat_diag, and extrapolated from inside the cutoff otherwise (the
    anchored form is the reliable one).
    """
    if abs(x - series.x) > 1e-9 * max(1.0, series.x):
        raise DomainError(f"series was built at x={series.x}, got x={x}")
    hi = series.t_max_fraction * x

    if omega_hint is not None and abs(omega_hint) * x > 50.0:
        length = math.pi / abs(omega_hint)
        panels = int(math.ceil(hi / length))
        z24, w24 = _gl_nodes(24)
        edges = np.linspace(0.0, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        tg = (mid[:, None] + half[:, None] * z24[None, :]).ravel()
        wg = (half[:, None] * w24[None, :]).ravel()
    else:
        z200, w200 = _gl_nodes(200)
        tg = 0.5 * hi * (z200 + 1.0)
        wg = 0.5 * hi * w200
    kg = kernel_K(series, tg)
    if hi < x:
        t2, w2, k2 = _near_diagonal_tail(series, hi)
        tg, wg, kg = np.r_[tg, t2], np.r_[wg, w2], np.r_[kg, k2]

    yg = np.asarray(y(tg), dtype=float)
    if yg.shape != tg.shape:
        raise DomainError(
            f"y must map the node array of shape {tg.shape} to values of "
            f"the same shape, got {yg.shape}"
        )
    return float(y(x)) + float(np.sum(wg * kg * yg))


def _near_diagonal_tail(series: KernelSeries, hi: float):
    """Nodes, weights and kernel values for int_{hi}^{x} K y dt, with K
    replaced by a quadratic in u = t^2.

    Anchored at (x, goursat_diag) when available; otherwise all three
    interpolation points sit at or below the cutoff and the quadratic is
    extrapolated.
    """
    x = series.x
    if series.goursat_diag is not None:
        tp = np.array([0.96 * hi, hi, x])
        kp = np.append(kernel_K(series, tp[:2]), series.goursat_diag)
    else:
        tp = np.array([0.92 * hi, 0.96 * hi, hi])
        kp = kernel_K(series, tp)
    V = np.vander(tp ** 2, 3, increasing=True)
    coef = np.linalg.solve(V, kp)
    z32, w32 = _gl_nodes(32)
    tg = 0.5 * (hi + x) + 0.5 * (x - hi) * z32
    wg = 0.5 * (x - hi) * w32
    return tg, wg, coef[0] + coef[1] * tg ** 2 + coef[2] * tg ** 4
