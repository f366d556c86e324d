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
off at t_max_fraction * x.  The weights are assembled in log-magnitude +
sign form and the series summed from the highest index down with
compensation, because the Gamma ratios span many orders of magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

from . import specialfn
from .coeffs import BetaTable
from .errors import DomainError, NearDiagonalError, QuadratureError

__all__ = [
    "KernelSeries",
    "make_kernel_series",
    "kernel_K_integer",
    "kernel_K_real",
    "goursat_series",
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
    evaluation is a plain weighted polynomial sum.  goursat_diag optionally
    carries (1/2) int_0^x q, the exact diagonal value K(x,x); the real-l
    evaluator uses it to anchor its near-diagonal tail estimate.
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


def _recip_gamma_signed(arg: float):
    """(log|1/Gamma(arg)|, sign); sign 0 at the poles (non-positive ints)."""
    if arg > 0.0:
        return -math.lgamma(arg), 1.0
    if abs(arg - round(arg)) < 1e-12:
        return 0.0, 0.0
    s = math.sin(math.pi * arg)
    return -math.lgamma(arg), (1.0 if s > 0.0 else -1.0)


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
        Near-diagonal evaluation cutoff for the real-l series.
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
    weights = np.empty(N + 1)
    for k in range(N + 1):
        lg, sg = _recip_gamma_signed(k - l)
        if sg == 0.0:
            weights[k] = 0.0
            continue
        weights[k] = (-1.0) ** k * sg * math.exp(
            lpref + math.lgamma(k + 1.0) + lg
        ) * beta.beta[k]
    return KernelSeries(
        x=x, l=l, mode="real-l", N=N, weights=weights,
        t_max_fraction=t_max_fraction, goursat_diag=goursat_diag,
    )


def _compensated_dot(weights, rows):
    """sum_m weights[m] * rows[m], highest m first, Neumaier-compensated
    column by column (math.fsum has no column-wise form)."""
    total = np.zeros(rows.shape[1])
    comp = np.zeros_like(total)
    for m in range(weights.size - 1, -1, -1):
        term = weights[m] * rows[m]
        t = total + term
        big = np.abs(total) >= np.abs(term)
        comp += np.where(big, (total - t) + term, (term - t) + total)
        total = t
    return total + comp


def _check_t(series: KernelSeries, t, upper_fraction: float):
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    hi = series.x * upper_fraction
    if np.any(ta < -_T_SLACK * series.x):
        raise DomainError("t must be >= 0")
    if np.any(ta > hi * (1.0 + _T_SLACK)):
        if upper_fraction < 1.0:
            raise NearDiagonalError(
                f"t beyond {upper_fraction} * x: the (x^2-t^2)^(l+1) division "
                "amplifies truncation error near the diagonal"
            )
        raise DomainError("t must lie in [0, x]")
    return np.clip(ta, 0.0, hi)


def kernel_K_integer(series: KernelSeries, t):
    """K_N(x, t) for the integer-l series, t in [0, x].  Vectorized in t."""
    if series.mode != "integer-l":
        raise DomainError("kernel_K_integer requires an integer-l series")
    ta = _check_t(series, t, 1.0)
    x = series.x
    z = 1.0 - 2.0 * (ta / x) ** 2
    rows = specialfn.jacobi_all(series.N, series.l + 0.5, series.l + 1.0, z)
    vals = ta ** (int(series.l) + 1) * _compensated_dot(series.weights, rows)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def kernel_K_real(series: KernelSeries, t):
    """K_N(x, t) for the real-l series, 0 <= t <= t_max_fraction * x.

    Raises NearDiagonalError past the cutoff instead of returning a value
    dominated by amplified truncation error.
    """
    if series.mode != "real-l":
        raise DomainError("kernel_K_real requires a real-l series")
    ta = _check_t(series, t, series.t_max_fraction)
    x, l = series.x, series.l
    z = 1.0 - 2.0 * (ta / x) ** 2
    rows = specialfn.jacobi_all(series.N, l + 0.5, -l - 1.0, z)
    core = _compensated_dot(series.weights, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        pref = np.where(
            ta > 0.0, ta ** (l + 1.0) / (x * x - ta * ta) ** (l + 1.0), 0.0
        )
    vals = pref * core
    return float(vals[0]) if np.ndim(t) == 0 else vals


def kernel_K(series: KernelSeries, t):
    """Mode-dispatching kernel evaluation."""
    if series.mode == "integer-l":
        return kernel_K_integer(series, t)
    return kernel_K_real(series, t)


def goursat_series(series: KernelSeries) -> float:
    """Diagonal value K_N(x, x) by the endpoint closed form.

    Equals ((-1)^(l+1)/x^(l+2)) (sqrt(pi)/Gamma(l+3/2))
    sum_m beta_{m+l+1} (Gamma(m+2l+5/2)/Gamma(m+l+3/2)) C(m+l+1, m),
    and converges to (1/2) int_0^x q as N grows.  Identical, term by term,
    to kernel_K_integer(series, x) via P_m^(a,b)(-1) = (-1)^m C(m+b, m).
    """
    if series.mode != "integer-l":
        raise DomainError("goursat_series requires an integer-l series")
    li = int(series.l)
    x = series.x
    m = np.arange(series.N + 1)
    # series.weights = sign * exp(lpref + ratio) * beta; multiply by the
    # endpoint value (-1)^m C(m+l+1, m) and restore x^(l+1) t-prefactor
    binom_log = (
        gammaln(m + li + 2.0) - gammaln(m + 1.0) - math.lgamma(li + 2.0)
    )
    endpoint = (-1.0) ** m * np.exp(binom_log)
    terms = series.weights * endpoint
    return math.fsum(x ** (li + 1) * terms)


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
    evaluate = kernel_K_integer if series_N.mode == "integer-l" else kernel_K_real
    if series_N.mode == "integer-l":
        hi = series_N.x
    else:
        hi = min(series_N.t_max_fraction, series_ref.t_max_fraction) * series_N.x
    z16, w16 = _gl_nodes(16)
    panels = max(8, (2 * series_ref.N) // 8)
    prev = None
    for _ in range(7):
        edges = np.linspace(0.0, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        tg = (mid[:, None] + half[:, None] * z16[None, :]).ravel()
        diff = np.abs(evaluate(series_ref, tg) - evaluate(series_N, tg))
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


def _call_on_grid(y: Callable, tg: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(y(tg), dtype=float)
        if vals.shape == tg.shape:
            return vals
    except Exception:
        pass
    return np.array([float(y(float(t))) for t in tg])


def apply_transmutation(
    series: KernelSeries,
    y: Callable,
    x: float,
    omega_hint: float | None = None,
) -> float:
    """y(x) + int_0^x K_N(x,t) y(t) dt by Gauss quadrature.

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
    if series.mode == "integer-l":
        evaluate, hi = kernel_K_integer, x
    else:
        evaluate, hi = kernel_K_real, series.t_max_fraction * x

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
    integral = float(np.sum(wg * evaluate(series, tg) * _call_on_grid(y, tg)))

    if series.mode == "real-l" and hi < x:
        integral += _near_diagonal_tail(series, y, hi)
    return float(y(x)) + integral


def _near_diagonal_tail(series: KernelSeries, y: Callable, hi: float) -> float:
    """int_{hi}^{x} K y dt with K replaced by a quadratic in u = t^2.

    Anchored at (x, goursat_diag) when available; otherwise all three
    interpolation points sit at or below the cutoff and the quadratic is
    extrapolated.
    """
    x = series.x
    if series.goursat_diag is not None:
        tp = np.array([0.96 * hi, hi, x])
        kp = np.array([
            kernel_K_real(series, tp[0]),
            kernel_K_real(series, tp[1]),
            series.goursat_diag,
        ])
    else:
        tp = np.array([0.92 * hi, 0.96 * hi, hi])
        kp = kernel_K_real(series, tp)
    V = np.vander(tp ** 2, 3, increasing=True)
    coef = np.linalg.solve(V, kp)
    z32, w32 = _gl_nodes(32)
    tg = 0.5 * (hi + x) + 0.5 * (x - hi) * z32
    wg = 0.5 * (x - hi) * w32
    kq = coef[0] + coef[1] * tg ** 2 + coef[2] * tg ** 4
    return float(np.sum(wg * kq * _call_on_grid(y, tg)))
