"""Truncated-series evaluation of the integral kernel K(x, t).

The kernel of the Volterra operator mapping the free regular solution to
the perturbed one, T[y](x) = y(x) + int_0^x K(x,t) y(t) dt, is expanded
over Jacobi polynomials in z = 1 - 2 t^2/x^2.  Two forms are provided:

* integer l >= 0:
    K(x,t) = t^(l+1) sum_s d_s(x) P_s^(l+1/2, 0)(z),   d = C^T c,
    c_m = (sqrt(pi)/(x^(2l+3) Gamma(l+3/2))) (-1)^(m+l+1)
          * (Gamma(m+2l+5/2)/Gamma(m+l+3/2)) beta_{m+l+1}(x),
  where c are the weights of the paper's P_m^(l+1/2, l+1) series and C
  connects that basis to P_s^(l+1/2, 0) (_connection);

* real l > -1/2:
    K(x,t) = (t^(l+1)/(x^2-t^2)^(l+1)) sum_k c_k(x) P_k^(l+1/2, -l-1)(z),
    c_k = (sqrt(pi)/(Gamma(l+3/2) x)) (-1)^k (k!/Gamma(k-l)) beta_k(x),

the latter valid away from the diagonal t = x, where the division by
(x^2 - t^2)^(l+1) amplifies truncation error; evaluation is therefore cut
off at t_max_fraction * x < x.  One evaluator, kernel_K, serves both: the
series' mode picks the second Jacobi parameter, the t prefactor and the
cutoff.  The integer-l series reaches the diagonal, where K_N(x, x)
converges to the Goursat value (1/2) int_0^x q (goursat_diagonal).  In
its basis each term integrates against the free solution to one Bessel
function (solution.integral_row) and against t^alpha to one ratio of
Pochhammer symbols (kernel_moment).  The integer-l Gamma ratio is a finite product
of half-integers; the real-l weights are assembled in log-magnitude +
sign form.  Both series are summed from the highest index down with
compensation, because the weights span many orders of magnitude.

make_kernel_series maps a BetaTable into either form.  Its integer-l
series needs an explicit length N, as its weights grow with m and a whole
table's trailing noise would swamp the kernel; the real-l series keeps the
whole table unless N is given.  The integer-l series the kernel and
validate commands read is not this one but the weighted fit of d itself
(spectral._fit_series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import specialfn
from .coeffs import BetaTable
from .errors import DomainError, QuadratureError

__all__ = [
    "KernelSeries",
    "goursat_diagonal",
    "make_kernel_series",
    "kernel_K",
    "kernel_moment",
    "epsilon_N",
    "apply_transmutation",
]

_T_SLACK = 1e-12
# most panels apply_transmutation lays: |omega_hint| x = 2000 pi, the
# oracle's validated range, takes 2000
_MAX_PANELS = 4096


@dataclass(frozen=True)
class KernelSeries:
    """Immutable truncated kernel series at a fixed x.

    weights holds the fully combined coefficients, d_0..d_N of
    P_s^(l+1/2, 0) for integer l and c_0..c_N of P_k^(l+1/2, -l-1) for
    real l (everything except the t-dependent prefactor and the Jacobi
    polynomial), so evaluation is a plain weighted polynomial sum.
    t_max_fraction is the evaluation cutoff: 1 for the integer-l series,
    below 1 for the real-l one, which is singular at t = x.  goursat_diag
    optionally carries (1/2) int_0^x q, the exact diagonal value K(x,x);
    the real-l transmutation integral uses it to anchor its near-diagonal
    tail.

    K_N(x, .) does not depend on the function it is applied to, so the
    fixed quadrature rule of apply_transmutation (nodes, weights and
    kernel values, tail included) is computed on first use and kept, read
    only, for the life of the series.
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
        if not 0.0 < self.x < math.inf:   # NaN fails too
            raise DomainError(f"x must be finite and > 0, got {self.x}")
        if self.goursat_diag is not None and not math.isfinite(self.goursat_diag):
            raise DomainError(f"goursat_diag must be finite, got {self.goursat_diag}")
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

    @cached_property
    def quadrature(self):
        """(nodes, weights, K_N values) of the 200-node Gauss-Legendre rule
        on [0, t_max_fraction * x], followed by the near-diagonal tail's
        for a real-l series; read-only arrays."""
        hi = self.t_max_fraction * self.x
        z200, w200 = _gl_nodes(200)
        rule = _with_kernel(self, hi, 0.5 * hi * (z200 + 1.0), 0.5 * hi * w200)
        for a in rule:
            a.setflags(write=False)
        return rule


def goursat_diagonal(q: Callable, x: float) -> float:
    """The Goursat value K(x, x) = (1/2) int_0^x q(t) dt, by 120-node
    Gauss-Legendre: plenty for smooth q, even a table-interpolated one."""
    z, w = _gl_nodes(120)
    t = 0.5 * x * (z + 1.0)
    return float(0.25 * x * np.dot(w, np.asarray(q(t), dtype=float)))


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
    N : int
        Truncation index, at most M - l - 1 in integer-l mode (the series
        consumes beta_{m+l+1}) and M in real-l mode.  Required in
        integer-l mode, where a missing N raises DomainError: the weights
        grow with m, so entries past the fit's noise floor would swamp the
        kernel.  Defaults to the whole table, N = M, in real-l mode.
    mode : {"auto", "integer-l", "real-l"}
        "auto" picks integer-l whenever specialfn.is_integer_l(l) holds,
        that is, l lies within 1e-9 of a non-negative integer.  The real-l
        weights take k!/Gamma(k - l) from the product recurrence r_{k+1} =
        r_k (k + 1)/(k - l), started from math.lgamma at k = 0, or past
        the poles k - l = 0, -1, ... of an integer l, where they are zero:
        the log form rounded |lgamma| in the hundreds (1e-13 relative at
        M = 100), the recurrence keeps them within 2e-14.  Any l > -1/2 is
        accepted, an integer too: the reduction check builds both series
        at l = 1, whose poles are k = 0 and k = 1.  DomainError where a
        weight is not finite.
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
    if N is not None and not float(N).is_integer():   # NaN fails too
        raise DomainError(f"N must be an integer, got {N}")
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
            raise DomainError(f"an integer-l series needs its length N, "
                              f"at most {n_max} for M={beta.M}")
        N = int(N)
        if not 0 <= N <= n_max:
            raise DomainError(f"N={N} outside [0, {n_max}] for M={beta.M}")
        lpref = 0.5 * math.log(math.pi) - (2 * li + 3) * math.log(x) \
            - math.lgamma(li + 1.5)
        m = np.arange(N + 1)
        sign = (-1.0) ** (m + li + 1)
        c = sign * math.exp(lpref) * specialfn.gamma_ratio(m, li) \
            * beta.beta[m + li + 1]
        weights = _connection(li, N).T @ c
        return KernelSeries(
            x=x, l=float(li), mode=mode, N=N, weights=weights,
            t_max_fraction=1.0, goursat_diag=goursat_diag,
        )

    if mode != "real-l":
        raise DomainError(f"unknown mode {mode!r}")

    N = beta.M if N is None else int(N)
    if not 0 <= N <= beta.M:
        raise DomainError(f"N={N} outside [0, {beta.M}]")
    # r_k = (-1)^k sqrt(pi) k! / (Gamma(l + 3/2) Gamma(k - l) x), zero at
    # the poles k - l = 0, -1, ..., k < k0, of Gamma(k - l); its first
    # nonzero value folds the prefactor into one exp, whose argument stays
    # moderate where Gamma(l + 3/2) alone overflows (l > 170)
    k0 = int(round(l)) + 1 if abs(l - round(l)) < 1e-12 else 0
    a = k0 - l
    arg = (0.5 * math.log(math.pi) - math.lgamma(l + 1.5) - math.log(x)
           + math.lgamma(k0 + 1.0) - math.lgamma(a))
    r = (-1.0) ** (k0 + (math.ceil(-a) if a < 0.0 else 0)) \
        * (math.exp(arg) if arg < 709.0 else math.inf)
    weights = np.zeros(N + 1)
    for k in range(k0, N + 1):
        weights[k] = r * beta.beta[k]
        r *= -(k + 1.0) / (k - l)
    return KernelSeries(
        x=x, l=l, mode="real-l", N=N, weights=weights,
        t_max_fraction=t_max_fraction, goursat_diag=goursat_diag,
    )


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


def _check_t(series: KernelSeries, t):
    """t as a 1-D array clipped to [0, t_max_fraction * x]; DomainError
    past either end by more than the slack, or for a NaN t.  A scalar is
    checked in Python floats (a pointwise kernel_K call would spend more
    on numpy's checks than on its series); its clip gives np.clip's value."""
    hi = series.x * series.t_max_fraction
    if isinstance(t, (int, float)):
        tf = float(t)
        if not tf >= -_T_SLACK * series.x:   # NaN fails too
            raise DomainError(f"t must be >= 0, got {tf:g}")
        if tf > hi * (1.0 + _T_SLACK):
            _beyond(series)
        return np.array([min(max(tf, 0.0), hi)])
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    low = ta >= -_T_SLACK * series.x
    if not np.all(low):   # NaN fails too
        raise DomainError(f"t must be >= 0, got {ta[np.argmin(low)]:g}")
    if np.any(ta > hi * (1.0 + _T_SLACK)):
        _beyond(series)
    return np.clip(ta, 0.0, hi)


def _beyond(series: KernelSeries):
    """The DomainError for a t past the series' cutoff."""
    if series.t_max_fraction < 1.0:
        raise DomainError(
            f"t beyond {series.t_max_fraction} * x: the (x^2-t^2)^(l+1) "
            "division amplifies truncation error near the diagonal"
        )
    raise DomainError("t must lie in [0, x]")


def kernel_K(series: KernelSeries, t):
    """K_N(x, t) for 0 <= t <= t_max_fraction * x.  Vectorized in t.

    Past the cutoff of a real-l series it raises DomainError instead of
    returning a value dominated by amplified truncation error.
    """
    ta = _check_t(series, t)
    x, l = series.x, series.l
    z = 1.0 - 2.0 * (ta / x) ** 2
    if series.mode == "integer-l":
        rows = specialfn.jacobi_all(series.N, l + 0.5, 0.0, z)
        pref = ta ** (int(l) + 1)
    else:
        rows = specialfn.jacobi_all(series.N, l + 0.5, -l - 1.0, z)
        pref = ta ** (l + 1.0) / (x * x - ta * ta) ** (l + 1.0)
    vals = pref * specialfn.compensated_sum(series.weights[:, None] * rows)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def kernel_moment(series: KernelSeries, alpha: float) -> float:
    """int_0^x t^alpha K_N(x,t) dt in closed form, valid for alpha > -l-2.

    With sigma = (alpha+l)/2 + 1 each P_s^(l+1/2, 0) term gives a balanced
    terminating 3F2, which Pfaff-Saalschuetz (DLMF 16.4.3) sums to

        (x^(alpha+l+2)/2) sum_s d_s (l+3/2-sigma)_s / (sigma)_(s+1).

    At l=0, alpha=1 the moment collapses to beta_0(x).
    """
    if series.mode != "integer-l":
        raise DomainError("kernel_moment requires an integer-l series")
    li = int(series.l)
    if not alpha > -li - 2.0:   # NaN fails too
        raise DomainError(f"need alpha > {-li - 2}, got {alpha}")
    sigma = 0.5 * (alpha + li) + 1.0
    s = np.arange(series.N)
    ratio = np.cumprod(np.r_[1.0 / sigma, (li + 1.5 - sigma + s) / (sigma + 1.0 + s)])
    return 0.5 * series.x ** (alpha + li + 2.0) * math.fsum(series.weights * ratio)


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, the
    package's one source: read-only arrays, as every caller of a size
    shares them.

    The positive nodes come from Newton's method on P_n, evaluated by its
    three-term recurrence, from x_k = cos(pi (k - 1/4) / (n + 1/2)); the
    negative ones mirror them, so the rule is symmetric.  The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.  At n = 200 the
    nodes agree with scipy's roots_legendre to half an ulp of 1 and the
    weights with mpmath's to 1e-16 (scipy 1.17's end weight is 8e-15 off).
    """
    half = n - n // 2
    x = np.cos(math.pi * (np.arange(1, half + 1) - 0.25) / (n + 0.5))
    for _ in range(10):   # four or five steps from this start
        p, dp = _legendre_and_slope(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-13:   # squared, the next is rounding
            break
    if n % 2:
        x[-1] = 0.0
    dp = _legendre_and_slope(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    mid = n % 2   # an odd rule's node 0 appears once
    nodes, weights = np.r_[-x, x[::-1][mid:]], np.r_[w, w[::-1][mid:]]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _legendre_and_slope(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), x in (-1, 1), by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


def epsilon_N(series_N: KernelSeries, series_ref: KernelSeries) -> float:
    """L1[0, x] distance between two truncations of the same kernel.

    series_ref (larger N) stands in for the exact kernel; the two must
    share mode, l and x.  Both share the t prefactor, so K_ref - K_N is
    one series whose weights are the difference of theirs.  Its modulus
    has a kink at every sign change, where composite Gauss rules
    converge slowly, so [0, x] is split at those zeros: they are
    bracketed on 4(N+1) points uniform in theta, z = cos(theta), where
    the zeros of a degree-N Jacobi sum are about evenly spaced, and
    bisected all together to 1e-9 x.  Each smooth piece is integrated by
    16-node Gauss panels, doubled until two successive estimates agree
    to 1e-6.  Real-l series are compared on [0, t_max_fraction * x].

    Raises
    ------
    QuadratureError
        If the seventh estimate still disagrees with the sixth.
    """
    if series_N.mode != series_ref.mode:
        raise DomainError("series must share a mode")
    if abs(series_N.l - series_ref.l) > 1e-9:
        raise DomainError(f"series must share l, got {series_N.l} and {series_ref.l}")
    if abs(series_N.x - series_ref.x) > 1e-9 * max(1.0, series_N.x):
        raise DomainError("series must share x")
    x = series_N.x
    frac = min(series_N.t_max_fraction, series_ref.t_max_fraction)
    n = max(series_N.N, series_ref.N)
    weights = np.zeros(n + 1)
    weights[: series_ref.N + 1] = series_ref.weights
    weights[: series_N.N + 1] -= series_N.weights
    delta = KernelSeries(x=x, l=series_N.l, mode=series_N.mode, N=n,
                         weights=weights, t_max_fraction=frac)
    hi = frac * x

    # t = x sin(theta / 2) maps theta in (0, pi] onto z = cos(theta)
    theta = np.linspace(0.0, 2.0 * math.asin(frac), 4 * (n + 1) + 1)[1:]
    ts = np.minimum(x * np.sin(0.5 * theta), hi)
    ds = kernel_K(delta, ts)
    k = np.flatnonzero(np.signbit(ds[:-1]) != np.signbit(ds[1:]))
    a, b, da = ts[k], ts[k + 1], ds[k]
    while a.size and np.max(b - a) > 1e-9 * x:
        m = 0.5 * (a + b)
        dm = kernel_K(delta, m)
        right = np.signbit(dm) == np.signbit(da)    # the zero lies in [m, b]
        a, da = np.where(right, m, a), np.where(right, dm, da)
        b = np.where(right, b, m)
    edges = np.r_[0.0, 0.5 * (a + b), hi]
    width = np.diff(edges)

    z16, w16 = _gl_nodes(16)
    panels = 1
    est = None
    for _ in range(7):
        half = (0.5 / panels) * width[:, None, None]
        mid = edges[:-1, None, None] + (2.0 * np.arange(panels)[:, None] + 1.0) * half
        tg = mid + half * z16
        diff = np.abs(kernel_K(delta, tg.ravel())).reshape(tg.shape)
        prev, est = est, float(np.sum(half * w16 * diff))
        if prev is not None and abs(est - prev) <= 1e-6 * max(est, 1e-300) + 1e-15:
            return est
        panels *= 2
    raise QuadratureError(
        f"epsilon_N did not converge in 7 passes over {width.size} pieces: "
        f"last two estimates {prev:.6e} and {est:.6e}"
    )


def apply_transmutation(
    series: KernelSeries,
    y: Callable,
    x: float,
    omega_hint: float | None = None,
) -> float:
    """y(x) + int_0^x K_N(x,t) y(t) dt by Gauss quadrature.

    y must be vectorized: it is called once, on the array of quadrature
    nodes with x appended, and must return an array of the same shape.
    The array is read-only; a y that writes into its argument raises.

    omega_hint, when given, is the dominant oscillation frequency of y;
    past omega x = 50 the integral switches from a single 200-node rule to
    composite panels no longer than pi/omega, at most _MAX_PANELS of
    them.  DomainError, before any node is laid, for an x that is NaN or
    not the series', a NaN or infinite omega_hint, or one that asks for
    more panels than that.  The single rule and the
    kernel values on it are evaluated once per series
    (KernelSeries.quadrature) and reused by every later call; the panels
    depend on omega and are evaluated on each call.

    Real-l kernels are integrated up to t_max_fraction * x only; the
    remaining sliver is covered by a quadratic-in-t^2 interpolation of the
    kernel anchored at the exact diagonal value when the series carries
    goursat_diag, and extrapolated from inside the cutoff otherwise (the
    anchored form is the reliable one).
    """
    if not abs(x - series.x) <= 1e-9 * max(1.0, series.x):   # NaN fails too
        raise DomainError(f"series was built at x={series.x}, got x={x}")
    if omega_hint is not None and not math.isfinite(omega_hint):
        raise DomainError(f"omega_hint must be finite, got {omega_hint}")

    if omega_hint is not None and abs(omega_hint) * x > 50.0:
        hi = series.t_max_fraction * x
        length = math.pi / abs(omega_hint)
        if hi / length > _MAX_PANELS:
            raise DomainError(f"omega_hint={omega_hint} needs more than "
                              f"{_MAX_PANELS} panels of pi/omega_hint on [0, {hi:g}]")
        panels = int(math.ceil(hi / length))
        z24, w24 = _gl_nodes(24)
        edges = np.linspace(0.0, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        tg = (mid[:, None] + half[:, None] * z24[None, :]).ravel()
        wg = (half[:, None] * w24[None, :]).ravel()
        tg, wg, kg = _with_kernel(series, hi, tg, wg)
    else:
        tg, wg, kg = series.quadrature

    nodes = np.append(tg, x)
    nodes.setflags(write=False)
    yg = np.asarray(y(nodes), dtype=float)
    if yg.shape != nodes.shape:
        raise DomainError(
            f"y must map the node array of shape {nodes.shape} to values of "
            f"the same shape, got {yg.shape}"
        )
    return float(yg[-1]) + float(np.sum(wg * kg * yg[:-1]))


def _with_kernel(series: KernelSeries, hi: float, tg, wg):
    """The rule (tg, wg) on [0, hi] with K_N at its nodes, extended past a
    cutoff hi < x by the near-diagonal tail."""
    kg = kernel_K(series, tg)
    if hi < series.x:
        t2, w2, k2 = _near_diagonal_tail(series, hi)
        return np.r_[tg, t2], np.r_[wg, w2], np.r_[kg, k2]
    return tg, wg, kg


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
