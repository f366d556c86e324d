"""Dirichlet spectra via the truncated series representation.

The characteristic function F(omega) = u_N(omega, b) of the Dirichlet
problem on (0, b] is entire in omega, and the truncation error of u_N is
bounded uniformly in omega.  One consequence is worth spelling out: a
single truncation level N serves the *whole* spectrum, so the 200th
eigenvalue costs the same and carries roughly the same absolute error as
the first.  Classical shooting degrades with omega; this representation
does not.

The coefficients d_0..d_N of u_N (N = 20 unless the caller picks it)
come from one weighted least-squares fit at x = b against one oracle
sweep of 3(N+1) frequencies (_fit_series), whose columns are u_N's own
terms.

Roots are located the plain way -- sample F on a grid of a quarter of
pi/b, the asymptotic eigenvalue gap, in one call where the roots are
spaced as expected, then polish all brackets together: one call at ten
Chebyshev-Lobatto nodes inside each, whose interpolant gives a root,
one call either side of it, and a safeguarded regula falsi for the
brackets still open.  Sturm oscillation certifies the
ordinals: the oracle's count of the zeros of u(omega, .) in (0, b] at
the top of the last bracket must equal the number of brackets; if not,
the scan missed roots or some eigenvalues are negative, and a
TransmuteError says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coeffs import _lstsq, _sweep, _sweep_solutions
from .errors import DomainError, TransmuteError
from .kernel import KernelSeries
from .oracle import ProblemSetup, regular_solutions, zero_count
from .solution import series_terms, u_N
from .specialfn import is_integer_l

__all__ = [
    "SpectrumReport",
    "default_fit_size",
    "dirichlet_eigenvalues",
    "oracle_eigenvalues",
    "HARMONIC_L1_EIGENVALUES",
]

_EPS = np.finfo(float).eps
_SERIES_N = 20      # series length S of the fit, d_0..d_S
_CHEB_NODES = 10    # Chebyshev-Lobatto nodes inside each bracket (_polish)

#: Dirichlet eigenvalues of -u'' + (2/x^2 + x^2) u = omega^2 u on (0, pi]
#: (l = 1, q(x) = x^2) for selected indices n; digits verified against an
#: independent high-precision shooting computation.  The CLI's spectrum
#: table compares against them for this particular problem.
HARMONIC_L1_EIGENVALUES = {
    1: 2.24366651120741,
    2: 3.09030600792814,
    5: 5.78188700721372,
    10: 10.6472529934013,
    20: 20.5753329357456,
    50: 50.5305689586825,
    100: 100.515359633269,
    200: 200.507698855317,
}


def default_fit_size(l: float) -> int:
    """Default size M of compute_beta's table (the beta command, and the
    kernel command at non-integer l).

    For integer l the coefficients hit the noise floor around index
    l + 15, so max(25, 2l + 16) fits past it with a margin.  Non-integer
    l decays only like k^-(2l+3); 60 keeps the truncated tail small
    without making the fit expensive.
    """
    if is_integer_l(l):
        return max(25, 2 * int(round(l)) + 16)
    return 60


@dataclass(frozen=True)
class SpectrumReport:
    """First eigenvalues of the Dirichlet problem, with provenance.

    Parameters
    ----------
    eigenvalues : ndarray
        omega_1 < omega_2 < ... (strictly increasing).
    brackets : ndarray, shape (count, 2)
        Scan bracket (lo, hi) that isolated each root; F changes sign
        across every bracket and the refined root lies inside it.
    residuals : ndarray
        |F(omega_n)| after refinement.
    N_used : int
        Truncation level of the kernel series behind F.
    """

    eigenvalues: np.ndarray
    brackets: np.ndarray
    residuals: np.ndarray
    N_used: int

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        br = np.asarray(self.brackets, dtype=float)
        rs = np.asarray(self.residuals, dtype=float)
        if ev.ndim != 1 or br.shape != (ev.size, 2) or rs.shape != ev.shape:
            raise DomainError("inconsistent report shapes")
        if ev.size and np.any(np.diff(ev) <= 0):
            raise DomainError("eigenvalues must be strictly increasing")
        if np.any(ev < br[:, 0]) or np.any(ev > br[:, 1]):
            raise DomainError("each eigenvalue must lie inside its bracket")
        for name, arr in (("eigenvalues", ev), ("brackets", br), ("residuals", rs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# scanning and refinement


def _bracket_roots(f: Callable, count: int, h: float, gap: float, block: int = 4096):
    """First `count` sign-change brackets of f on the grid h, 2h, 3h, ...

    ``f`` maps an array of frequencies to its values; each block of the
    grid takes one call.  A block has room for the roots still missing and
    one more, ``gap / h`` samples each (``gap`` is the roots' expected
    spacing, pi/b on (0, b]), and at most ``block`` samples, so a scan
    whose roots are spaced as expected takes one call and stops soon after
    its last root.
    Bracket collection is sequential so ordinals stay correct, and a
    non-finite value raises (taking it for either sign could hide a root).
    Returns a list of (lo, hi, f_lo, f_hi).
    """
    if not h > 0:
        raise DomainError(f"h_scan must be > 0, got {h}")
    brackets = []
    g_prev = f_prev = None
    j0 = 1
    while len(brackets) < count:
        size = min(block, math.ceil((count - len(brackets) + 1) * gap / h))
        grid = h * np.arange(j0, j0 + size)
        if grid[-1] > 1e6:
            raise TransmuteError(
                f"root scan passed omega = 1e6 with {len(brackets)} of "
                f"{count} roots found; characteristic function looks wrong"
            )
        vals = _checked(f, grid)
        for g, v in zip(grid.tolist(), vals.tolist()):
            if v == 0.0:
                # Exact zero on a grid node: nudge the node so the root
                # falls strictly inside a sign-change bracket.
                g = g + 1e-9 * h
                v = float(_checked(f, np.array([g]))[0])
            if f_prev is not None and (v < 0.0) != (f_prev < 0.0):
                brackets.append((g_prev, g, f_prev, v))
                if len(brackets) == count:
                    break
            g_prev, f_prev = g, v
        j0 += size
    return brackets


def _checked(f: Callable, omega: np.ndarray) -> np.ndarray:
    """f(omega); TransmuteError naming the first omega where it is not finite."""
    vals = f(omega)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise TransmuteError(f"characteristic function is {vals[bad][0]} at "
                             f"omega = {float(omega[bad][0])!r}")
    return vals


def _secant(a, b, fa, fb, margin=0.0):
    """Secant point of each bracket, at least ``margin`` inside it but not
    past its midpoint, which also replaces a secant point outside it."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    c = b - fb * (b - a) / (fb - fa)
    c = np.where((c >= lo) & (c <= hi), c, 0.5 * (lo + hi))
    margin = np.minimum(margin, 0.5 * (hi - lo))
    return np.clip(c, lo + margin, hi - margin)


def _polish(f: Callable, brackets, maxiter: int = 200) -> np.ndarray:
    """Roots of f in every (lo, hi, f_lo, f_hi) bracket, refined together.

    Round 1 calls f at ten Chebyshev-Lobatto nodes inside every bracket
    and takes the root r of their interpolant (Boyd, SIAM J. Numer. Anal.
    40, 2002) where its nodes' values change sign; more than one sign
    change raises TransmuteError (the scan missed roots).  Round 2 calls f
    at r -/+ half a stopping width, which closes most brackets.  The rest
    go on in Anderson-Bjorck regula falsi (BIT 13, 1973) from the tightest
    bracket found, one call per iteration for all of them.  When the new
    point keeps the sign of the previous one, the value used for the
    retained end is scaled by 1 - f_new/f_prev (1/2 if that is not
    positive), so neither end stalls.  New points stay half a stopping
    width inside the bracket, so an iterate already that close to the root
    is straddled next.  A bracket closes on f == 0 or width <= 1e-12 +
    4 eps |omega|; its root is the secant point through the true end values.
    """
    # b: latest iterate; a: the opposite-signed end; g: f(a) as scaled
    a, b, fa, fb, live = _two_rounds(f, *(np.array(col, dtype=float) for col in zip(*brackets)))
    g = fa.copy()
    for it in range(maxiter + 1):
        tol = 1e-12 + 4.0 * _EPS * np.abs(b)
        live &= (np.abs(b - a) > tol) & (fb != 0.0)
        i = np.flatnonzero(live)
        if i.size == 0:
            return _secant(a, b, fa, fb)
        if it == maxiter:
            lo, hi = sorted((float(a[i[0]]), float(b[i[0]])))
            raise TransmuteError(f"root polish did not converge in {maxiter} "
                                 f"iterations; bracket [{lo!r}, {hi!r}] is still open")
        c = _secant(a[i], b[i], g[i], fb[i], 0.5 * tol[i])
        fc = _checked(f, c)
        flip = (fc < 0.0) != (fb[i] < 0.0)
        scale = np.where(fc / fb[i] < 1.0, 1.0 - fc / fb[i], 0.5)
        a[i], fa[i], g[i] = (np.where(flip, b[i], a[i]), np.where(flip, fb[i], fa[i]),
                             np.where(flip, fb[i], g[i] * scale))
        b[i], fb[i] = c, fc


def _two_rounds(f: Callable, lo, hi, f_lo, f_hi):
    """_polish's rounds 1 and 2: per bracket (a, b, f(a), f(b), open), the
    tightest sign change found, b a round-2 point, open False if closed.
    Round 1's root comes from Newton's iteration on the interpolant in
    barycentric form (Berrut & Trefethen, SIAM Rev. 46, 2004), kept inside
    a bracket of its sign change and off the nodes."""
    n = _CHEB_NODES + 1
    x = 0.5 * (lo + hi)[:, None] - 0.5 * (hi - lo)[:, None] * np.cos(np.pi * np.arange(n + 1) / n)
    x[:, 0], x[:, -1] = lo, hi   # the ends keep their values
    v = np.column_stack([f_lo, _checked(f, x[:, 1:-1].ravel()).reshape(-1, n - 1), f_hi])
    change = (v[:, 1:] < 0.0) != (v[:, :-1] < 0.0)
    many = np.flatnonzero(change.sum(axis=1) != 1)
    if many.size:
        k = many[0]
        raise TransmuteError(f"F changes sign {change[k].sum()} times in the bracket "
                             f"[{float(lo[k])!r}, {float(hi[k])!r}]: the scan missed roots")
    rows, j = np.arange(lo.size), np.argmax(change, axis=1)
    a, b, fa, fb = x[rows, j], x[rows, j + 1], v[rows, j], v[rows, j + 1]
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    ra, rb, r = a, b, _secant(a, b, fa, fb, 1e-3 * (b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(16):
            d = 1.0 / (r[:, None] - x)
            c = w * d
            p = (c * v).sum(axis=1) / c.sum(axis=1)
            step = r - p * c.sum(axis=1) / (c * d * (p[:, None] - v)).sum(axis=1)
            right = (p < 0.0) == (fa < 0.0)   # the root lies past r
            ra, rb = np.where(right, r, ra), np.where(right, rb, r)
            ok = (step >= ra) & (step <= rb) & (step > a) & (step < b)
            r, last = np.where(ok, step, 0.5 * (ra + rb)), r
            if np.all(np.abs(r - last) <= 4.0 * _EPS * np.abs(r)):
                break
    half = 0.5 * (1e-12 + 4.0 * _EPS * np.abs(r))
    p1, p2 = np.maximum(r - half, a), np.minimum(r + half, b)
    f1, f2 = np.split(_checked(f, np.concatenate([p1, p2])), 2)
    closed, past = (f1 < 0.0) != (f2 < 0.0), (f2 < 0.0) == (fa < 0.0)   # past: beyond p2
    return (np.where(closed, p1, np.where(past, b, a)), np.where(closed | past, p2, p1),
            np.where(closed, f1, np.where(past, fb, fa)), np.where(closed | past, f2, f1),
            ~closed)


def _scan(setup: ProblemSetup, F: Callable, count: int, h_scan: Optional[float]):
    """First `count` brackets of F on the grid pi/(4b) (or h_scan), their
    ordinals certified by Sturm's count at the top of the last one."""
    h = math.pi / (4.0 * setup.b) if h_scan is None else float(h_scan)
    brackets = _bracket_roots(F, count, h, math.pi / setup.b)
    top = brackets[-1][1]
    sturm = zero_count(setup, top)
    if sturm != count:
        why = ("roots were missed or lie below zero" if sturm > count
               else "some are spurious")
        raise TransmuteError(f"{count} roots found below omega = {top:.6g}, "
                             f"Sturm count {sturm}: {why}")
    return brackets


# ---------------------------------------------------------------------------
# eigenvalue solvers


def _whole(name: str, value, least: int) -> int:
    """value as an int; DomainError unless it is an integer (an integral
    float too) >= least."""
    try:
        ok = float(value).is_integer() and value >= least   # NaN fails too
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _fit_series(setup: ProblemSetup, S: int, x: Optional[float] = None) -> KernelSeries:
    """The integer-l series d_0..d_S at x in (0, b], by default b, fitted
    to the oracle's u on compute_beta's sweep of sample_count(S) values
    omega x (_d_fit).  IllConditionedFit below full rank."""
    x = setup.b if x is None else float(x)
    return _d_fit(setup.l, x, S, _sweep_solutions(setup, x, S))


def _d_fit(l: float, x: float, S: int, u: np.ndarray) -> KernelSeries:
    """d_0..d_S from the oracle's u on the sweep _sweep(S)/x, taken to
    u_N's normalization, less the free term y.  |u| spans many decades at
    large l, so each row is weighted by 1/max(|u|, |y|), and solved as
    compute_beta solves (coeffs._lstsq); these are the NSBF coefficients
    of Kravchenko, Navarro and Torba (Appl. Math. Comput. 314, 2017)."""
    l = int(round(l))
    om = _sweep(S) / x
    # u ~ x^(l+1) at the origin; u_N ~ (omega x)^(l+1) / (2^(l+1/2) Gamma(l+3/2))
    u = u * np.exp((l + 1) * np.log(om) - (l + 0.5) * math.log(2.0) - math.lgamma(l + 1.5))
    y, A = series_terms(l, S, om, x)
    w = 1.0 / np.maximum(np.abs(u), np.abs(y))
    d = _lstsq(A * w[:, None], (u - y) * w,
               f"weighted fit of d_0..d_{S} has rank {{rank}} < {{cols}}")
    return KernelSeries(x=x, l=float(l), mode="integer-l", N=S, weights=d)


def dirichlet_eigenvalues(
    setup: ProblemSetup,
    count: int,
    N: Optional[int] = None,
    *,
    series: Optional[KernelSeries] = None,
    h_scan: Optional[float] = None,
) -> SpectrumReport:
    """First `count` positive zeros of F(omega) = u_N(omega, b).

    The coefficients d_0..d_N are fitted at x = b (_fit_series) or taken
    from ``series``, and the scan/refine machinery above locates the roots.
    Refinement tightens each bracket until its width is below 1e-12 +
    4 eps omega.  Raises TransmuteError if Sturm's count disagrees with the
    scan (missed or negative eigenvalues).  On q == 20, b = pi, 40 roots
    are within 5e-12 at l = 0 and 7e-13 for l = 2..30; on q == 50, l = 0
    and 1, 30 roots within 8e-8.

    Parameters
    ----------
    setup : ProblemSetup
        Problem data; l must be a nonnegative integer (u_N, behind F,
        exists for integer l only).
    count : int
        Number of eigenvalues, >= 1.
    N : int, optional
        Series length of the fit, >= 0; default 20.  count and N may be
        integral floats; any other value raises DomainError.
    series : KernelSeries, optional
        An integer-l series at x = setup.b to use instead of the fit
        (mutually exclusive with N).
    h_scan : float, optional
        Scan step; default pi/(4b).

    Returns
    -------
    SpectrumReport
    """
    count = _whole("count", count, 1)
    if not is_integer_l(setup.l):
        raise DomainError(
            f"Dirichlet solver needs a nonnegative integer l, got {setup.l}; "
            "the truncated series representation exists for integer l only"
        )
    if series is None:
        series = _fit_series(setup, _whole("N", _SERIES_N if N is None else N, 0))
    elif N is not None:
        raise DomainError("pass either a series or its length N, not both")
    elif (series.mode != "integer-l" or abs(series.x - setup.b) > 1e-9 * setup.b
          or abs(series.l - setup.l) > 1e-9):
        raise DomainError("series is not an integer-l series for this (l, x = b)")
    b = setup.b

    def F(omega: np.ndarray) -> np.ndarray:
        return u_N(series, omega, b)

    brackets = _scan(setup, F, count, h_scan)
    roots = _polish(F, brackets)
    return SpectrumReport(
        eigenvalues=roots,
        brackets=np.array([[br[0], br[1]] for br in brackets]),
        residuals=np.abs(F(roots)),
        N_used=series.N,
    )


def oracle_eigenvalues(
    setup: ProblemSetup,
    count: int,
    which: Optional[Sequence[int]] = None,
    h_scan: Optional[float] = None,
) -> dict:
    """Reference eigenvalues by direct shooting on the ODE solver.

    Scans the same grid as the series solver but evaluates the regular
    solution at x = b with the adaptive integrator, so the result is
    independent of the series representation in every ingredient.  Much
    slower -- each sample is a full ODE solve, batched into one
    regular_solutions call per scan block or polish step (on q == 20, four
    ordinals up to 49 take one scan call and the polish's two rounds) -- hence
    ``which`` lets the caller refine only selected ordinals (the scan
    counts the sign changes up to the largest one, and Sturm's count
    certifies those ordinals as dirichlet_eigenvalues does).

    Returns {n: omega_n} for the requested ordinals.  count and the
    ordinals take integers or integral floats, as dirichlet_eigenvalues
    does; anything else raises DomainError.
    """
    count = _whole("count", count, 1)
    b = setup.b

    def F(omega: np.ndarray) -> np.ndarray:
        return regular_solutions(setup, omega, [b])[0][:, 0]

    wanted = sorted({_whole("ordinal", n, 1) for n in which} if which is not None
                    else range(1, count + 1))
    if not wanted or wanted[-1] > count:
        raise DomainError("requested ordinals must lie in [1, count]")
    brackets = _scan(setup, F, wanted[-1], h_scan)
    picked = [brackets[n - 1] for n in wanted]
    roots = _polish(F, picked)
    return {n: float(r) for n, r in zip(wanted, roots)}
