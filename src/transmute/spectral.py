"""Dirichlet spectra via the truncated series representation.

The characteristic function F(omega) = u_N(omega, b) of the Dirichlet
problem on (0, b] is entire in omega, and the truncation error of u_N is
bounded uniformly in omega.  One consequence is worth spelling out: a
single truncation level N serves the *whole* spectrum, so the 200th
eigenvalue costs the same and carries roughly the same absolute error as
the first.  Classical shooting degrades with omega; this representation
does not.

Roots are located the plain way -- sample F on a grid of a quarter of
pi/b, the asymptotic eigenvalue gap, then polish all brackets together
with a safeguarded regula falsi.  Sturm oscillation certifies the
ordinals: the oracle's count of the zeros of u(omega, .) in (0, b] at
the top of the last bracket must equal the number of brackets; if not,
the scan missed roots or some eigenvalues are negative, and a
TransmuteError says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .coeffs import BetaTable, compute_beta
from .errors import DomainError, TransmuteError
from .kernel import make_kernel_series
from .oracle import ProblemSetup, regular_solutions, zero_count
from .solution import u_N
from .specialfn import is_integer_l

__all__ = [
    "SpectrumReport",
    "choose_N",
    "default_fit_size",
    "dirichlet_eigenvalues",
    "oracle_eigenvalues",
    "HARMONIC_L1_EIGENVALUES",
]

_STALL_RATIO = 0.9   # |beta_{k+1}|/|beta_k| at or above this counts as "not decaying"
_STALL_RUN = 3       # consecutive non-decaying ratios that define a stall
_EPS = np.finfo(float).eps

#: Dirichlet eigenvalues of -u'' + (2/x^2 + x^2) u = omega^2 u on (0, pi]
#: (l = 1, q(x) = x^2) for selected indices n; digits verified against an
#: independent high-precision shooting computation.  Used as the reference
#: column of the spectrum report for this particular problem.
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
    """Fit size M that comfortably reaches the decay stall.

    For integer l the coefficients hit the noise floor around index
    l + 15, so max(25, 2l + 16) leaves the stall detector a margin on
    both sides.  Non-integer l decays only like k^-(2l+3); 60 keeps the
    truncated tail small without making the fit expensive.
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
    reference_errors : dict or None
        {n: |omega_n - reference_n|} for whichever indices a reference
        value was supplied.
    """

    eigenvalues: np.ndarray
    brackets: np.ndarray
    residuals: np.ndarray
    N_used: int
    reference_errors: Optional[dict] = None

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


def choose_N(beta: BetaTable) -> int:
    """Truncation level read off the decay profile of the coefficients.

    |beta_k| decays geometrically until the sequence reaches the noise
    floor of the fit, after which the ratios hover around one.  The
    series gains nothing past that point.  Raw consecutive ratios are a
    poor stall detector -- on a noise plateau they scatter on both sides
    of one -- so the test runs on the 3-wide running maximum
    W_k = max(|beta_k|, ..., |beta_{k+2}|): while the sequence decays,
    W_{k+1}/W_k equals the raw decay ratio, and on a plateau the
    overlapping windows pin the ratio near one.  The stall index k0 is
    the start of the first run of ``_STALL_RUN`` consecutive window
    ratios >= ``_STALL_RATIO``, and the returned level N = k0 - l - 1
    makes the evaluator consume coefficients up to index k0 and no
    further.  If the decay never stalls, all available coefficients are
    used (N = M - l - 1).

    Requires ``beta.M >= 5``; a shorter table has no profile to read.
    """
    if beta.M < 5:
        raise DomainError(f"need M >= 5 to read a decay profile, got M={beta.M}")
    shift = int(round(beta.l)) + 1
    a = np.abs(beta.beta)
    win = np.array([a[k:k + 3].max() for k in range(beta.M - 1)])
    k0 = beta.M
    run = 0
    for k in range(int(np.argmax(a)), win.size - 1):
        num, den = win[k + 1], win[k]
        if num == 0.0 and den == 0.0:
            ratio = 1.0
        elif den == 0.0:
            ratio = math.inf
        else:
            ratio = num / den
        if ratio >= _STALL_RATIO:
            run += 1
            if run == _STALL_RUN:
                k0 = k - (_STALL_RUN - 1)
                break
        else:
            run = 0
    return int(max(0, min(k0 - shift, beta.M - shift)))


# ---------------------------------------------------------------------------
# scanning and refinement


def _bracket_roots(f: Callable, count: int, h: float, block: int = 96):
    """First `count` sign-change brackets of f on the grid h, 2h, 3h, ...

    ``f`` maps an array of frequencies to its values; each block of the
    grid takes one call.  Bracket collection is sequential so ordinals stay
    correct, and a non-finite value raises (taking it for either sign could
    hide a root).  Returns a list of (lo, hi, f_lo, f_hi).
    """
    if not h > 0:
        raise DomainError(f"h_scan must be > 0, got {h}")
    brackets = []
    g_prev = f_prev = None
    j0 = 1
    while len(brackets) < count:
        grid = h * np.arange(j0, j0 + block)
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
        j0 += block
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

    Anderson-Bjorck regula falsi (BIT 13, 1973): each iteration calls f
    once, at the secant points of all open brackets.  When the new point
    keeps the sign of the previous one, the value used for the retained
    end is scaled by 1 - f_new/f_prev (1/2 if that is not positive), so
    neither end stalls.  New points stay half a stopping width inside the
    bracket, so an iterate already that close to the root is straddled
    next.  A bracket closes on f == 0 or width <= 1e-12 + 4 eps |omega|;
    its root is the secant point through the true end values.
    """
    # b: latest iterate; a: the opposite-signed end; g: f(a) as scaled
    a, b, fa, fb = (np.array(col, dtype=float) for col in zip(*brackets))
    g = fa.copy()
    live = np.ones(a.size, dtype=bool)
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


def _scan(setup: ProblemSetup, F: Callable, count: int, h_scan: Optional[float]):
    """First `count` brackets of F on the grid pi/(4b) (or h_scan), their
    ordinals certified by Sturm's count at the top of the last one."""
    h = math.pi / (4.0 * setup.b) if h_scan is None else float(h_scan)
    brackets = _bracket_roots(F, count, h)
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


def dirichlet_eigenvalues(
    setup: ProblemSetup,
    count: int,
    N: Optional[int] = None,
    *,
    M: Optional[int] = None,
    freq_count: Optional[int] = None,
    beta: Optional[BetaTable] = None,
    references: Optional[Mapping[int, float]] = None,
    h_scan: Optional[float] = None,
) -> SpectrumReport:
    """First `count` positive zeros of F(omega) = u_N(omega, b).

    The coefficient table is fitted at x = b (or taken from ``beta`` if
    the caller already has one), the truncation level is chosen from its
    decay profile unless ``N`` is given, and the scan/refine machinery
    above locates the roots.  Refinement tightens each bracket until its
    width is below 1e-12 + 4 eps omega.  Raises TransmuteError if Sturm's
    count disagrees with the scan (missed or negative eigenvalues).

    Parameters
    ----------
    setup : ProblemSetup
        Problem data; l must be a nonnegative integer (u_N, behind F,
        exists for integer l only).
    count : int
        Number of eigenvalues, >= 1.
    N : int, optional
        Truncation level override.
    M : int, optional
        Fit size override; default max(25, 2l + 16).  The fit is not
        weighted, so the values degrade fast with l: on q == 20, b = pi,
        the first 40 roots are off by up to 3.9e-6 at l = 2 and 1.0e-2
        at l = 5.
    freq_count, h_scan : optional
        Forwarded to the fit / scan; defaults as documented there.
    beta : BetaTable, optional
        Reuse a coefficient table fitted at x = setup.b (skips the fit;
        mutually exclusive with M and freq_count).
    references : mapping, optional
        {n: reference value}; matching indices are reported with
        absolute errors in the result.

    Returns
    -------
    SpectrumReport
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not is_integer_l(setup.l):
        raise DomainError(
            f"Dirichlet solver needs a nonnegative integer l, got {setup.l}; "
            "the truncated series representation exists for integer l only"
        )
    if beta is not None:
        if M is not None or freq_count is not None:
            raise DomainError("pass either a beta table or fit sizes, not both")
        if abs(beta.x - setup.b) > 1e-9 * setup.b or abs(beta.l - setup.l) > 1e-9:
            raise DomainError("beta table was fitted for a different (l, x)")
    else:
        if M is None:
            M = default_fit_size(setup.l)
        beta = compute_beta(setup, setup.b, M, freq_count=freq_count)
    if N is None:
        N = choose_N(beta)
    series = make_kernel_series(beta, N)
    b = setup.b

    def F(omega: np.ndarray) -> np.ndarray:
        return u_N(series, omega, b)

    brackets = _scan(setup, F, count, h_scan)
    roots = _polish(F, brackets)
    residuals = np.abs(F(roots))

    ref_err = None
    if references is not None:
        ref_err = {
            int(n): abs(roots[int(n) - 1] - float(v))
            for n, v in references.items()
            if 1 <= int(n) <= count
        }
    return SpectrumReport(
        eigenvalues=roots,
        brackets=np.array([[br[0], br[1]] for br in brackets]),
        residuals=residuals,
        N_used=int(N),
        reference_errors=ref_err,
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
    regular_solutions call per scan block or polish step -- hence
    ``which`` lets the caller refine only selected ordinals (the scan
    counts the sign changes up to the largest one, and Sturm's count
    certifies those ordinals as dirichlet_eigenvalues does).

    Returns {n: omega_n} for the requested ordinals.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    b = setup.b

    def F(omega: np.ndarray) -> np.ndarray:
        return regular_solutions(setup, omega, [b])[0][:, 0]

    wanted = sorted({int(n) for n in which} if which is not None else range(1, count + 1))
    if not wanted or wanted[0] < 1 or wanted[-1] > count:
        raise DomainError("requested ordinals must lie in [1, count]")
    brackets = _scan(setup, F, wanted[-1], h_scan)
    picked = [brackets[n - 1] for n in wanted]
    roots = _polish(F, picked)
    return {n: float(r) for n, r in zip(wanted, roots)}
