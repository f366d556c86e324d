"""Legendre coefficients of the cosine-kernel representation.

The normalized regular solution admits the representation

    u(omega, x) = y(omega, x) + int_0^x R(x, t) cos(omega t) dt,

with y the free (q == 0) term and R(x, .) expanded in even Legendre
polynomials:

    R(x, t) = sum_{k<=M} (beta_k(x) / x) P_{2k}(t / x).

Under the cosine integral each Legendre mode turns into a spherical Bessel
function, int_0^x P_{2k}(t/x) cos(omega t) dt = (-1)^k x j_{2k}(omega x),
so sampling u - y over a sweep of frequencies yields an overdetermined
linear system for the beta_k.  compute_beta performs that fit against the
ODE solver; the resulting BetaTable feeds every kernel and eigenvalue
routine downstream.  The system's matrix depends only on the sweep, not on
q, l or x, so it is built once per sweep and kept read-only (_collocation);
only the least-squares solve runs for every fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specialfn
from .errors import DomainError, IllConditionedFit
from .oracle import ProblemSetup, regular_solutions

__all__ = ["BetaTable", "unperturbed_term", "compute_beta", "sample_count"]

_RCOND = 1e-13      # relative singular-value cutoff in the least-squares solve
_FREQ_LO = 0.5      # smallest omega*x sample in the collocation sweep
_FREQ_HI = 3.0      # window reaches _FREQ_HI * (2n+3); the highest Legendre
                    # mode needs s past ~2(2n) or its column is evanescent and
                    # the fit ill-conditioned (cond 4e10 at M=100 with a 2x
                    # window vs 5e6 with 3x)


@dataclass(frozen=True)
class BetaTable:
    """Fitted coefficients beta_0..beta_M of R(x, .) at one value of x.

    fit_residual is the l2 collocation residual relative to the norm of the
    sampled data; sum_beta records sum_k beta_k, which vanishes for the
    exact coefficients (R(x, x) = 0) and serves as a convergence diagnostic.
    """

    l: float
    x: float
    M: int
    beta: np.ndarray
    fit_residual: float
    sum_beta: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (self.M + 1,):
            raise ValueError(
                f"beta must have shape ({self.M + 1},), got {beta.shape}"
            )
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def unperturbed_term(l: float, omega: float, x):
    """Free term y(omega, x) = Gamma(l+3/2) 2^(l+1/2) omega^(-l-1/2) sqrt(x) J_{l+1/2}(omega x).

    Reduces to sin(omega x)/omega at l = 0 and behaves like x^(l+1) as
    omega -> 0 at fixed x.  Vectorized over omega and x (broadcast); a
    float when both are scalars.  omega must be > 0.
    """
    if not np.all(np.asarray(omega) > 0):
        raise DomainError(f"omega must be > 0, got {omega}")
    xa = np.asarray(x, dtype=float)
    if specialfn.is_integer_l(l):   # as the Bessel factor and the oracle take it
        l = float(round(l))
    # float_power is libm's pow, as for a Python float; the SIMD power
    # ufunc differs from it in the last bit
    amp = (math.exp(math.lgamma(l + 1.5)) * 2.0 ** (l + 0.5)
           * np.float_power(omega, -l - 0.5))
    res = amp * np.sqrt(xa) * specialfn.bessel_j_half(l, omega * xa)
    return float(res) if np.ndim(res) == 0 else res


def sample_count(n: int) -> int:
    """Collocation frequencies of a fit of n+1 coefficients, 3(n+1): data and
    columns are entire of exponential type x in omega, so samples pi/x apart
    (~2 per coefficient) carry them, but at that spacing the spectrum's fit
    of q == 50, l = 0 is off by 1.5e-2; 3 per coefficient fit as well as 6."""
    return 3 * (n + 1)


def _sweep(n: int) -> np.ndarray:
    """omega*x of a fit of n+1 coefficients; callers divide by x."""
    return np.linspace(_FREQ_LO, _FREQ_HI * (2 * n + 3), sample_count(n))


def _lstsq(A: np.ndarray, r: np.ndarray, message: str) -> np.ndarray:
    """Least-squares solution of A c = r, A's columns scaled to unit norm
    before the rank-revealing solve at the relative singular-value cutoff
    _RCOND; IllConditionedFit below full rank, with message formatted with
    the rank and the column count (rank, cols).  Both fits solve here."""
    colnorm = np.linalg.norm(A, axis=0)
    colnorm[colnorm == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(A / colnorm, r, rcond=_RCOND)
    if rank < A.shape[1]:
        raise IllConditionedFit(message.format(rank=rank, cols=A.shape[1]))
    return coef / colnorm


def compute_beta(setup: ProblemSetup, x: float, M: int) -> BetaTable:
    """Fit beta_0..beta_M at x by frequency collocation against the ODE solver.

    The design matrix is A[j, k] = (-1)^k j_{2k}(omega_j x) with the
    sample_count(M) = 3(M+1) values omega_j x uniformly spaced on
    [0.5, 3(2M+3)] (well past the turning point of the highest column,
    which keeps the fit conditioned), and the data is
    r_j = u(omega_j, x) - y(omega_j, x), with u from one regular_solutions
    call over the whole sweep.  A depends on the sweep alone, not on q, l
    or x, and is built once per sweep; columns are scaled to unit norm
    before the rank-revealing least-squares solve, which runs every call.

    When the exact coefficients decay slowly (non-integer l), the trailing
    ~third of the fitted range absorbs the unmodeled tail; fit with degree
    headroom and read only the leading coefficients in that situation.

    Parameters
    ----------
    setup : ProblemSetup
    x : float in (0, b]
    M : int >= 0
        Truncation degree of the Legendre expansion.

    Raises
    ------
    IllConditionedFit
        If the equilibrated design matrix is rank deficient at the 1e-13
        relative singular-value threshold.
    """
    return _beta_fit(setup.l, float(x), M, _sweep_solutions(setup, x, M))


def _sweep_solutions(setup: ProblemSetup, x: float, n: int) -> np.ndarray:
    """The oracle's u(omega, x) over the sweep _sweep(n)/x of a fit of n+1
    coefficients, from one regular_solutions call; DomainError for n < 0
    or an x outside (0, b].  Both fits read it, and validation hands one
    sweep to both."""
    if n < 0:
        raise DomainError(f"M must be >= 0, got {n}")
    x = float(x)
    if not 0.0 < x <= setup.b * (1.0 + 1e-12):
        raise DomainError(f"x={x} outside (0, b] with b={setup.b}")
    return regular_solutions(setup, _sweep(n) / x, [x])[0][:, 0]


@lru_cache(maxsize=8)
def _collocation(M: int, sweep: bytes) -> np.ndarray:
    """The read-only matrix A[j, k] = (-1)^k j_2k(s_j) of a fit of M+1
    coefficients on the sweep s whose float64 bytes are sweep.  Keyed on the
    sweep's values, so a changed sample_count or _FREQ_HI builds its own."""
    table = specialfn.spherical_j_table(2 * M, np.frombuffer(sweep))
    signs = (-1.0) ** np.arange(M + 1)
    A = (signs[:, None] * table[0::2]).T
    A.setflags(write=False)
    return A


def _beta_fit(l: float, x: float, M: int, u: np.ndarray) -> BetaTable:
    """compute_beta's table from the oracle's u on the sweep _sweep(M)/x,
    against the sweep's one collocation matrix."""
    s = _sweep(M)
    r = u - unperturbed_term(l, s / x, x)
    A = _collocation(M, s.tobytes())

    beta = _lstsq(A, r, "collocation matrix has rank {rank} < {cols}; reduce M")
    misfit = np.linalg.norm(A @ beta - r)
    fit_residual = misfit / max(np.linalg.norm(r), 1e-300)
    return BetaTable(
        l=l,
        x=x,
        M=M,
        beta=beta,
        fit_residual=float(fit_residual),
        sum_beta=float(beta.sum()),
    )
