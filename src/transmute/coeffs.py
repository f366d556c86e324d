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
routine downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specialfn
from .errors import DomainError, IllConditionedFit
from .oracle import ProblemSetup, regular_solutions

__all__ = ["BetaTable", "unperturbed_term", "compute_beta"]

_RCOND = 1e-13      # relative singular-value cutoff in the least-squares solve
_FREQ_LO = 0.5      # smallest omega*x sample in the collocation sweep
_FREQ_HI = 3.0      # window reaches _FREQ_HI * (2M+3); the highest Legendre
                    # mode needs s past ~2(2M) or its column is evanescent and
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
    # float_power is libm's pow, as for a Python float; the SIMD power
    # ufunc differs from it in the last bit
    amp = (math.exp(math.lgamma(l + 1.5)) * 2.0 ** (l + 0.5)
           * np.float_power(omega, -l - 0.5))
    res = amp * np.sqrt(xa) * specialfn.bessel_j_half(l, omega * xa)
    return float(res) if np.ndim(res) == 0 else res


def compute_beta(
    setup: ProblemSetup, x: float, M: int, freq_count: int | None = None
) -> BetaTable:
    """Fit beta_0..beta_M at x by frequency collocation against the ODE solver.

    The design matrix is A[j, k] = (-1)^k j_{2k}(omega_j x) with omega_j x
    uniformly spaced on [0.5, 3(2M+3)] (well past the turning point of the
    highest column, which keeps the fit conditioned), and the data is
    r_j = u(omega_j, x) - y(omega_j, x), with u from one regular_solutions
    call over the whole sweep.  Columns are scaled to unit norm before the
    rank-revealing least-squares solve.

    When the exact coefficients decay slowly (non-integer l), the trailing
    ~third of the fitted range absorbs the unmodeled tail; fit with degree
    headroom and read only the leading coefficients in that situation.

    Parameters
    ----------
    setup : ProblemSetup
    x : float in (0, b]
    M : int >= 0
        Truncation degree of the Legendre expansion.
    freq_count : int, optional
        Number of frequency samples; defaults to 6(M+1), must be at least
        2(M+1).

    Raises
    ------
    IllConditionedFit
        If the equilibrated design matrix is rank deficient at the 1e-13
        relative singular-value threshold.
    """
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    if freq_count is None:
        freq_count = 6 * (M + 1)
    if freq_count < 2 * (M + 1):
        raise DomainError(
            f"freq_count={freq_count} too small, need at least {2 * (M + 1)}"
        )
    x = float(x)
    if not 0.0 < x <= setup.b * (1.0 + 1e-12):
        raise DomainError(f"x={x} outside (0, b] with b={setup.b}")

    s = np.linspace(_FREQ_LO, _FREQ_HI * (2 * M + 3), freq_count)
    omegas = s / x
    u, _ = regular_solutions(setup, omegas, [x])
    r = u[:, 0] - unperturbed_term(setup.l, omegas, x)

    table = specialfn.spherical_j_table(2 * M, s)
    signs = (-1.0) ** np.arange(M + 1)
    A = (signs[:, None] * table[0::2]).T

    colnorm = np.linalg.norm(A, axis=0)
    colnorm[colnorm == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(A / colnorm, r, rcond=_RCOND)
    if rank < M + 1:
        raise IllConditionedFit(
            f"collocation matrix has rank {rank} < {M + 1}; "
            "increase freq_count or reduce M"
        )
    beta = coef / colnorm
    misfit = np.linalg.norm(A @ beta - r)
    fit_residual = misfit / max(np.linalg.norm(r), 1e-300)
    return BetaTable(
        l=setup.l,
        x=x,
        M=M,
        beta=beta,
        fit_residual=float(fit_residual),
        sum_beta=float(beta.sum()),
    )
