"""Self-contained invariant suite for a configured problem.

Five identities that the machinery must satisfy regardless of the
potential, each checked against an independent route (direct quadrature,
the adaptive ODE solver, or a second assembly path through the same
data).  The suite is what ``transmute validate`` runs; tests reuse it
with known-good and deliberately corrupted inputs.

A perturbation hook corrupts one coefficient of each fit on request,
which must make the diagonal (Goursat) check fail -- that is the standard
smoke test that the suite actually measures what it claims to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .coeffs import BetaTable, _beta_fit, _sweep_solutions, compute_beta, unperturbed_term
from .errors import TransmuteError
from .kernel import (
    KernelSeries,
    _gl_nodes,
    apply_transmutation,
    goursat_diagonal,
    kernel_K,
    make_kernel_series,
)
from .oracle import ProblemSetup, regular_solutions
from .solution import integral_row
from .specialfn import is_integer_l, jacobi_all
from .spectral import _d_fit

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float        # measured figure of merit (a normalized error)
    tolerance: float
    detail: str

    def __post_init__(self):
        # numpy scalars sneak in from the comparisons; keep the record
        # plain so it serializes anywhere
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def _perturbed(fit, amount: float):
    """A BetaTable or KernelSeries with coefficient l + 2 (or its last)
    moved by amount * max|coefficients|, at least by amount."""
    name = "beta" if isinstance(fit, BetaTable) else "weights"
    vals = np.array(getattr(fit, name), dtype=float)
    vals[min(int(round(fit.l)) + 2, vals.size - 1)] += amount * max(np.max(np.abs(vals)), 1.0)
    return replace(fit, **{name: vals})


def _goursat_check(setup, series: KernelSeries) -> CheckResult:
    # Absolute tolerance floor so q = 0 (diagonal exactly zero) is judged
    # on the noise it produces, not on a 0/0 ratio.
    got = kernel_K(series, series.x)
    want = goursat_diagonal(setup.q, series.x)
    err = abs(got - want)
    tol = max(1e-3 * abs(want), 1e-8)
    return CheckResult(
        "goursat-diagonal", err <= tol, err, tol,
        f"series diagonal {got:.6e} vs half potential integral {want:.6e} at x={series.x:g}",
    )


def _sum_beta_check(beta) -> CheckResult:
    scale = float(np.max(np.abs(beta.beta)))
    total = abs(float(np.sum(beta.beta)))
    if scale <= 1e-10:
        return CheckResult(
            "coefficient-sum", True, total, 1e-10,
            f"coefficients at the noise floor (max|beta| = {scale:.3e}); "
            "cancellation identity vacuous",
        )
    # The identity sum_k beta_k = 0 holds for the full sequence; a table
    # truncated while |beta_k| is still decaying misses the tail, so
    # allow for it explicitly.  The tail follows the k^-(2l+3) decay law;
    # anchoring the estimate at k* = 0.6 M (trailing entries of a
    # truncated fit absorb the unmodeled tail and are biased low) and
    # adding a safety factor of 4 covers the residuals observed across M.
    # For integer l the decay is superexponential and the 1e-7 floor
    # governs instead.
    p = 2.0 * beta.l + 3.0
    k_star = max(1, int(0.6 * beta.M))
    tail_allowance = (
        4.0 * abs(float(beta.beta[k_star])) * k_star ** p * beta.M ** (1.0 - p) / (p - 1.0)
    )
    tol = max(1e-7 * scale, tail_allowance)
    return CheckResult(
        "coefficient-sum", total <= tol, total, tol,
        f"|sum beta| with max|beta| = {scale:.3e}, "
        f"truncation allowance {tail_allowance:.3e}",
    )


def _transmutation_check(setup, series: KernelSeries) -> CheckResult:
    # T applied to the unperturbed solution must give the regular
    # solution of the perturbed problem, for every omega at once.
    x = series.x
    tol = 1e-6 if series.mode == "integer-l" else 1e-3
    omegas = (1.0, 5.0, 10.0)
    u, u_prime = regular_solutions(setup, omegas, [x])
    worst = 0.0
    for omega, want, slope in zip(omegas, u[:, 0], u_prime[:, 0]):
        y = lambda t, om=omega: unperturbed_term(setup.l, om, t)
        got = apply_transmutation(series, y, x, omega_hint=omega)
        envelope = max(float(np.hypot(want, slope / max(omega, 1.0))), 1e-300)
        worst = max(worst, abs(got - float(want)) / envelope)
    return CheckResult(
        "transmutation-property", worst <= tol, worst, tol,
        f"max over omega in (1,5,10) of |T[y] - u_ode| / envelope at x={x:g}",
    )


def _quadrature_row(li, m_max, omega, x) -> np.ndarray:
    """The integrals of integral_row, s = 0..m_max, by panel Gauss-Legendre
    quadrature: the check's reference.  The Jacobi values P_s^(l+1/2, 0)
    come from one jacobi_all table (pinned to scipy's eval_jacobi) and
    J_{l+1/2}(z) = sqrt(2z/pi) j_l(z) from _spherical_j, so it does not
    share the spherical-Bessel table that integral_row goes through."""
    z24, w24 = _gl_nodes(24)
    # a panel per half wave of the Bessel factor, per 4 degrees of Jacobi
    panels = max(4, 2 * int(np.ceil(omega * x / np.pi)), m_max // 4)
    edges = np.linspace(0.0, x, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * z24[None, :]).ravel()
    w = (half[:, None] * w24[None, :]).ravel()
    zz = 1.0 - 2.0 * (t / x) ** 2
    wt = omega * t
    base = w * t ** (li + 1.5) * np.sqrt(2.0 * wt / np.pi) * _spherical_j(li, wt)
    return jacobi_all(m_max, li + 0.5, 0.0, zz) @ base


def _spherical_j(li: int, z: np.ndarray) -> np.ndarray:
    """j_li(z) for z > 0, the integral-row check's reference.

    j_0 is sin(z)/z (np.sinc).  Above li + 1 j_li comes from the upward
    recurrence j_{k+1} = (2k+1)/z j_k - j_{k-1} from the closed forms of
    j_0 and j_1, below it from Miller's downward recurrence, started from
    f = (0, 1) at order li + 16 + sqrt(40 (li + 1)) and scaled so that
    sum (2k+1) j_k^2 = 1 holds (rescaled on the way down, so that no value
    overflows).  Within 1.4e-14 of max|j| of scipy's spherical_jn for
    li = 1..90 on (0, 100]; starting at li + 10 + sqrt(20 (li + 1)) read
    the same.

    It shares no code with specialfn.spherical_j_table, which integral_row
    reads: that table runs from its top order down, normalizes by j_0 or
    j_1 and switches method at its top order + 1, so over most arguments
    the two take different routes.
    """
    if li == 0:
        return np.sinc(z / np.pi)
    out = np.empty_like(z)
    up = z >= li + 1.0
    zu = z[up]
    sin_z = np.sin(zu) / zu
    j_prev, j = sin_z, (sin_z - np.cos(zu)) / zu
    for k in range(1, li):
        j_prev, j = j, (2 * k + 1) / zu * j - j_prev
    out[up] = j
    zd = z[~up]
    top = li + 16 + int(math.sqrt(40.0 * (li + 1)))
    f_hi, f = np.zeros_like(zd), np.ones_like(zd)
    norm = np.full_like(zd, 2.0 * top + 1.0)
    want = np.zeros_like(zd)
    for k in range(top, 0, -1):   # f becomes f_{k-1}
        f_hi, f = f, (2 * k + 1) / zd * f - f_hi
        norm += (2 * k - 1) * f * f
        if k - 1 == li:
            want = f
        big = np.abs(f) > 1e100
        if big.any():
            scale = np.where(big, 1e-100, 1.0)
            f, f_hi, want, norm = f * scale, f_hi * scale, want * scale, norm * scale * scale
    out[~up] = want / np.sqrt(norm)
    return out


def _integral_row_check(setup, li, M, rng) -> CheckResult:
    # The closed-form integral row versus direct quadrature, up to the
    # longest truncation a fit of size M allows.
    m_top = max(M - li - 1, 1)
    draws = []
    for _ in range(25):   # one spherical-Bessel table for all, cut to each m_max
        m_max, x = int(rng.integers(1, m_top + 1)), float(rng.uniform(0.4, setup.b))
        draws.append((m_max, float(rng.uniform(1.0, 100.0)) / x, x))
    m, omega, x = (np.array(col) for col in zip(*draws))
    worst = 0.0
    for row, (m_max, om, xi) in zip(integral_row(li, int(m.max()), omega, x), draws):
        ref = _quadrature_row(li, m_max, om, xi)
        scale = max(np.max(np.abs(ref)), 1e-300)
        worst = max(worst, np.max(np.abs(row[: m_max + 1] - ref)) / scale)
    tol = 1e-9
    return CheckResult(
        "integral-row-vs-quadrature", worst <= tol, worst, tol,
        f"25 random (omega, x, m_max <= {m_top}) draws, row-normalized",
    )


def _reduction_check(beta1, rng) -> CheckResult:
    # Same coefficient table pushed through the two kernel assemblies;
    # at integer l they must agree wherever the general form is defined.
    # The identity holds for any coefficient vector, and coefficient by
    # coefficient, so a table fitted at another l serves once relabelled
    # to l = 1, and both series take the whole of it.
    int_series = make_kernel_series(beta1, beta1.M - 2, mode="integer-l")
    real_series = make_kernel_series(beta1, beta1.M, mode="real-l", t_max_fraction=0.9)
    t = rng.uniform(0.0, 0.9, 50) * beta1.x
    a = kernel_K(int_series, t)
    worst = np.max(np.abs(a - kernel_K(real_series, t))) / max(np.max(np.abs(a)), 1e-300)
    tol = 1e-8
    return CheckResult(
        "integer-reduction", worst <= tol, worst, tol,
        "two kernel assemblies from one coefficient table at l=1, 50 draws",
    )


def run_validation(
    setup: ProblemSetup,
    M: int = 22,
    seed: int = 0,
    beta_perturbation: float = 0.0,
) -> List[CheckResult]:
    """Run the five-check invariant suite; returns one result per check.

    Checks needing integer l (kernel diagonal, integral row) run at
    round(l) when l is integer, at l=1 otherwise; the reduction check
    always runs at l=1, where the two kernel assemblies overlap, on the
    integer-l beta table relabelled.  Each l takes one oracle sweep at
    x = b, the sweep of a size-M fit, which feeds both compute_beta's
    table and the weighted fit of d_0..d_M; the diagonal check, and the
    transmutation check at integer l, read the d series.
    ``beta_perturbation`` corrupts one coefficient of each table and
    series by that fraction of its largest before the checks run (fault
    injection).
    """
    rng = np.random.default_rng(seed)
    integer = is_integer_l(setup.l)
    li = int(round(setup.l)) if integer else 1
    results: List[CheckResult] = []

    setup_int = setup if integer else ProblemSetup(l=1.0, b=setup.b, q=setup.q)
    b = float(setup.b)
    u = _sweep_solutions(setup_int, b, M)   # one sweep, read by both fits
    beta_int, series_int = _beta_fit(setup_int.l, b, M, u), _d_fit(setup_int.l, b, M, u)
    own = beta_int if integer else compute_beta(setup, setup.b, M)
    if beta_perturbation:
        own, beta_int, series_int = (_perturbed(fit, beta_perturbation)
                                     for fit in (own, beta_int, series_int))
    series = series_int if integer else make_kernel_series(
        own, goursat_diag=goursat_diagonal(setup.q, setup.b))

    results.append(_goursat_check(setup_int, series_int))
    results.append(_sum_beta_check(own))
    try:
        results.append(_transmutation_check(setup, series))
    except TransmuteError as exc:  # pragma: no cover - diagnostic path
        results.append(CheckResult("transmutation-property", False, np.inf, 1e-6, str(exc)))
    results.append(_integral_row_check(setup, li, M, rng))
    results.append(_reduction_check(replace(beta_int, l=1.0), rng))
    return results
