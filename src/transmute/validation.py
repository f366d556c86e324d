"""Self-contained invariant suite for a configured problem.

Three identities of the problem that the kernel must satisfy, each
checked against an independent route: the Goursat diagonal
K(x, x) = (1/2) int_0^x q against quadrature of q, the transmutation
property T[y] = u against the adaptive ODE solver, and the vanishing
coefficient sum that R(x, x) = 0 implies.  The suite is what
``transmute validate`` runs; tests reuse it with known-good and
deliberately corrupted inputs.

A perturbation hook corrupts one coefficient of each fit on request,
which must make the diagonal (Goursat) check fail -- that is the standard
smoke test that the suite actually measures what it claims to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .coeffs import BetaTable, _beta_fit, _sweep_solutions, compute_beta, unperturbed_term
from .errors import TransmuteError
from .kernel import (
    KernelSeries,
    apply_transmutation,
    goursat_diagonal,
    kernel_K,
    make_kernel_series,
)
from .oracle import ProblemSetup, regular_solutions
from .specialfn import is_integer_l
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
    try:
        u, u_prime = regular_solutions(setup, omegas, [x])
        worst = 0.0
        for omega, want, slope in zip(omegas, u[:, 0], u_prime[:, 0]):
            y = lambda t, om=omega: unperturbed_term(setup.l, om, t)
            got = apply_transmutation(series, y, x, omega_hint=omega)
            envelope = max(float(np.hypot(want, slope / max(omega, 1.0))), 1e-300)
            worst = max(worst, abs(got - float(want)) / envelope)
    except TransmuteError as exc:
        return CheckResult("transmutation-property", False, np.inf, tol, str(exc))
    return CheckResult(
        "transmutation-property", worst <= tol, worst, tol,
        f"max over omega in (1,5,10) of |T[y] - u_ode| / envelope at x={x:g}",
    )


def run_validation(
    setup: ProblemSetup,
    M: int = 22,
    seed: int = 0,
    beta_perturbation: float = 0.0,
) -> List[CheckResult]:
    """Run the three-check invariant suite; returns one result per check.

    The diagonal check needs integer l and runs at l itself when l is
    integer, at l = 1 otherwise.  That l takes one oracle sweep at x = b,
    the sweep of a size-M fit, which feeds the weighted fit of d_0..d_M
    and, at integer l, compute_beta's table; at real l the table is
    compute_beta's at l itself.  The diagonal check, and the
    transmutation check at integer l, read the d series; the
    coefficient-sum check reads the table.  ``beta_perturbation``
    corrupts one coefficient of the table and of the series by that
    fraction of its largest before the checks run (fault injection).
    No check draws random numbers: ``seed`` is accepted and ignored.
    """
    integer = is_integer_l(setup.l)
    setup_int = setup if integer else ProblemSetup(l=1.0, b=setup.b, q=setup.q)
    b = float(setup.b)
    u = _sweep_solutions(setup_int, b, M)   # one sweep, read by both fits at integer l
    series_int = _d_fit(setup_int.l, b, M, u)
    beta = _beta_fit(setup.l, b, M, u) if integer else compute_beta(setup, setup.b, M)
    if beta_perturbation:
        beta, series_int = (_perturbed(fit, beta_perturbation) for fit in (beta, series_int))
    series = series_int if integer else make_kernel_series(
        beta, goursat_diag=goursat_diagonal(setup.q, setup.b))
    return [
        _goursat_check(setup_int, series_int),
        _sum_beta_check(beta),
        _transmutation_check(setup, series),
    ]
