"""Special-function kernel: the Jacobi recurrence, half-integer Bessel,
spherical Bessel tables, log-gamma ratios, terminating hypergeometric sums,
the column-wise compensated sum the series evaluators share, and the rule
that decides when l counts as an integer.

All routines are pure functions of their arguments (no caches, no globals)
and accept numpy arrays where it is natural to vectorize.  "Machine
precision" throughout means relative error <= 1e-12 in 64-bit floats.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import jv as _scipy_jv

from .errors import DomainError

__all__ = [
    "INTEGER_L_TOL",
    "is_integer_l",
    "jacobi_all",
    "spherical_j",
    "spherical_j_table",
    "bessel_j_half",
    "gamma_ratio_log",
    "hyp3f2_terminating",
    "compensated_sum",
]

INTEGER_L_TOL = 1e-9   # |l - round(l)| up to this counts as integer l


def is_integer_l(l: float) -> bool:
    """True when l is within INTEGER_L_TOL of a non-negative integer.

    The one test every module uses to choose between the integer-l forms
    (spherical Bessel identity, integer-l kernel series and with it u_N)
    and the general real-l ones.
    """
    n = round(l)
    return abs(l - n) <= INTEGER_L_TOL and n >= 0


_Z_SLACK = 1e-12  # tolerated overshoot of |z| past 1 before raising


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > 1.0 + _Z_SLACK):
        raise DomainError("argument outside [-1, 1]")
    return z


def jacobi_all(degree: int, alpha: float, beta: float, z):
    """Values of P_n^(alpha,beta)(z) for all n = 0..degree.

    Returns an array of shape (degree+1,) + shape(z).  Single recurrence
    pass; the workhorse behind series evaluation.  beta may lie outside
    the classical range (beta <= -1, as in the real-l kernel): such
    polynomials are not orthogonal but satisfy the same recurrence.
    """
    z = _check_z(z)
    out = np.empty((degree + 1,) + z.shape)
    out[0] = 1.0
    if degree == 0:
        return out
    a, b = alpha, beta
    out[1] = 0.5 * ((a + b + 2.0) * z + (a - b))
    # P_n = (A_n z + B_n) P_{n-1} - C_n P_{n-2}; the coefficients for all n
    # at once, so the loop body is one expression per degree
    n = np.arange(2, degree + 1, dtype=float)
    c = 2.0 * n + a + b
    c1 = 2.0 * n * (n + a + b) * (c - 2.0)
    bad = np.flatnonzero(np.abs(c1) < 1e-300)
    if bad.size:
        raise DomainError(
            f"Jacobi recurrence degenerate at n={int(n[bad[0]])} for alpha+beta={a + b}"
        )
    A = ((c - 1.0) * c * (c - 2.0) / c1).tolist()
    B = ((c - 1.0) * (a * a - b * b) / c1).tolist()
    C = (2.0 * (n + a - 1.0) * (n + b - 1.0) * c / c1).tolist()
    for k in range(degree - 1):
        out[k + 2] = (A[k] * z + B[k]) * out[k + 1] - C[k] * out[k]
    return out


# ---------------------------------------------------------------------------
# spherical Bessel functions


def _spherical_forward(nmax, z, out):
    """Upward recurrence, stable for orders <= argument."""
    s, c = np.sin(z), np.cos(z)
    j0 = s / z
    out[0] = j0
    if nmax == 0:
        return
    j1 = s / (z * z) - c / z
    out[1] = j1
    for n in range(1, nmax):
        j0, j1 = j1, (2 * n + 1) / z * j1 - j0
        out[n + 1] = j1


def _spherical_backward(nmax, z, out):
    """Miller's algorithm: downward recurrence from a padded start order,
    normalized against the closed-form j_0 (or j_1 where j_0 nearly
    vanishes).  Columns are rescaled on the fly to dodge overflow."""
    headroom = max(20, int(math.ceil(math.sqrt(40.0 * max(nmax, 1)))))
    start = nmax + headroom
    jp = np.zeros_like(z)          # j_{n+1}, un-normalized
    jc = np.full_like(z, 1e-30)    # j_n
    for n in range(start, 0, -1):
        jm = (2 * n + 1) / z * jc - jp
        big = np.abs(jm) > 1e250
        if np.any(big):
            jm[big] *= 1e-250
            jc[big] *= 1e-250
            out[:, big] *= 1e-250
        if n - 1 <= nmax:
            out[n - 1] = jm
        jp, jc = jc, jm
    s, c = np.sin(z), np.cos(z)
    j0_true = s / z
    j1_true = s / (z * z) - c / z
    use0 = np.abs(out[0]) >= np.abs(out[1]) if nmax >= 1 else np.ones_like(z, bool)
    denom = np.where(use0, out[0], out[1] if nmax >= 1 else out[0])
    truth = np.where(use0, j0_true, j1_true)
    out *= truth / denom


def spherical_j_table(nmax: int, z) -> np.ndarray:
    """Table of spherical Bessel values j_n(z) for n = 0..nmax.

    Parameters
    ----------
    nmax : int
        Largest order required.
    z : array_like, >= 0
        Arguments; may be a scalar or 1-D array.

    Returns
    -------
    ndarray of shape (nmax+1, len(z)).

    Forward recurrence where the argument dominates the order, Miller's
    normalized downward recurrence otherwise; both regimes may be present
    in one call.
    """
    if nmax < 0:
        raise DomainError(f"order must be >= 0, got {nmax}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0):
        raise DomainError("argument must be >= 0")
    out = np.zeros((nmax + 1, z.size))
    zero = z == 0.0
    out[0, zero] = 1.0

    live = ~zero
    fwd = live & (z >= nmax + 1.0)
    bwd = live & ~fwd
    if np.any(fwd):
        sub = np.zeros((nmax + 1, int(fwd.sum())))
        _spherical_forward(nmax, z[fwd], sub)
        out[:, fwd] = sub
    if np.any(bwd):
        sub = np.zeros((nmax + 1, int(bwd.sum())))
        _spherical_backward(nmax, z[bwd], sub)
        out[:, bwd] = sub
    return out


def spherical_j(n: int, z):
    """Spherical Bessel function j_n(z), stable for any order/argument mix."""
    tbl = spherical_j_table(n, z)
    res = tbl[n]
    return float(res[0]) if np.ndim(z) == 0 else res


def bessel_j_half(l: float, z):
    """Bessel function of order l + 1/2.

    Integer l goes through the spherical Bessel identity
    J_{n+1/2}(z) = sqrt(2z/pi) j_n(z); other orders use the library
    series/asymptotic evaluator, which meets the 1e-12 contract for
    z <= 1e3.
    """
    if l < -0.5:
        raise DomainError(f"order parameter must be >= -1/2, got l={l}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError("argument must be >= 0")
    if is_integer_l(l):
        n = int(round(l))
        zz = np.atleast_1d(z)
        res = np.sqrt(2.0 * zz / np.pi) * spherical_j_table(n, zz)[n]
        return float(res[0]) if z.ndim == 0 else res
    res = _scipy_jv(l + 0.5, z)
    return float(res) if z.ndim == 0 else res


# ---------------------------------------------------------------------------
# gamma ratios and terminating hypergeometric sums


def gamma_ratio_log(m, l: float):
    """log(Gamma(m + 2l + 5/2) / Gamma(m + l + 3/2)), vectorized over m.

    Both arguments are positive for m >= 0, l >= -1/2, so the ratio is
    positive and its log difference never overflows (m up to 1e6 and far
    beyond).
    """
    from scipy.special import gammaln

    ma = np.asarray(m, dtype=float)
    return gammaln(ma + 2.0 * l + 2.5) - gammaln(ma + l + 1.5)


def hyp3f2_terminating(m: int, l: float, alpha: float) -> float:
    """Terminating 3F2(-m, 2l+m+5/2, (alpha+l)/2+1; l+3/2, (alpha+l)/2+2; 1).

    The first numerator parameter -m cuts the series after m+1 terms;
    the terms alternate and can cancel heavily, so they are summed with
    math.fsum (correctly rounded).
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if alpha <= -l - 2.0:
        raise DomainError(f"need alpha > -l-2, got alpha={alpha}, l={l}")
    a2 = 2.0 * l + m + 2.5
    a3 = 0.5 * (alpha + l) + 1.0
    b1 = l + 1.5
    b2 = a3 + 1.0
    term = 1.0
    terms = [term]
    for j in range(m):
        term *= ((j - m) * (a2 + j) * (a3 + j)) / ((b1 + j) * (b2 + j) * (j + 1.0))
        terms.append(term)
    return math.fsum(terms)


def compensated_sum(terms) -> np.ndarray:
    """Sums of a 2-D array over axis 0, last row first, compensated column
    by column: the one summation of the truncated series (kernel_K over t,
    u_N over omega).  Each addition's rounding error is recovered exactly
    by Knuth's branch-free TwoSum and accumulated, so the result is
    bit-identical to Neumaier's compare-and-branch form.  math.fsum, which
    has no column-wise form, stays the tool for a single sum of scalars.
    """
    total = np.zeros(terms.shape[1])
    comp = np.zeros_like(total)
    for term in terms[::-1]:
        t = total + term
        tb = t - total
        comp += (total - (t - tb)) + (term - tb)
        total = t
    return total + comp
