"""Special-function kernel: the Jacobi recurrence, Bessel functions of
order l + 1/2 (spherical Bessel tables for integer l; module bessel for
the rest), the integer-l gamma ratio, the column-wise compensated sum the
series evaluators share, and the rule that decides when l counts as an
integer.  numpy and math are the only dependencies.

All routines are pure functions of their arguments and accept numpy arrays
where it is natural to vectorize; the only state is lru_caches of
coefficient tables that depend on degrees and orders alone.  "Machine
precision" throughout means relative error <= 1e-12 in 64-bit floats.

jacobi_all and compensated_sum take inputs of at most _NARROW points or
columns point by point in Python floats, where numpy's per-call cost
would dominate, and wider ones with one numpy call per degree or row.
The two paths make the same IEEE operations in the same order, so a
value does not depend on the width of the call that computed it.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "INTEGER_L_TOL",
    "is_integer_l",
    "jacobi_all",
    "spherical_j_table",
    "bessel_j_half",
    "gamma_ratio",
    "compensated_sum",
]

INTEGER_L_TOL = 1e-9   # |l - round(l)| up to this counts as integer l


def is_integer_l(l: float) -> bool:
    """True when l is within INTEGER_L_TOL of a non-negative integer.

    The one test every module uses to choose between the integer-l forms
    (spherical Bessel identity, integer-l kernel series and with it u_N)
    and the general real-l ones.
    """
    if not -0.5 < l < math.inf:   # NaN fails too
        return False
    return abs(l - round(l)) <= INTEGER_L_TOL


_Z_SLACK = 1e-12  # tolerated overshoot of |z| past 1 before raising

# widest input that jacobi_all and compensated_sum evaluate point by point
# in Python floats instead of one numpy call per degree or row.  A numpy
# call costs about the same at any small width, a Python-float step grows
# with the width; the paths cross at 16-20 points for jacobi_all and 24-28
# columns for compensated_sum (degree 11-60, one core of a 2-vCPU VM),
# and this is the lower crossover
_NARROW = 16


def _size(name, n) -> int:
    """n as an int; DomainError unless it is an integer >= 0."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer >= 0, got {n!r}") from None
    if n < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {n}")
    return n


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) <= 1.0 + _Z_SLACK):   # NaN fails too
        raise DomainError("argument outside [-1, 1]")
    return z


@lru_cache(maxsize=64)
def _jacobi_recurrence(degree: int, a: float, b: float):
    """A_n, B_n, C_n of P_n = (A_n z + B_n) P_{n-1} - C_n P_{n-2} for
    n = 2..degree, as tuples: formed once per (degree, alpha, beta), since a
    pointwise kernel_K call needs them every time, and all at once, so the
    recurrence's loop body is one expression per degree."""
    n = np.arange(2, degree + 1, dtype=float)
    c = 2.0 * n + a + b
    c1 = 2.0 * n * (n + a + b) * (c - 2.0)
    bad = np.flatnonzero(np.abs(c1) < 1e-300)
    if bad.size:
        raise DomainError(
            f"Jacobi recurrence degenerate at n={int(n[bad[0]])} for alpha+beta={a + b}"
        )
    return (tuple(((c - 1.0) * c * (c - 2.0) / c1).tolist()),
            tuple(((c - 1.0) * (a * a - b * b) / c1).tolist()),
            tuple((2.0 * (n + a - 1.0) * (n + b - 1.0) * c / c1).tolist()))


def jacobi_all(degree: int, alpha: float, beta: float, z):
    """Values of P_n^(alpha,beta)(z) for all n = 0..degree.

    Returns an array of shape (degree+1,) + shape(z).  Single recurrence
    pass; the workhorse behind series evaluation.  beta may lie outside
    the classical range (beta <= -1, as in the real-l kernel): such
    polynomials are not orthogonal but satisfy the same recurrence.

    At most _NARROW points run the recurrence point by point in Python
    floats, more run it one numpy call per degree; both paths make the
    same IEEE operations in the same order and give the same bits, but
    the narrow one overflows to inf without numpy's RuntimeWarning.
    """
    degree = _size("degree", degree)
    z = _check_z(z)
    a, b = float(alpha), float(beta)
    A, B, C = _jacobi_recurrence(degree, a, b)
    if z.size <= _NARROW:
        cols = []
        for x in z.ravel().tolist():
            p0, p1 = 1.0, 0.5 * ((a + b + 2.0) * x + (a - b))
            col = [p0, p1]
            for Ak, Bk, Ck in zip(A, B, C):
                p0, p1 = p1, (Ak * x + Bk) * p1 - Ck * p0
                col.append(p1)
            cols.append(col[: degree + 1])
        return np.array(cols).T.reshape((degree + 1,) + z.shape)
    out = np.empty((degree + 1,) + z.shape)
    out[0] = 1.0
    if degree == 0:
        return out
    out[1] = 0.5 * ((a + b + 2.0) * z + (a - b))
    for k in range(degree - 1):
        out[k + 2] = (A[k] * z + B[k]) * out[k + 1] - C[k] * out[k]
    return out


# ---------------------------------------------------------------------------
# spherical Bessel functions


def _ratios(count, z):
    """(2n+1)/z for n = 1..count, one row per order: the recurrences'
    factors in one division, each the same float as formed alone."""
    return np.arange(3.0, 2 * count + 2, 2.0)[:, None] / z


def _spherical_forward(nmax, z, out):
    """Upward recurrence, stable for orders <= argument."""
    s, c = np.sin(z), np.cos(z)
    out[0] = s / z
    if nmax == 0:
        return
    out[1] = s / (z * z) - c / z
    ratio = _ratios(nmax - 1, z)
    tmp = np.empty_like(z)
    for n in range(1, nmax):
        # j_{n+1} = (2n+1)/z j_n - j_{n-1}, formed in place row by row
        np.multiply(ratio[n - 1], out[n], out=tmp)
        np.subtract(tmp, out[n - 1], out=out[n + 1])


def _spherical_backward(nmax, z, out):
    """Miller's algorithm: downward recurrence from a padded start order,
    normalized against the closed-form j_0 (or j_1 where j_0 nearly
    vanishes).  Columns past 1e250 are rescaled on the fly to dodge
    overflow.

    The orders <= nmax are formed in their rows of out, so jc and jm alias
    out there.  No column can pass 1e250 before a running bound on
    max(|j_n|, |j_{n+1}|) does, which grows by at most (2n+1)/min(z) + 1 per
    order, so the overflow test runs only at the orders where the bound
    passes 1e249 (the tenfold margin absorbs the bound's rounding).
    """
    headroom = max(20, int(math.ceil(math.sqrt(40.0 * max(nmax, 1)))))
    start = nmax + headroom
    jp = np.zeros_like(z)          # j_{n+1}, un-normalized
    jc = np.full_like(z, 1e-30)    # j_n
    spare = np.empty_like(z)       # j_{n-1} while n-1 > nmax
    tmp = np.empty_like(z)
    ratio = _ratios(start, z)
    zmin = float(z.min())
    bound = 1e-30
    for n in range(start, 0, -1):
        jm = out[n - 1] if n - 1 <= nmax else spare
        np.multiply(ratio[n - 1], jc, out=tmp)
        np.subtract(tmp, jp, out=jm)
        bound *= (2 * n + 1) / zmin + 1.0
        if bound > 1e249:
            big = np.abs(jm) > 1e250
            if np.any(big):
                # each array once: out's rows from n-1 on hold jm, and jc
                # if n <= nmax (the slice is empty while n-1 > nmax)
                out[n - 1:, big] *= 1e-250
                if n - 1 > nmax:
                    jm[big] *= 1e-250
                if n > nmax:
                    jc[big] *= 1e-250
            bound = float(np.maximum(np.abs(jm), np.abs(jc)).max())
            if math.isnan(bound):   # a column overflowed: test every order
                bound = math.inf
        if n - 1 > nmax:
            spare = jp                 # j_{n+1} is not needed again
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
    z : array_like, finite and >= 0
        Arguments; may be a scalar or 1-D array.

    Returns
    -------
    ndarray of shape (nmax+1, len(z)).

    Forward recurrence where the argument dominates the order, Miller's
    normalized downward recurrence otherwise, and below z = 1e-50, where
    Miller's start would overflow, the leading term z^n/(2n+1)!!, exact
    to rounding there; all regimes may be present in one call.
    """
    nmax = _size("order", nmax)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all((z >= 0.0) & (z < math.inf)):
        raise DomainError("argument must be finite and >= 0")
    out = np.zeros((nmax + 1, z.size))
    zero = z == 0.0
    out[0, zero] = 1.0

    tiny = ~zero & (z < 1e-50)
    if np.any(tiny):
        # j_n = j_{n-1} z/(2n+1) underflows to 0 quietly
        out[0, tiny] = 1.0
        out[1:, tiny] = np.cumprod(z[tiny] / np.arange(3.0, 2 * nmax + 2, 2.0)[:, None], axis=0)
    fwd = z >= nmax + 1.0
    bwd = ~zero & ~tiny & ~fwd
    if np.any(fwd):
        sub = np.zeros((nmax + 1, int(fwd.sum())))
        _spherical_forward(nmax, z[fwd], sub)
        out[:, fwd] = sub
    if np.any(bwd):
        sub = np.zeros((nmax + 1, int(bwd.sum())))
        _spherical_backward(nmax, z[bwd], sub)
        out[:, bwd] = sub
    return out


def bessel_j_half(l: float, z):
    """Bessel function of order nu = l + 1/2, l >= -1/2, at finite z >= 0.

    Integer l goes through the spherical Bessel identity
    J_{n+1/2}(z) = sqrt(2z/pi) j_n(z).  Other orders go through
    bessel.bessel_j, numpy code imported on first use (integer-l runs never
    compile it): Miller's backward recurrence normalized by Neumann's sum
    below z = max(20, 2 nu), Hankel's expansion and the forward recurrence
    from there on, the leading power term below 1e-100.  Against mpmath at
    nu in [0, 40.3] and 0 <= z <= 1e3 its error stays below 1e-14 of the
    envelope sqrt(2 / (pi max(z, nu))) (7.4e-15 at worst where measured;
    the tests' bound is 1e-13).  Every point, a scalar one too, runs on
    one numpy path and has the same bits whatever the call it comes in; a
    call costs tens to hundreds of microseconds at any width: pass arrays.
    """
    if not l >= -0.5:   # NaN fails too
        raise DomainError(f"order parameter must be >= -1/2, got l={l}")
    if not is_integer_l(l):
        from .bessel import bessel_j

        return bessel_j(l + 0.5, z)
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0.0) & (z < math.inf)):
        raise DomainError("argument must be finite and >= 0")
    n = int(round(l))
    zz = np.atleast_1d(z)
    res = np.sqrt(2.0 * zz / np.pi) * spherical_j_table(n, zz)[n]
    return float(res[0]) if z.ndim == 0 else res


# ---------------------------------------------------------------------------
# gamma ratios


def gamma_ratio(m, l: float):
    """Gamma(m + 2l + 5/2) / Gamma(m + l + 3/2) at integer l >= 0, vectorized
    over m: the product of the l+1 half-integers m + l + 3/2 + j, j = 0..l.

    Exact to rounding and finite for m up to 1e6 and beyond at the l the
    kernel series use, with no log-gamma difference to cancel.
    """
    if not is_integer_l(l):
        raise DomainError(f"gamma_ratio needs integer l >= 0, got {l}")
    li = int(round(l))
    a = np.asarray(m, dtype=float)[..., None] + (li + 1.5)
    return np.prod(a + np.arange(li + 1), axis=-1)


def compensated_sum(terms) -> np.ndarray:
    """Sums of a 2-D array over axis 0, last row first, compensated column
    by column: the one summation of the truncated series (kernel_K over t,
    u_N over omega).  Each addition's rounding error is recovered exactly
    by Knuth's branch-free TwoSum and accumulated, so the result is
    bit-identical to Neumaier's compare-and-branch form.  math.fsum, which
    has no column-wise form, stays the tool for a single sum of scalars.

    At most _NARROW columns are summed one by one in Python floats, more
    one numpy call per operation and row; both paths give the same bits,
    but the narrow one overflows to inf without numpy's RuntimeWarning.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.ndim != 2:
        raise DomainError(f"terms must be 2-D, got shape {terms.shape}")
    if terms.shape[1] <= _NARROW:
        sums = []
        for col in terms.T.tolist():
            total = comp = 0.0
            for term in reversed(col):
                t = total + term
                tb = t - total
                comp += (total - (t - tb)) + (term - tb)
                total = t
            sums.append(total + comp)
        return np.array(sums, dtype=float)
    total = np.zeros(terms.shape[1])
    comp = np.zeros_like(total)
    for term in terms[::-1]:
        t = total + term
        tb = t - total
        comp += (total - (t - tb)) + (term - tb)
        total = t
    return total + comp
