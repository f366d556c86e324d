"""Bessel functions J_nu(z) of real order nu >= 0 at finite z >= 0, on
numpy and math alone: specialfn.bessel_j_half's evaluator for non-integer
l, imported on first use.

With n = floor(nu) and nu0 = nu - n, each point takes one of three methods,
chosen from (nu, z) alone:
  * z < _Z_TINY: the leading term (z/2)^nu / Gamma(nu + 1) of the power
    series, which the next term changes by less than 1e-200;
  * z >= max(_HANKEL_Z, 2 nu): Hankel's expansion (DLMF 10.17.3) at nu0 and
    nu0 + 1, then the forward recurrence, stable that far past the turning
    point;
  * otherwise Miller's backward recurrence in ratio form, normalized by
    Neumann's sum (z/2)^nu0 / Gamma(nu0 + 1) = sum_k w_k J_{nu0+2k}(z)
    (DLMF 10.23(ii); J_0 + 2 sum_k J_2k = 1 at nu0 = 0), after Gautschi,
    SIAM Rev. 9 (1967).
Against mpmath at nu in [0, 40.3] and z in [0, 1e3] the error stays below
1e-14 of the envelope sqrt(2 / (pi max(z, nu))): 7.4e-15 at worst over
about 1,400 points at each of 14 orders.

Every point, a scalar one included, goes through the same numpy code and
keeps its own start order or number of Hankel terms, so a point's bits do
not depend on the call it comes in.  At one numpy call per operation and
order, a call costs tens to hundreds of microseconds whatever its width:
pass arrays.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["bessel_j"]

_Z_TINY = 1e-100
_TWO_OVER_PI = 2.0 / math.pi
_LN2 = math.log(2.0)
_HANKEL_Z = 20.0
_HANKEL_TOL = 2.0 ** -53   # truncation bound of each Hankel series
_D_FLOOR = 1e-150          # stands in for an exact zero of the chain's divisor
_CHUNK = 4096              # points per numpy pass: tables of at most ~2 MB


def _hankel_thresholds() -> list:
    """Least z at which j terms of P and of Q suffice, for j = jmax..1
    (ascending), jmax being the least j that suffices at _HANKEL_Z.

    For 0 <= mu < 2 the coefficients a_k(mu) of DLMF 10.17.1 are bounded by
    b_k = 15 * 9 * prod_{i=3}^k (2i-1)^2 / (k! 8^k), and for real mu the error
    of a truncated P or Q is below its first omitted term (DLMF 10.17(iii)).
    """
    b = [1.0]
    for k in range(1, 80):
        b.append(b[-1] * (15.0 if k == 1 else 9.0 if k == 2 else (2 * k - 1) ** 2)
                 / (8.0 * k))
    out = []
    for j in range(1, 40):
        out.append(max((b[2 * j] / _HANKEL_TOL) ** (1.0 / (2 * j)),
                       (b[2 * j + 1] / _HANKEL_TOL) ** (1.0 / (2 * j + 1))))
        if out[-1] <= _HANKEL_Z:
            return out[::-1]
    raise AssertionError("Hankel's expansion cannot reach its tolerance")


_HANKEL_AT = _hankel_thresholds()
_HANKEL_TERMS = len(_HANKEL_AT)


@lru_cache(maxsize=16)
def _hankel_coeffs(nu0: float) -> np.ndarray:
    """Row j: the coefficients of (1/z^2)^j in P(nu0), z Q(nu0), P(nu0+1)
    and z Q(nu0+1), as a read-only array."""
    cols = []
    for mu in (nu0, nu0 + 1.0):
        a = [1.0]
        for k in range(1, 2 * _HANKEL_TERMS):
            a.append(a[-1] * (4.0 * mu * mu - (2 * k - 1) ** 2) / (8.0 * k))
        cols.append([(-1) ** j * a[2 * j] for j in range(_HANKEL_TERMS)])
        cols.append([(-1) ** j * a[2 * j + 1] for j in range(_HANKEL_TERMS)])
    table = np.array(cols).T
    table.setflags(write=False)
    return table


def _hankel_phase(nu0: float):
    """cos and sin of (nu0/2 + 1/4) pi; J_nu0 has the phase z minus that."""
    phi = (0.5 * nu0 + 0.25) * math.pi
    return math.cos(phi), math.sin(phi)


class _Chain(NamedTuple):
    """Miller's chain over the even orders nu0 + 2k, k <= size.

    e_k = J_{nu0+2k} satisfies e_{k-1} = A_k e_k - B_k e_{k+1} with
    A_k = (nu0+2k-1)(nu0+2k) (2/z)^2 - B_k - 1 and B_k = (nu0+2k-1)/(nu0+2k+1):
    two steps of J_{mu-1} + J_{mu+1} = (2 mu/z) J_mu with the odd order
    eliminated.  g_k = c_k e_k, with c_0 = c_1 = 1 and c_{k+1} = B_k c_{k-1},
    has a unit last coefficient: g_{k-1} = (alpha_k (2/z)^2 - beta_k) g_k - g_{k+1},
    and the ratios rho_k = g_k / g_{k-1} = 1 / (alpha_k (2/z)^2 - beta_k - rho_{k+1})
    run down from rho = 0 above the start.

    A point z starts at k = 2m for the least m >= 3 with z <= bounds[m - 3] =
    (2 sqrt(m) - 3)^2, that is at an order of at least z + 6 sqrt(z) + 9,
    which leaves under 1e-17 of the envelope.
    """
    alpha: np.ndarray         # alpha and beta as columns
    beta: np.ndarray
    weights: list             # the Neumann weights w_k / c_k
    c: list
    bounds: np.ndarray


@lru_cache(maxsize=32)
def _chain(nu0: float, size: int) -> _Chain:
    """The chain's tables up to k = size (a multiple of 32, so few sizes
    are cached; every size gives the same floats)."""
    c, w = [1.0, 1.0], [1.0, nu0 + 2.0]
    alpha, beta = [0.0], [0.0]
    for k in range(1, size + 1):
        b = (nu0 + 2 * k - 1) / (nu0 + 2 * k + 1)
        c.append(c[k - 1] * b)
        q = c[k - 1] / c[k]
        alpha.append(q * ((nu0 + 2 * k - 1) * (nu0 + 2 * k)))
        beta.append(q * (b + 1.0))
        if k >= 2:
            w.append(w[-1] * ((nu0 + 2 * k) * (nu0 + k - 1)) / ((nu0 + 2 * k - 2) * k))
    bounds = [(2.0 * math.sqrt(m) - 3.0) * (2.0 * math.sqrt(m) - 3.0)
              for m in range(3, size // 2 + 1)]
    return _Chain(np.array(alpha)[:, None], np.array(beta)[:, None],
                  [wk / ck for wk, ck in zip(w, c)], c, np.array(bounds))


def _chain_start(nu: float, z: float):
    """(k at which the chain starts for z, the chain's tables)."""
    low = (math.floor(nu) >> 1) + 2   # the orders up to nu lie inside the chain
    t = math.sqrt(z) + 3.0
    # 2 m <= t^2 / 2 + 4, and the tables reach k = 32 ceil(that / 32) >= 2 m
    size = 32 * -(-max(low, int(0.5 * t * t) + 4) // 32)
    chain = _chain(nu - math.floor(nu), size)
    return max(low, 2 * (3 + int(np.searchsorted(chain.bounds, z)))), chain


def _bessel_tiny(nu: float, z: np.ndarray) -> np.ndarray:
    """The leading term (z/2)^nu / Gamma(nu + 1): 1 at z = 0 for nu = 0,
    else 0 there; float_power is libm's pow."""
    return np.float_power(z, nu) * math.exp(-nu * _LN2 - math.lgamma(nu + 1.0))


def _bessel_miller(nu: float, z: np.ndarray, floor: bool = False) -> np.ndarray:
    """Miller's chain on an ascending array: one numpy call per operation
    and order, each point entering at its own start.  An exact zero of the
    divisor gives inf or nan; such points are redone with floor set, which
    puts _D_FLOOR in place of the zero."""
    n = math.floor(nu)
    nu0 = nu - n
    jn = n >> 1
    low = jn + 2
    top, chain = _chain_start(nu, float(z[-1]))
    weights, c = chain.weights, chain.c
    # the points from first[k] on are in the chain at k: with k <= low
    # or 2 m >= k, where m > 3 once z passes bounds[m - 4]
    past = np.searchsorted(z, chain.bounds[: top // 2 - 3], side="right").tolist()
    first = [0 if k <= low or k <= 6 else past[(k + 1) // 2 - 4] for k in range(top + 1)]
    tz = 2.0 / z
    a = np.multiply(chain.alpha[: top + 1], tz * tz)
    a -= chain.beta[: top + 1]
    rho, h = np.zeros((2, z.size))
    p = None
    i = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(top, 0, -1):
            if first[k] != i:
                i = first[k]
                rv, hv, av = rho[i:], h[i:], a[:, i:]
            np.subtract(av[k], rv, rv)
            if floor:
                rv[rv == 0.0] = _D_FLOOR
            np.reciprocal(rv, rv)
            np.add(hv, weights[k], hv)
            np.multiply(hv, rv, hv)
            if k <= jn:
                if p is None:
                    p = rho.copy()
                else:
                    np.multiply(p, rho, p)
            elif k == jn + 1 and n & 1:
                p = rho * (c[jn] / c[jn + 1])
                p += 1.0
        # h + 1 = sum_k w_k e_k / e_0; J_nu / J_nu0 is e_jn / e_0 for even n
        # and (e_jn + e_jn+1) / (e_0 (2/z)(nu0 + n)) for odd n
        h += 1.0
        if nu0 == 0.0:
            out = np.reciprocal(h, out=h)
        else:
            out = np.float_power(0.5 * z, nu0) / math.gamma(nu0 + 1.0) / h
        if n:
            out *= p / c[jn]
            if n & 1:
                out /= (nu0 + n) * tz
    bad = ~np.isfinite(out)
    if not floor and bad.any():
        out[bad] = _bessel_miller(nu, z[bad], floor=True)
    return out


def _bessel_hankel(nu: float, z: np.ndarray) -> np.ndarray:
    """Hankel's expansion on an ascending array: the series of all points
    side by side in one flat array, each point taking its own
    number of terms."""
    n = math.floor(nu)
    nu0 = nu - n
    cols = [0, 1] if n == 0 else [2, 3] if n == 1 else [0, 1, 2, 3]
    width = len(cols)
    terms = _HANKEL_TERMS + 1 - np.searchsorted(_HANKEL_AT, z, side="right")
    most = int(terms[0])
    # width times the points with more than j terms: a prefix, as terms
    # falls with z
    active = (width * np.searchsorted(-terms, -np.arange(most))).tolist()
    coef = np.tile(_hankel_coeffs(nu0)[:most, cols], z.size)
    w = np.repeat(1.0 / (z * z), width)
    acc = np.zeros(width * z.size)
    size = -1
    for j in range(most - 1, -1, -1):
        if active[j] != size:
            size = active[j]
            av, wv = acc[:size], w[:size]
        np.multiply(av, wv, av)
        np.add(av, coef[j, :size], av)
    c, s = np.cos(z), np.sin(z)
    cp, sp = _hankel_phase(nu0)
    cx = c * cp + s * sp
    sx = s * cp - c * sp
    amp = np.sqrt(_TWO_OVER_PI / z)
    if n == 1:
        return amp * (acc[0::2] * sx + acc[1::2] / z * cx)
    j0 = amp * (acc[0::width] * cx - acc[1::width] / z * sx)
    if n == 0:
        return j0
    j1 = amp * (acc[2::4] * sx + acc[3::4] / z * cx)
    tz = 2.0 / z
    for k in range(1, n):
        j0, j1 = j1, (nu0 + k) * tz * j1 - j0
    return j1


def _bessel_j(nu: float, z: np.ndarray) -> np.ndarray:
    """J_nu at the points of a 1-D array; DomainError unless all are finite
    and >= 0."""
    order = np.argsort(z, kind="stable")
    zs = z[order]
    if zs.size and not (zs[0] >= 0.0 and zs[-1] < math.inf):   # NaN sorts last
        raise DomainError("argument must be finite and >= 0")
    res = np.empty_like(zs)
    bounds = [0, *np.searchsorted(zs, (_Z_TINY, max(_HANKEL_Z, 2.0 * nu))).tolist(), zs.size]
    for lo, hi, method in zip(bounds, bounds[1:], (_bessel_tiny, _bessel_miller, _bessel_hankel)):
        # in slices of _CHUNK points, which bounds the per-call tables
        for start in range(lo, hi, _CHUNK):
            stop = min(start + _CHUNK, hi)
            res[start:stop] = method(nu, zs[start:stop])
    out = np.empty_like(res)
    out[order] = res
    return out


def bessel_j(nu: float, z):
    """J_nu(z) for real nu >= 0 at finite z >= 0: a float for a scalar z,
    else an array of z's shape.  Every point runs on the one numpy path, and
    its bits do not depend on the call it comes in; a call costs tens to
    hundreds of microseconds at any width, so pass arrays, not scalars."""
    if not 0.0 <= nu < math.inf:   # NaN fails too
        raise DomainError(f"order must be finite and >= 0, got {nu}")
    z = np.asarray(z, dtype=float)
    out = _bessel_j(nu, z.ravel()).reshape(z.shape)
    return float(out) if z.ndim == 0 else out
