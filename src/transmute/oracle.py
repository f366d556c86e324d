"""Direct high-accuracy integration of the perturbed Bessel equation

    -u'' + (l(l+1)/x^2 + q(x)) u = omega^2 u,   x in (0, b],

from the regular endpoint, in the normalization u(x) ~ x^(l+1) as x -> 0.
This module is the ground truth against which every series representation
in the package is fitted and validated.

Method
------
A fourth-order Magnus propagator on the first-order system for (u, u'):
each step exponentiates the averaged coefficient matrix sampled at the
two-point Gauss nodes.  The omega^2 shift enters the exponent exactly, so
the step need not resolve each wavelength finely: one step-length rule
allows 0.16 rad of phase per step (h sqrt|q - omega^2| <= 0.16), no step
longer than b/1024, and a fixed fraction of x near the origin, which
resolves the centrifugal term l(l+1)/x^2.  The step count, and so the
cost of a solve, still grows linearly with omega.
The integration starts at x0 = 1e-6*b from a three-term Frobenius
expansion (the centrifugal term forbids starting at zero), stops at the
last requested point, propagates the rescaled variable w = u / x0^(l+1)
to avoid underflow at large l, and verifies itself by re-running on a
midpoint-refined grid with Richardson extrapolation; further halvings are
added until two consecutive extrapolants agree.  The self-check cannot
see an error that does not change with the grid, so solves with
|omega| b > 2000 pi, past the measured range, warn.

A sweep of frequencies is solved in blocks (regular_solutions).  A block
shares one grid, sized for its lowest and highest |omega|, which bounds
the phase of every frequency in between, so no frequency gets a coarser
grid than it would alone.  The omega-free part of every step, q at its
Gauss nodes included, is formed once per grid; the step maps and chain
products are frequency x step arrays, in tiles of at most _BLOCK
frequencies x nodes that reuse one workspace per call, which bounds the
memory of any sweep.  The self-check runs per frequency.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyWarning, DomainError, IntegrationFailure
from .specialfn import is_integer_l

__all__ = [
    "ProblemSetup",
    "SolutionSample",
    "make_potential",
    "regular_solution_ode",
    "regular_solutions",
    "zero_count",
]

_GAUSS_OFF = math.sqrt(3.0) / 6.0   # two-point Gauss offset from midpoint

# grid-construction factors.  Worst relative error against the exact
# constant-q solutions (q = 0, 50, -3; l = -1/2..10; |omega| <= 1400;
# x in [0.3, pi]): 9.2e-13; against the exact q = x^2 ones (l = 0, 1/2, 1;
# omega <= 235; x = pi/8, pi/2, pi): 3.3e-13.  A step cap of b/200 instead
# of b/1024 moved the l = 1/2, M = 100 fit at x = pi 3x further from its
# exact-data fit and out of the coefficient-sum check's tolerance
_PHASE_FRAC = 0.16
_SING_FRAC = 0.02
_REL_TOL = 1e-10
# |omega| * b validated against the exact constant-q family (5000 pi
# measures 6.1e-12, but the limit stays until such a range is validated)
_PHASE_LIMIT = 2000.0 * math.pi
# frequencies x nodes of a block's grid, and of one tile of the step maps
# and chain product (before padding); a call's workspace holds six float
# arrays of that size (256 KiB each).  Larger blocks cost memory and, once
# the arrays leave the cache, time: with 2^16 the l = 1/2, M = 60 fits
# ran about 20 % slower than with 2^15 or 2^14
_BLOCK = 1 << 15
# steps of one grid: 100 times what |omega| b = 2000 pi needs (~4e4); a
# sweep near omega = 0 on b = 1e300 would ask for 1e150
_MAX_STEPS = 1 << 22
# steps of a tile, padded with identity maps, are a multiple of this, so
# the chain product's first levels pair steps within a row
_PAD = 8
# floats of the largest tile of several rows on a grid of 1024 steps or
# more (32 rows at most); a workspace for such tiles starts at six, so it
# does not grow tile by tile
_TILE = _BLOCK + 32 * (_PAD - 1)


@dataclass(frozen=True)
class ProblemSetup:
    """The data (l, b, q) of a perturbed Bessel problem.

    Parameters
    ----------
    l : float
        Singular index, >= -1/2.
    b : float
        Right endpoint of the interval (0, b].
    q : callable
        Potential evaluator; must accept and return numpy arrays.
    """

    l: float
    b: float
    q: Callable[[np.ndarray], np.ndarray]
    q0: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if not (math.isfinite(self.l) and self.l >= -0.5):
            raise DomainError(f"l must be finite and >= -1/2, got {self.l}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError(f"b must be finite and > 0, got {self.b}")
        q0 = float(np.asarray(self.q(np.array([0.0])))[0])
        object.__setattr__(self, "q0", q0)


@dataclass(frozen=True)
class SolutionSample:
    """Regular solution values on an ascending grid, u ~ x^(l+1) at 0."""

    omega: float
    x_values: np.ndarray
    u_values: np.ndarray
    u_prime_values: np.ndarray

    def __post_init__(self):
        for name in ("x_values", "u_values", "u_prime_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# potential descriptors


def _table_potential(xs: np.ndarray, qs: np.ndarray, b: float):
    if xs.ndim != 1 or xs.shape != qs.shape or xs.size < 4:
        raise DomainError("potential table needs >= 4 (x, q) rows")
    diffs = np.diff(xs)
    bad = np.nonzero(diffs <= 0)[0]
    if bad.size:
        raise DomainError(
            f"potential table x values must increase strictly: row {bad[0] + 2} "
            f"(x={xs[bad[0] + 1]:.6g}) does not exceed row {bad[0] + 1}"
        )
    if xs[0] > 1e-9 * b or xs[-1] < b * (1.0 - 1e-9):
        raise DomainError(
            f"potential table must span [0, {b:.6g}]; it covers "
            f"[{xs[0]:.6g}, {xs[-1]:.6g}]"
        )
    from scipy.interpolate import CubicSpline   # loads slowly; only tables need it

    return CubicSpline(xs, qs)


def make_potential(descriptor, b: float):
    """Build a vectorized potential evaluator from a descriptor.

    Accepted descriptors:
      * a callable (returned as-is, tagged "C-inf"),
      * {"type": "polynomial", "coefficients": [c0, c1, ...]} -- ascending
        degree,
      * {"type": "table", "x": [...], "q": [...]} or
        {"type": "table", "path": "file.csv"} -- CSV rows "x,q", strictly
        increasing x spanning [0, b], interpolated by a cubic spline.

    Returns
    -------
    (q, tag)
        tag is the declared continuity class of q ("C-inf" or "C2").
    """
    if callable(descriptor):
        return descriptor, "C-inf"
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise DomainError(f"unrecognized potential descriptor: {descriptor!r}")
    kind = descriptor["type"]
    if kind == "polynomial":
        coeffs = np.asarray(descriptor.get("coefficients", []), dtype=float)

        def q_poly(x, _c=coeffs):
            x = np.asarray(x, dtype=float)
            if _c.size == 0:
                return np.zeros_like(x)
            return np.polynomial.polynomial.polyval(x, _c)

        return q_poly, "C-inf"
    if kind == "table":
        if "path" in descriptor:
            rows = []
            with open(descriptor["path"], newline="") as fh:
                for i, row in enumerate(csv.reader(fh), start=1):
                    if not row or row[0].lstrip().startswith("#"):
                        continue
                    try:
                        rows.append((float(row[0]), float(row[1])))
                    except (ValueError, IndexError):
                        if i == 1:
                            continue  # header
                        raise DomainError(
                            f"potential table {descriptor['path']}: "
                            f"cannot parse row {i}: {row!r}"
                        ) from None
            data = np.asarray(rows, dtype=float)
            if data.size == 0:
                raise DomainError(f"potential table {descriptor['path']} is empty")
            xs, qs = data[:, 0], data[:, 1]
        else:
            xs = np.asarray(descriptor["x"], dtype=float)
            qs = np.asarray(descriptor["q"], dtype=float)
        return _table_potential(xs, qs, b), "C2"
    raise DomainError(f"unknown potential type {kind!r}")


# ---------------------------------------------------------------------------
# grid construction and propagation


def _probe(l: float, b: float, q, x0: float):
    """The frequency-free part of the step rule on [x0, b]: probe cells,
    the 1024 uniform ones of width w split at x0 (1 + ratio)^k below
    ratio x = w; each cell's longest step, w and (for the centrifugal term)
    ratio = _SING_FRAC / max(1, sqrt|l(l+1)|) times its left end; and the
    least and greatest q at its ends and midpoint.  Raises DomainError if
    q is not finite there."""
    edges = np.linspace(x0, b, 1025)
    w = edges[1] - x0
    cap = w
    ll1 = abs(l * (l + 1.0))
    if ll1:
        ratio = _SING_FRAC / max(1.0, math.sqrt(ll1))
        cross = min(w / ratio, b)
        count = int(math.ceil(math.log(cross / x0) / math.log1p(ratio)))
        geo = x0 * (1.0 + ratio) ** np.arange(1, count + 1)
        edges = np.union1d(edges, geo[geo < cross])
        cap = np.minimum(w, ratio * edges[:-1])
    n = edges.size - 1
    probes = np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])
    qp = np.asarray(q(probes), dtype=float)
    bad = ~np.isfinite(qp)
    if np.any(bad):
        raise DomainError(f"potential q is not finite at x={probes[bad].min():.6g}")
    cells = np.stack([qp[:n], qp[1 : n + 1], qp[n + 1 :]])
    return edges, cap, cells.min(axis=0), cells.max(axis=0)


def _step_rule(probe, om_lo: float, om_hi: float):
    """Probe cells and the longest step h[i] on cell [edges[i], edges[i+1]]
    at every frequency in [om_lo, om_hi], at most _PHASE_FRAC rad of phase:
    |q - omega^2| at the probed points is convex in omega^2, so its maximum
    at om_lo and om_hi bounds it in between."""
    edges, cap, q_lo, q_hi = probe
    cell_v = np.maximum(q_hi - om_lo * om_lo, om_hi * om_hi - q_lo)
    return edges, np.minimum(cap, _PHASE_FRAC / np.sqrt(np.maximum(cell_v, 1e-300)))


def _build_grid(probe, om_lo: float, om_hi: float) -> np.ndarray:
    """Step grid on [x0, b] for every frequency in [om_lo, om_hi]: nodes
    that equidistribute int dx/h over the cells of _step_rule, so it has
    ceil(int dx/h) steps and none is longer than the largest h of the
    cells it spans.  Raises DomainError if the grid would need more than
    _MAX_STEPS steps.
    """
    edges, h = _step_rule(probe, om_lo, om_hi)
    level = np.concatenate([[0.0], np.cumsum(np.diff(edges) / h)])
    total = level[-1]
    if not total <= _MAX_STEPS:
        raise DomainError(
            f"the oracle grid would need {total:.3g} steps on (0, {edges[-1]:.6g}] at "
            f"omega = {om_hi:.6g}, more than the {_MAX_STEPS} allowed"
        )
    # less the sum's rounding, or cells of exactly one step each get one more
    steps = math.ceil(total * (1.0 - 1e-13))
    return np.interp(np.linspace(0.0, total, steps + 1), level, edges)


def _grid_terms(xs: np.ndarray, l: float, q) -> np.ndarray:
    """The omega-free terms of the step maps on the grid xs, a column per
    step: h, h^2, pbar = (p1 + p2)/2, d = (sqrt(3)/12) h^2 (p1 - p2), d^2,
    with p = l(l+1)/x^2 + q at the Gauss nodes; zero columns, identity
    maps, pad them to a multiple of _PAD."""
    n = xs.size - 1
    terms = np.empty((5, -(-n // _PAD) * _PAD))
    terms[:, n:] = 0.0
    h, h2, pbar, d, d2 = terms[:, :n]
    np.subtract(xs[1:], xs[:-1], out=h)
    np.add(xs[:-1], xs[1:], out=d2)
    d2 *= 0.5
    np.multiply(h, _GAUSS_OFF, out=h2)
    ll1 = l * (l + 1.0)

    def p_at(node, out=None):
        x = node(d2, h2, out=d)
        np.divide(ll1, np.multiply(x, x, out=pbar), out=pbar)
        return np.add(pbar, q(x), out=out)

    p1 = p_at(np.subtract)
    p2 = p_at(np.add, out=d2)   # the midpoints are spent once the node is formed
    np.multiply(h, h, out=h2)
    np.subtract(p1, p2, out=d)
    d *= math.sqrt(3.0) / 12.0
    d *= h2
    np.add(p1, p2, out=pbar)
    pbar *= 0.5
    np.multiply(d, d, out=d2)
    return terms


def _step_maps(terms, om: np.ndarray, bufs):
    """Per-interval 2x2 transfer matrices (m11, m12, m21, m22) of the Magnus
    propagator, one row per frequency in om, from the grid's _grid_terms.

    omega enters only through vbar = pbar - omega^2.  A step's exponent
    [[d, h], [h vbar, -d]] squares to s I, s = h^2 vbar + d^2, so its
    exponential is C(s) I + S(s) times it, with C(s) = sum s^k/(2k)! and
    S(s) = sum s^k/(2k+1)! (cos and sin(theta)/theta at s = -theta^2, cosh
    and sinh(theta)/theta at s = theta^2).  Their Taylor sums reach
    rounding at |s| <= 1/16 (the grids keep |s| <= 0.026); a larger |s|
    is scaled by 4^-k and doubled back k times with S <- S C and
    C - 1 <- 2 (C - 1)(C + 1); s falls with omega^2, so the largest |s|
    is on the rows of the least and the greatest omega.  The work runs in
    the five rows x steps arrays bufs (at most five such arrays), the maps
    in the first four; every value is formed by the same operations, in
    the same order, as for a single frequency.
    """
    h, h2, pbar, d, d2 = terms
    om2 = om * om
    m11, m12, m21, m22, s = bufs
    vbar = np.subtract(pbar, om2[:, None], out=m21)
    np.multiply(h2, vbar, out=s)
    s += d2
    top = max(s[np.argmin(om2)].max(), -s[np.argmax(om2)].min())
    k = (math.frexp(16.0 * top)[1] + 1) // 2 if top > 0.0625 else 0
    if k:
        s *= 0.25 ** k
    # Horner sums of C - 1 (through s^6) and S (through s^5)
    cm1 = np.divide(s, math.factorial(12), out=m22)
    for j in range(5, 0, -1):
        cm1 += 1.0 / math.factorial(2 * j)
        cm1 *= s
    sc = np.divide(s, math.factorial(11), out=m12)
    for j in range(4, 0, -1):
        sc += 1.0 / math.factorial(2 * j + 1)
        sc *= s
    sc += 1.0
    for _ in range(k):
        sc += np.multiply(sc, cm1, out=s)
        cm1 *= np.add(cm1, 2.0, out=s)
        cm1 *= 2.0
    c = np.add(cm1, 1.0, out=cm1)
    scd = np.multiply(sc, d, out=s)
    np.add(c, scd, out=m11)
    np.subtract(c, scd, out=m22)
    np.multiply(sc, h, out=m12)
    np.multiply(m12, vbar, out=m21)
    return m11, m12, m21, m22


class _Workspace:
    """Float scratch reused by every tile of a call: the heap is not
    trimmed and regrown around each."""

    def __init__(self):
        self.flat = np.empty(0)

    def arrays(self, rows: int, steps: int):
        """The five rows x steps arrays of _step_maps and the four of half
        the width that _product reduces into, two in the fifth of those."""
        full = rows * steps
        if self.flat.size < 6 * full:
            self.flat = np.empty(0)   # free the old buffer before the new one
            self.flat = np.empty(6 * max(full, _TILE if rows > 1 else 0))
        return (self.flat[: 5 * full].reshape(5, rows, steps),
                self.flat[4 * full : 6 * full].reshape(4, rows, steps // 2))


def _refine(xs: np.ndarray) -> np.ndarray:
    out = np.empty(2 * xs.size - 1)
    out[0::2] = xs
    out[1::2] = 0.5 * (xs[:-1] + xs[1:])
    return out


def _product(m, spare):
    """Entries of the ordered product M_{n-1} @ ... @ M_0 for the matrices
    [[a_i, b_i], [c_i, d_i]], m = (a, b, c, d), along the last axis (one
    product per row).

    The product is associative, so it is collapsed by pairwise reduction:
    O(n) arithmetic in O(log n) vectorized passes instead of a Python loop
    over every step.  The levels go into spare and into m by turns, as
    contiguous arrays (numpy buffers a 2-D operand that is not evenly
    strided, allocating every call).  Rounding differs from a sequential
    product at the 1e-15 level, far below the error budget.
    """
    rows, n = m[0].shape
    src, dst = [x.reshape(-1) for x in m], [x.reshape(-1) for x in spare]
    while n > 1:
        k, half = n // 2, n - n // 2
        if n % 2:
            x = [f[: rows * n].reshape(rows, n) for f in src]
            a0, b0, c0, d0 = [y[:, 0 : 2 * k : 2] for y in x]
            a1, b1, c1, d1 = [y[:, 1 : 2 * k : 2] for y in x]
            out = [f[: rows * half].reshape(rows, half) for f in dst]
            na, nb, nc, nd = [y[:, :k] for y in out]
        else:   # no pair straddles two rows, so flat views serve
            a0, b0, c0, d0 = [f[0 : rows * n : 2] for f in src]
            a1, b1, c1, d1 = [f[1 : rows * n : 2] for f in src]
            na, nb, nc, nd = [f[: rows * k] for f in dst]
        # the second products go through dst[3] until nd is due, then
        # through src[0], which nd does not read
        t = dst[3][: rows * k].reshape(na.shape)
        np.multiply(a1, a0, out=na)
        na += np.multiply(b1, c0, out=t)
        np.multiply(a1, b0, out=nb)
        nb += np.multiply(b1, d0, out=t)
        np.multiply(c1, a0, out=nc)
        nc += np.multiply(d1, c0, out=t)
        if n % 2:
            for y, z in zip(out, x):
                y[:, k] = z[:, -1]
        t = src[0][: rows * k].reshape(na.shape)
        np.multiply(c1, b0, out=nd)
        nd += np.multiply(d1, d0, out=t)
        src, dst, n = dst, src, half
    return [f[:rows] for f in src]


def _propagate(grid, l, om, q, w0, wp0, x_eval, ws):
    """States at x_eval, one row per frequency, in the workspace ws: steps
    in ranges ending at the requested points, each range's grid terms
    formed once and its rows in groups, tiles of at most _BLOCK rows x
    nodes before padding."""
    idx = np.searchsorted(grid, x_eval)
    rows = max(1, _BLOCK // grid.size)
    cuts = np.union1d(idx, np.arange(0, grid.size - 1, _BLOCK // rows - 1)).tolist()
    w, wp = np.array(w0, dtype=float), np.array(wp0, dtype=float)
    out_w = np.empty((om.size, idx.size))
    out_wp = np.empty_like(out_w)
    j = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        terms = _grid_terms(grid[c0 : c1 + 1], l, q)
        for r in range(0, om.size, rows):
            part = slice(r, r + rows)
            maps, spare = ws.arrays(om[part].size, terms.shape[1])
            a, b, c, d = _product(_step_maps(terms, om[part], maps), spare)
            w[part], wp[part] = a * w[part] + b * wp[part], c * w[part] + d * wp[part]
        del terms   # before the next range's are formed
        if c1 == idx[j]:
            out_w[:, j], out_wp[:, j] = w, wp
            j += 1
    return out_w, out_wp


def _envelope(w, wp, om):
    # per-row amplitude scale that stays O(peak) even when a requested
    # point sits on a node of the oscillating solution
    return np.maximum(
        np.max(np.hypot(w, wp / np.maximum(om, 1.0)[:, None]), axis=1), 1e-300
    )


def _block(probe, om, stop, x_eval):
    """Start of the frequency block that ends just below om[stop] (om
    ascending), and the block's grid, from the call's step-rule probe: as
    many frequencies as keep rows x nodes within _BLOCK, at least one."""

    def grid_for(start):
        grid = np.union1d(_build_grid(probe, om[start], om[stop - 1]), x_eval)
        # the chain never uses a step past the last requested point
        return grid[: np.searchsorted(grid, x_eval[-1]) + 1]

    def rows(grid):
        return max(1, _BLOCK // grid.size)

    # the top frequency sets most of the grid; a low end where q > omega^2
    # can add nodes, and then the block is cut down until it fits
    grid = grid_for(stop - 1)
    start = max(0, stop - rows(grid))
    while start < stop - 1:
        grid = grid_for(start)
        if stop - start <= rows(grid):
            break
        start = stop - rows(grid)
    return start, grid


def _two_grid_fails(diff, envelope):
    """Rows whose two-grid difference needs further halvings.

    Agreement to 1e-6 leaves the order-4 extrapolant well past the 1e-10
    contract (validated against closed forms).
    """
    return diff > 1e-6 * envelope


def _start(setup, om, x0):
    """Rescaled states (w, w') at x0 from the three-term Frobenius start."""
    l = setup.l
    c1 = (setup.q0 - om * om) / (4.0 * l + 6.0)
    c2 = c1 * c1 * (2.0 * l + 3.0) / (4.0 * l + 10.0)
    w0 = 1.0 + x0 * x0 * (c1 + c2 * x0 * x0)
    wp0 = (l + 1.0) / x0 + x0 * ((l + 3.0) * c1 + (l + 5.0) * c2 * x0 * x0)
    return w0, wp0


def _check_finite(omegas, xs, finite):
    """IntegrationFailure at the first row of the mask with a non-finite
    state (w = u / x0^(l+1) overflows at large l), at its first such x."""
    rows = np.flatnonzero(~finite.all(axis=1))
    if rows.size:
        i = rows[0]
        raise IntegrationFailure(f"the solution is not finite at omega={omegas[i]:.6g}",
                                 x=float(xs[np.argmin(finite[i])]))


def _solve_block(setup, om, grid, x0, x_eval, ws):
    """Richardson-verified rescaled states (w, w') at x_eval for the
    frequencies om on their shared grid, every pass in the workspace ws;
    each row is checked on its own."""
    l = setup.l
    w0, wp0 = _start(setup, om, x0)
    w_a, wp_a = _propagate(grid, l, om, setup.q, w0, wp0, x_eval, ws)
    grid = _refine(grid)
    w_b, wp_b = _propagate(grid, l, om, setup.q, w0, wp0, x_eval, ws)
    rich_w = (16.0 * w_b - w_a) / 15.0
    rich_wp = (16.0 * wp_b - wp_a) / 15.0

    # rows that pass the two-grid test are final; the others keep halving,
    # as a smaller batch, until consecutive extrapolants agree directly
    diff = np.max(np.abs(w_b - w_a), axis=1)
    live = np.flatnonzero(_two_grid_fails(diff, _envelope(w_b, wp_b, om)))
    w_b, wp_b = w_b[live], wp_b[live]
    for _ in range(2):
        if live.size == 0:
            break
        grid = _refine(grid)
        w_c, wp_c = _propagate(grid, l, om[live], setup.q, w0[live], wp0[live], x_eval, ws)
        rich2_w = (16.0 * w_c - w_b) / 15.0
        rich2_wp = (16.0 * wp_c - wp_b) / 15.0
        err = np.abs(rich2_w - rich_w[live])
        rich_w[live], rich_wp[live] = rich2_w, rich2_wp
        ok = np.max(err, axis=1) <= _REL_TOL * _envelope(rich2_w, rich2_wp, om[live])
        live, w_b, wp_b, err = live[~ok], w_c[~ok], wp_c[~ok], err[~ok]
    if live.size:
        ratio = np.max(err, axis=1) / _envelope(rich_w[live], rich_wp[live], om[live])
        worst = int(np.argmax(ratio))
        raise IntegrationFailure(
            "grid refinement did not converge to the accuracy contract "
            f"at omega={om[live[worst]]:.6g}",
            x=float(x_eval[int(np.argmax(err[worst]))]),
        )
    return rich_w, rich_wp


def _integer_l(setup):
    """setup with an l that is_integer_l takes for an integer set to it."""
    if is_integer_l(setup.l) and setup.l != round(setup.l):
        return replace(setup, l=float(round(setup.l)))
    return setup


def regular_solutions(setup: ProblemSetup, omegas, x_eval: Sequence[float]):
    """Regular solutions u(omega, .) with u ~ x^(l+1) at the origin, for a
    whole sweep of frequencies at once.

    Returns (u, u_prime), arrays of shape (len(omegas), len(x_eval)).

    The frequencies are sorted by |omega| and split into blocks.  A block
    shares one grid, sized for its lowest and highest |omega| and so, at
    every frequency in it, no coarser than the grid that frequency would
    get alone.  Every pass runs in tiles of at most _BLOCK frequencies x
    nodes, so a call's frequency x step arrays grow with neither the sweep
    nor the grid.  The accuracy contract is that of regular_solution_ode,
    and the self-verification runs row by row: a row that fails the
    two-grid test is refined further on its own, whatever its neighbours
    do.  One AccuracyWarning is emitted per call if any |omega| b exceeds
    2000 pi.  One call over a sweep costs far less than a loop of
    one-frequency calls.  An l that is_integer_l takes for an integer is
    solved as that integer, as everywhere else.

    Raises
    ------
    DomainError
        If omegas is empty or not finite, x_eval is not ascending in
        (0, b], q is not finite on the grid probe, or a grid would need
        more than _MAX_STEPS steps.
    IntegrationFailure
        If grid refinement fails to converge, or a solution is not finite
        (large l); the message names that omega, and ``x`` its abscissa.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if x_eval.size == 0:
        raise DomainError("x_eval must be nonempty")
    if np.any(np.diff(x_eval) <= 0):
        raise DomainError("x_eval must be strictly ascending")
    if x_eval[0] <= 0 or x_eval[-1] > setup.b * (1 + 1e-12):
        raise DomainError("x_eval must lie in (0, b]")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise DomainError("omegas must be a nonempty 1-D array")
    bad = ~np.isfinite(omegas)
    if np.any(bad):
        raise DomainError(f"omega must be finite, got {omegas[bad][0]}")
    om = np.abs(omegas)  # the equation depends on omega^2 only
    setup = _integer_l(setup)
    top = float(np.max(om))
    if top * setup.b > _PHASE_LIMIT:
        warnings.warn(
            f"omega*b = {top * setup.b:.6g} exceeds the validated range "
            f"{_PHASE_LIMIT:.6g} (2000 pi); the 1e-10 accuracy contract "
            "is not guaranteed there",
            AccuracyWarning,
            stacklevel=2,
        )

    x0 = 1e-6 * setup.b
    if x_eval[0] < 2.0 * x0:
        x0 = 0.5 * x_eval[0]
    probe = _probe(setup.l, setup.b, setup.q, x0)
    ws = _Workspace()
    order = np.argsort(om, kind="stable")
    om_sorted = om[order]
    w = np.empty((om.size, x_eval.size))
    wp = np.empty_like(w)
    stop = om.size
    while stop > 0:
        start, grid = _block(probe, om_sorted, stop, x_eval)
        rows = order[start:stop]
        w[rows], wp[rows] = _solve_block(setup, om_sorted[start:stop], grid, x0, x_eval, ws)
        stop = start

    scale = x0 ** (setup.l + 1.0)
    u, up = w * scale, wp * scale
    _check_finite(omegas, x_eval, np.isfinite(u) & np.isfinite(up))
    return u, up


def regular_solution_ode(
    setup: ProblemSetup, omega: float, x_eval: Sequence[float]
) -> SolutionSample:
    """Regular solution u(omega, .) with u ~ x^(l+1) at the origin: the
    one-frequency case of regular_solutions, on the grid sized for omega
    alone.

    Relative accuracy (measured against the oscillation envelope
    sqrt(u^2 + (u'/omega)^2) over the requested points, so a requested
    point on a node does not deflate the scale) is 1e-10 or better on
    [b/100, b] for smooth potentials and |omega| b <= 2000 pi (measured
    against the exact constant-q solutions, l >= -1/2: 9.2e-13 up to
    omega = 1400 on b = pi, 3.2e-12 at omega*b = 2000 pi; against the
    exact q = x^2 ones 3.3e-13 up to omega = 235); the self-verification
    enforces the agreement between grid levels.  Past that range the
    accuracy is not validated, so an AccuracyWarning is emitted.  In a
    sweep (regular_solutions) a frequency shares its block's grid, which
    is at least as fine as its own, so the same contract holds.

    Raises
    ------
    IntegrationFailure
        If consecutive grid refinements fail to converge; carries the
        abscissa of the worst disagreement.
    """
    u, u_prime = regular_solutions(setup, [omega], x_eval)
    return SolutionSample(
        omega=float(omega),
        x_values=np.asarray(x_eval, dtype=float),
        u_values=u[0],
        u_prime_values=u_prime[0],
    )


def zero_count(setup: ProblemSetup, omega: float) -> int:
    """Sturm's count: the zeros of u(omega, .) in (0, b], which number the
    Dirichlet eigenvalues lambda <= omega^2 (Pryce, Numerical Solution of
    Sturm-Liouville Problems, OUP 1993).  The sign of w is read at every
    node of regular_solutions' grid for omega alone, from the same start;
    a step carries at most _PHASE_FRAC rad of phase, so none hides two
    zeros.  |w(b)| within 1e-6 of the envelope there (the grid's error is
    below 2e-8 of it) is a zero at b, whichever way its sign tips.  Raises
    as regular_solutions does.
    """
    setup, om = _integer_l(setup), abs(float(omega))
    x0 = 1e-6 * setup.b
    grid = _build_grid(_probe(setup.l, setup.b, setup.q, x0), om, om)
    terms = _grid_terms(grid, setup.l, setup.q)
    maps = _step_maps(terms, np.array([om]), np.empty((5, 1, terms.shape[1])))
    w, wp = _start(setup, om, x0)
    ws = [w]
    for m11, m12, m21, m22 in zip(*(m[0, : grid.size - 1].tolist() for m in maps)):
        w, wp = m11 * w + m12 * wp, m21 * w + m22 * wp
        ws.append(w)
    ws = np.array(ws)
    finite = np.isfinite(ws)
    finite[-1] &= math.isfinite(wp)
    _check_finite([omega], grid, finite[None])
    neg = ws < 0.0
    if abs(w) <= 1e-6 * math.hypot(w, wp / max(om, 1.0)):
        neg[-1] = not neg[-2]
    return int(np.count_nonzero(neg[1:] != neg[:-1]))
