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
grid than it would alone; q is evaluated once per grid, and the step
maps and chain products are frequency x step arrays.  A block holds at
most _BLOCK frequencies x nodes, which bounds the memory of any sweep.
The self-check runs per frequency.
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
# frequencies x nodes of a block's grid, and of one _step_maps call; the
# step maps and the first pass of the chain product hold up to about
# seven float arrays of that size (256 KiB each).  Larger blocks cost
# memory and, once the arrays leave the cache, time: with 2^16 the
# l = 1/2, M = 60 fits ran about 20 % slower than with 2^15 or 2^14
_BLOCK = 1 << 15
# steps of one grid: 100 times what |omega| b = 2000 pi needs (~4e4); a
# sweep near omega = 0 on b = 1e300 would ask for 1e150
_MAX_STEPS = 1 << 22


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


def _step_rule(l: float, b: float, om_lo: float, om_hi: float, q, x0: float):
    """Probe cells on [x0, b] and the longest step h[i] allowed on cell
    [edges[i], edges[i+1]] at every frequency in [om_lo, om_hi].

    h = min(w, _PHASE_FRAC / sqrt(max |q - omega^2|), ratio x): at most a
    uniform probe cell w = (b - x0)/1024 and _PHASE_FRAC rad of phase, and,
    for the centrifugal term, at most ratio = _SING_FRAC / max(1,
    sqrt|l(l+1)|) times the cell's left end.  The cells are the 1024
    uniform ones split at the geometric points x0 (1 + ratio)^k below
    ratio x = w.  |q - omega^2|, sampled at each cell's ends and midpoint,
    is convex in omega^2, so its maximum at om_lo and om_hi bounds it in
    between.  Raises DomainError if q is not finite on the probe.
    """
    edges = np.linspace(x0, b, 1025)
    w = edges[1] - x0
    ll1 = abs(l * (l + 1.0))
    if ll1:
        ratio = _SING_FRAC / max(1.0, math.sqrt(ll1))
        cross = min(w / ratio, b)
        count = int(math.ceil(math.log(cross / x0) / math.log1p(ratio)))
        geo = x0 * (1.0 + ratio) ** np.arange(1, count + 1)
        edges = np.union1d(edges, geo[geo < cross])
    n = edges.size - 1
    probes = np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])
    qp = np.asarray(q(probes), dtype=float)
    bad = ~np.isfinite(qp)
    if np.any(bad):
        raise DomainError(f"potential q is not finite at x={probes[bad].min():.6g}")
    vmag = np.maximum(np.abs(qp - om_lo * om_lo), np.abs(qp - om_hi * om_hi))
    cell_v = np.maximum(np.maximum(vmag[:n], vmag[1 : n + 1]), vmag[n + 1 :])
    h = np.minimum(w, _PHASE_FRAC / np.sqrt(np.maximum(cell_v, 1e-300)))
    if ll1:
        h = np.minimum(h, ratio * edges[:-1])
    return edges, h


def _build_grid(
    l: float, b: float, om_lo: float, om_hi: float, q, x0: float
) -> np.ndarray:
    """Step grid on [x0, b] for every frequency in [om_lo, om_hi]: nodes
    that equidistribute int dx/h over the cells of _step_rule, so it has
    ceil(int dx/h) steps and none is longer than the largest h of the
    cells it spans.  Raises DomainError as _step_rule does, or if the grid
    would need more than _MAX_STEPS steps.
    """
    edges, h = _step_rule(l, b, om_lo, om_hi, q, x0)
    level = np.concatenate([[0.0], np.cumsum(np.diff(edges) / h)])
    total = level[-1]
    if not total <= _MAX_STEPS:
        raise DomainError(
            f"the oracle grid would need {total:.3g} steps on (0, {b:.6g}] at "
            f"omega = {om_hi:.6g}, more than the {_MAX_STEPS} allowed"
        )
    return np.interp(np.linspace(0.0, total, math.ceil(total) + 1), level, edges)


def _step_maps(xs: np.ndarray, l: float, om: np.ndarray, q):
    """Per-interval 2x2 transfer matrices of the Magnus propagator, one row
    per frequency in om.

    The omega-free part of the coefficient is evaluated once on the grid
    and -omega^2 is broadcast over the rows.  A step's exponent
    [[d, h], [h vbar, -d]] squares to s I, s = d^2 + h^2 vbar, so its
    exponential is C(s) I + S(s) times it, with C(s) = sum s^k/(2k)! and
    S(s) = sum s^k/(2k+1)! (cos and sin(theta)/theta at s = -theta^2, cosh
    and sinh(theta)/theta at s = theta^2).  Their Taylor sums reach
    rounding at |s| <= 1/16 (the grids keep |s| <= 0.026); a larger |s|
    is scaled by 4^-k and doubled back k times with S <- S C and
    C - 1 <- 2 (C - 1)(C + 1).  The 2-D work runs in place where it can,
    so a call holds at most five rows x steps arrays at once; every value
    is formed by the same operations, in the same order, as for a single
    frequency.
    """
    h = np.diff(xs)
    xm = 0.5 * (xs[:-1] + xs[1:])
    x1 = xm - _GAUSS_OFF * h
    x2 = xm + _GAUSS_OFF * h
    ll1 = l * (l + 1.0)
    om2 = (om * om)[:, None]
    v1 = ((ll1 / (x1 * x1) if ll1 else 0.0) + np.asarray(q(x1))) - om2
    v2 = ((ll1 / (x2 * x2) if ll1 else 0.0) + np.asarray(q(x2))) - om2
    vbar = v1 + v2
    vbar *= 0.5
    d = np.subtract(v1, v2, out=v1)
    d *= (math.sqrt(3.0) / 12.0) * h * h
    s = np.multiply(d, d, out=v2)
    s += h * h * vbar
    top = max(s.max(), -s.min())
    k = (math.frexp(16.0 * top)[1] + 1) // 2 if top > 0.0625 else 0
    if k:
        s *= 0.25 ** k
    # Horner sums of C - 1 (through s^6) and S (through s^5)
    cm1 = s / math.factorial(12)
    for j in range(5, 0, -1):
        cm1 += 1.0 / math.factorial(2 * j)
        cm1 *= s
    sc = s / math.factorial(11)
    for j in range(4, 0, -1):
        sc += 1.0 / math.factorial(2 * j + 1)
        sc *= s
    sc += 1.0
    for _ in range(k):
        sc += sc * cm1
        cm1 *= cm1 + 2.0
        cm1 *= 2.0
    c = np.add(cm1, 1.0, out=cm1)
    scd = np.multiply(sc, d, out=d)
    m11 = np.add(c, scd, out=s)
    m22 = np.subtract(c, scd, out=c)
    m12 = np.multiply(sc, h, out=sc)
    m21 = np.multiply(m12, vbar, out=vbar)
    return m11, m12, m21, m22


def _refine(xs: np.ndarray) -> np.ndarray:
    out = np.empty(2 * xs.size - 1)
    out[0::2] = xs
    out[1::2] = 0.5 * (xs[:-1] + xs[1:])
    return out


def _segment_product(a, b, c, d):
    """Entries of the ordered product M_{n-1} @ ... @ M_0 for matrices
    [[a_i, b_i], [c_i, d_i]] along the last axis (one product per row).

    The product is associative, so it is collapsed by pairwise reduction:
    O(n) arithmetic in O(log n) vectorized passes instead of a Python loop
    over every step.  Rounding differs from a strictly sequential product
    at the 1e-15 level, far below the integrator's error budget.
    """
    while a.shape[-1] > 1:
        n = a.shape[-1]
        m = n - n % 2
        a0, b0, c0, d0 = a[..., 0:m:2], b[..., 0:m:2], c[..., 0:m:2], d[..., 0:m:2]
        a1, b1, c1, d1 = a[..., 1:m:2], b[..., 1:m:2], c[..., 1:m:2], d[..., 1:m:2]
        na = a1 * a0
        na += b1 * c0
        nb = a1 * b0
        nb += b1 * d0
        nc = c1 * a0
        nc += d1 * c0
        nd = c1 * b0
        nd += d1 * d0
        if n % 2:
            na, nb, nc, nd = (np.concatenate([p, e[..., -1:]], axis=-1)
                              for p, e in ((na, a), (nb, b), (nc, c), (nd, d)))
        a, b, c, d = na, nb, nc, nd
    return a[..., 0], b[..., 0], c[..., 0], d[..., 0]


def _chain_2x2(m11, m12, m21, m22, w0, wp0, idx_out):
    """Apply step maps 0..n-1 (last axis) in order to the states (w0, wp0),
    one per row.

    idx_out holds ascending grid-node indices; column j of the returned
    arrays is the state after the first idx_out[j] steps (index 0 is the
    initial state).
    """
    out_w = np.empty((w0.size, len(idx_out)))
    out_wp = np.empty_like(out_w)
    w, wp = w0, wp0
    prev = 0
    for j, idx in enumerate(idx_out.tolist()):
        if idx > prev:
            a, b, c, d = _segment_product(
                m11[:, prev:idx], m12[:, prev:idx], m21[:, prev:idx], m22[:, prev:idx]
            )
            w, wp = a * w + b * wp, c * w + d * wp
            prev = idx
        out_w[:, j] = w
        out_wp[:, j] = wp
    return out_w, out_wp


def _propagate(grid, l, om, q, w0, wp0, x_eval):
    """States at x_eval, one row per frequency; the rows go to _step_maps
    in groups of at most _BLOCK rows x nodes (a single row always whole)."""
    idx = np.searchsorted(grid, x_eval)
    rows = max(1, _BLOCK // grid.size)
    parts = [
        _chain_2x2(*_step_maps(grid, l, om[i : i + rows], q),
                   w0[i : i + rows], wp0[i : i + rows], idx)
        for i in range(0, om.size, rows)
    ]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def _envelope(w, wp, om):
    # per-row amplitude scale that stays O(peak) even when a requested
    # point sits on a node of the oscillating solution
    return np.maximum(
        np.max(np.hypot(w, wp / np.maximum(om, 1.0)[:, None]), axis=1), 1e-300
    )


def _block(setup, om, stop, x0, x_eval):
    """Start of the frequency block that ends just below om[stop] (om
    ascending), and the block's grid: as many frequencies as keep rows x
    nodes within _BLOCK, at least one."""

    def grid_for(start):
        grid = np.union1d(
            _build_grid(setup.l, setup.b, om[start], om[stop - 1], setup.q, x0),
            x_eval,
        )
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


def _solve_block(setup, om, grid, x0, x_eval):
    """Richardson-verified rescaled states (w, w') at x_eval for the
    frequencies om on their shared grid; each row is checked on its own."""
    l = setup.l
    w0, wp0 = _start(setup, om, x0)
    w_a, wp_a = _propagate(grid, l, om, setup.q, w0, wp0, x_eval)
    grid = _refine(grid)
    w_b, wp_b = _propagate(grid, l, om, setup.q, w0, wp0, x_eval)
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
        w_c, wp_c = _propagate(grid, l, om[live], setup.q, w0[live], wp0[live], x_eval)
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
    get alone; it holds at most _BLOCK frequencies x grid nodes, and the
    refined passes split their rows to the same bound, so the memory of a
    call does not grow with the sweep.  The accuracy contract is that of
    regular_solution_ode, and the self-verification runs row by row: a
    row that fails the two-grid test is refined further on its own,
    whatever its neighbours do.  One AccuracyWarning is emitted per call
    if any |omega| b exceeds 2000 pi.  One call over a sweep costs far
    less than a loop of one-frequency calls.  An l that is_integer_l
    takes for an integer is solved as that integer, as everywhere else.

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
    order = np.argsort(om, kind="stable")
    om_sorted = om[order]
    w = np.empty((om.size, x_eval.size))
    wp = np.empty_like(w)
    stop = om.size
    while stop > 0:
        start, grid = _block(setup, om_sorted, stop, x0, x_eval)
        rows = order[start:stop]
        w[rows], wp[rows] = _solve_block(setup, om_sorted[start:stop], grid, x0, x_eval)
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
    grid = _build_grid(setup.l, setup.b, om, om, setup.q, x0)
    maps = _step_maps(grid, setup.l, np.array([om]), setup.q)
    w, wp = _start(setup, om, x0)
    ws = [w]
    for m11, m12, m21, m22 in zip(*(m[0].tolist() for m in maps)):
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
