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
the step need not resolve each wavelength finely: the grid allows 0.16 rad
of phase per step (h sqrt|q - omega^2| <= 0.16), and against the exact
constant-q solutions this keeps the error near 1e-11 up to omega b =
1400 pi.  The step count, and so the cost of a solve, still grows linearly
with omega.  A geometric section resolves the centrifugal term
l(l+1)/x^2 near the origin.
The integration starts at x0 = 1e-6*b from a two-term Frobenius expansion
(the centrifugal term forbids starting at zero), stops at the last
requested point, propagates the rescaled variable w = u / x0^(l+1) to
avoid underflow at large l, and verifies itself by re-running on a
midpoint-refined grid with Richardson extrapolation; further halvings are
added until two consecutive extrapolants agree.  The self-check cannot
see the error that builds up over many wavelengths, so solves with
|omega| b > 2000 pi, past the measured range, warn.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyWarning, DomainError, IntegrationFailure

__all__ = [
    "ProblemSetup",
    "SolutionSample",
    "make_potential",
    "regular_solution_ode",
    "exact_solution_harmonic",
]

_GAUSS_OFF = math.sqrt(3.0) / 6.0   # two-point Gauss offset from midpoint

# grid-construction factors; error scales as the 4th power of the phase
# and singularity fractions.  Against the exact constant-q solutions
# (q = 0, 50, -3; l = 0..10; |omega| <= 1400; x in [0.3, pi]) the worst
# relative error is 1.3e-11 at 0.16 and 1.4e-11 at 0.02; at 0.32 the
# fitted l=1/2 coefficients at x=pi (|beta| <= 111) move by 1.1e-10
_PHASE_FRAC = 0.16
_SING_FRAC = 0.02
_HMAX_FRAC = 0.005
_REL_TOL = 1e-10
# |omega| * b validated against the exact constant-q family; past it the
# error grows (2.5e-9 at omega*b = 5000 pi) while the self-check stays quiet
_PHASE_LIMIT = 2000.0 * math.pi


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


def _build_grid(l: float, b: float, omega: float, q, x0: float) -> np.ndarray:
    """Non-uniform step grid on [x0, b].

    The centrifugal term l(l+1)/x^2 is resolved by a geometric section
    whose ratio keeps the local step below a fixed fraction of the local
    length scale x/sqrt(l(l+1)); the oscillation due to q - omega^2 is
    resolved by piecewise-uniform cells of at most _PHASE_FRAC rad of
    phase, sized from a 1024-cell probe of the potential.  The union of
    the two sections satisfies both constraints everywhere.
    """
    parts = [np.array([x0, b])]
    ll1 = l * (l + 1.0)
    if ll1 > 0:
        ratio = _SING_FRAC / max(1.0, math.sqrt(ll1))
        count = int(math.ceil(math.log(b / x0) / math.log1p(ratio)))
        geo = x0 * (1.0 + ratio) ** np.arange(1, count + 1)
        parts.append(geo[geo < b])

    edges = np.linspace(x0, b, 1025)
    probes = np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])
    vmag = np.abs(np.asarray(q(probes)) - omega * omega)
    cell_v = np.maximum(
        np.maximum(vmag[:1024], vmag[1:1025]), vmag[1025:]
    )  # per-cell max over left/right/mid probes
    hmax = _HMAX_FRAC * (b - x0)
    h_req = np.minimum(hmax, _PHASE_FRAC / np.sqrt(np.maximum(cell_v, 1e-300)))
    width = edges[1] - edges[0]
    counts = np.ceil(width / h_req).astype(np.int64)
    starts = np.repeat(edges[:-1], counts)
    steps = np.repeat(width / counts, counts)
    offsets = np.arange(counts.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    parts.append(starts + steps * (offsets + 1))
    return np.unique(np.concatenate(parts))


def _step_maps(xs: np.ndarray, l: float, omega: float, q):
    """Per-interval 2x2 transfer matrices of the Magnus propagator."""
    h = np.diff(xs)
    xm = 0.5 * (xs[:-1] + xs[1:])
    x1 = xm - _GAUSS_OFF * h
    x2 = xm + _GAUSS_OFF * h
    ll1 = l * (l + 1.0)
    om2 = omega * omega
    v1 = (ll1 / (x1 * x1) if ll1 else 0.0) + np.asarray(q(x1)) - om2
    v2 = (ll1 / (x2 * x2) if ll1 else 0.0) + np.asarray(q(x2)) - om2
    vbar = 0.5 * (v1 + v2)
    d = (math.sqrt(3.0) / 12.0) * h * h * (v1 - v2)
    s = d * d + h * h * vbar
    theta = np.sqrt(np.abs(s))
    c = np.empty_like(s)
    sc = np.empty_like(s)
    big = theta > 1e-4
    pos = big & (s > 0)
    neg = big & ~pos
    c[pos] = np.cosh(theta[pos])
    sc[pos] = np.sinh(theta[pos]) / theta[pos]
    c[neg] = np.cos(theta[neg])
    sc[neg] = np.sin(theta[neg]) / theta[neg]
    small = ~big
    ss = s[small]
    c[small] = 1.0 + ss * (0.5 + ss / 24.0)
    sc[small] = 1.0 + ss * (1.0 / 6.0 + ss / 120.0)
    return c + sc * d, sc * h, sc * h * vbar, c - sc * d


def _refine(xs: np.ndarray) -> np.ndarray:
    out = np.empty(2 * xs.size - 1)
    out[0::2] = xs
    out[1::2] = 0.5 * (xs[:-1] + xs[1:])
    return out


def _segment_product(a, b, c, d):
    """Entries of the ordered product M_{n-1} @ ... @ M_0 for matrices
    [[a_i, b_i], [c_i, d_i]].

    The product is associative, so it is collapsed by pairwise reduction:
    O(n) arithmetic in O(log n) vectorized passes instead of a Python loop
    over every step.  Rounding differs from a strictly sequential product
    at the 1e-15 level, far below the integrator's error budget.
    """
    while a.size > 1:
        n2 = a.size // 2
        a0, b0, c0, d0 = a[0 : 2 * n2 : 2], b[0 : 2 * n2 : 2], c[0 : 2 * n2 : 2], d[0 : 2 * n2 : 2]
        a1, b1, c1, d1 = a[1 : 2 * n2 : 2], b[1 : 2 * n2 : 2], c[1 : 2 * n2 : 2], d[1 : 2 * n2 : 2]
        na = a1 * a0 + b1 * c0
        nb = a1 * b0 + b1 * d0
        nc = c1 * a0 + d1 * c0
        nd = c1 * b0 + d1 * d0
        if a.size % 2:
            na = np.concatenate([na, a[-1:]])
            nb = np.concatenate([nb, b[-1:]])
            nc = np.concatenate([nc, c[-1:]])
            nd = np.concatenate([nd, d[-1:]])
        a, b, c, d = na, nb, nc, nd
    return a[0], b[0], c[0], d[0]


def _chain_2x2(m11, m12, m21, m22, w0, wp0, idx_out):
    """Apply step maps 0..n-1 in order to the state (w0, wp0).

    idx_out holds ascending grid-node indices; the returned arrays give the
    state after the first idx steps for each requested index (index 0 is
    the initial state).
    """
    out_w = np.empty(len(idx_out))
    out_wp = np.empty(len(idx_out))
    w, wp = float(w0), float(wp0)
    prev = 0
    for j, idx in enumerate(idx_out):
        idx = int(idx)
        if idx > prev:
            a, b, c, d = _segment_product(
                m11[prev:idx], m12[prev:idx], m21[prev:idx], m22[prev:idx]
            )
            w, wp = a * w + b * wp, c * w + d * wp
            prev = idx
        out_w[j] = w
        out_wp[j] = wp
    return out_w, out_wp


def _propagate(grid, l, omega, q, w0, wp0, x_eval):
    m11, m12, m21, m22 = _step_maps(grid, l, omega, q)
    idx = np.searchsorted(grid, x_eval).astype(np.int64)
    return _chain_2x2(m11, m12, m21, m22, w0, wp0, idx)


def regular_solution_ode(
    setup: ProblemSetup, omega: float, x_eval: Sequence[float]
) -> SolutionSample:
    """Regular solution u(omega, .) with u ~ x^(l+1) at the origin.

    Relative accuracy (measured against the oscillation envelope
    sqrt(u^2 + (u'/omega)^2) over the requested points, so a requested
    point on a node does not deflate the scale) is 1e-10 or better on
    [b/100, b] for smooth potentials and |omega| b <= 2000 pi (measured
    against the exact constant-q solutions: 1.3e-11 up to omega = 1400 on
    b = pi, 6.7e-11 at omega*b = 2000 pi); the self-verification below
    enforces the agreement between grid levels.  Past that range the
    error grows with omega unseen by the self-check (3.3e-10 at
    omega*b = 3000 pi), so an AccuracyWarning is emitted.

    Raises
    ------
    IntegrationFailure
        If consecutive grid refinements fail to converge; carries the
        abscissa of the worst disagreement.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if x_eval.size == 0:
        raise DomainError("x_eval must be nonempty")
    if np.any(np.diff(x_eval) <= 0):
        raise DomainError("x_eval must be strictly ascending")
    if x_eval[0] <= 0 or x_eval[-1] > setup.b * (1 + 1e-12):
        raise DomainError("x_eval must lie in (0, b]")
    om = abs(float(omega))  # the equation depends on omega^2 only
    if om * setup.b > _PHASE_LIMIT:
        warnings.warn(
            f"omega*b = {om * setup.b:.6g} exceeds the validated range "
            f"{_PHASE_LIMIT:.6g} (2000 pi); the 1e-10 accuracy contract "
            "is not guaranteed there",
            AccuracyWarning,
            stacklevel=2,
        )

    x0 = 1e-6 * setup.b
    if x_eval[0] < 2.0 * x0:
        x0 = 0.5 * x_eval[0]
    l = setup.l
    c1 = (setup.q0 - om * om) / (4.0 * l + 6.0)
    w0 = 1.0 + c1 * x0 * x0
    wp0 = (l + 1.0) / x0 + (l + 3.0) * c1 * x0

    def _envelope(w, wp):
        # amplitude scale that stays O(peak) even when a requested point
        # sits on a node of the oscillating solution
        return max(float(np.max(np.hypot(w, wp / max(om, 1.0)))), 1e-300)

    grid = np.union1d(_build_grid(l, setup.b, om, setup.q, x0), x_eval)
    # the chain never uses a step past the last requested point
    grid = grid[: np.searchsorted(grid, x_eval[-1]) + 1]
    w_a, wp_a = _propagate(grid, l, om, setup.q, w0, wp0, x_eval)
    grid = _refine(grid)
    w_b, wp_b = _propagate(grid, l, om, setup.q, w0, wp0, x_eval)
    rich_w = (16.0 * w_b - w_a) / 15.0
    rich_wp = (16.0 * wp_b - wp_a) / 15.0

    diff = np.max(np.abs(w_b - w_a))
    # two-grid agreement to 1e-6 leaves the order-4 extrapolant well past
    # the 1e-10 contract (validated against closed forms); otherwise keep
    # halving until consecutive extrapolants agree directly
    if diff > 1e-6 * _envelope(w_b, wp_b):
        for _ in range(2):
            grid = _refine(grid)
            w_c, wp_c = _propagate(grid, l, om, setup.q, w0, wp0, x_eval)
            rich2_w = (16.0 * w_c - w_b) / 15.0
            rich2_wp = (16.0 * wp_c - wp_b) / 15.0
            err = np.abs(rich2_w - rich_w)
            rich_w, rich_wp = rich2_w, rich2_wp
            w_b, wp_b = w_c, wp_c
            if np.max(err) <= _REL_TOL * _envelope(rich_w, rich_wp):
                break
        else:
            worst = int(np.argmax(err))
            raise IntegrationFailure(
                "grid refinement did not converge to the accuracy contract",
                x=float(x_eval[worst]),
            )

    scale = x0 ** (l + 1.0)
    return SolutionSample(
        omega=float(omega),
        x_values=x_eval,
        u_values=rich_w * scale,
        u_prime_values=rich_wp * scale,
    )


# ---------------------------------------------------------------------------
# closed form for the harmonic potential


def _kummer_1f1(a: float, c: float, z: float, nmax: int = 800):
    """Terminating-in-practice 1F1(a; c; z) partial sum, summed with
    math.fsum; returns (value, largest term magnitude)."""
    term = 1.0
    terms = [term]
    total = 1.0   # plain running sum; only the stop test reads it
    peak = 1.0
    for k in range(nmax):
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        terms.append(term)
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag < 1e-18 * max(abs(total), 1e-300) and abs(a + k) * abs(z) < (
            c + k
        ) * (k + 1.0):
            break
    return math.fsum(terms), peak


def exact_solution_harmonic(l: float, omega: float, x: float) -> float:
    """Closed-form regular solution for q(x) = x^2.

    Evaluates the confluent-hypergeometric form and its Kummer transform,
    keeps whichever suffered less cancellation, and emits AccuracyWarning
    when the estimated relative error exceeds 1e-8.  Intended for
    |omega| <= 12 and x <= pi; beyond that the cancellation grows rapidly
    and regular_solution_ode should be used instead.

    The normalization is u ~ x^(l+1) as x -> 0.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0.0:
        return 0.0
    a = (omega * omega + 2.0 * l + 3.0) / 4.0
    c = l + 1.5
    x2 = x * x
    direct, peak_d = _kummer_1f1(a, c, -x2)
    trans, peak_t = _kummer_1f1(c - a, c, x2)
    val_d = math.exp(0.5 * x2) * direct
    val_t = math.exp(-0.5 * x2) * trans
    # relative roundoff estimate: eps * (largest term) / (final value)
    err_d = 2.2e-16 * math.exp(0.5 * x2) * peak_d / max(abs(val_d), 1e-300)
    err_t = 2.2e-16 * math.exp(-0.5 * x2) * peak_t / max(abs(val_t), 1e-300)
    val, err = (val_d, err_d) if err_d <= err_t else (val_t, err_t)
    if err > 1e-8:
        warnings.warn(
            f"harmonic closed form lost accuracy (estimated relative error "
            f"{err:.1e}) at l={l}, omega={omega}, x={x}",
            AccuracyWarning,
            stacklevel=2,
        )
    return x ** (l + 1.0) * val
