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
resolves the centrifugal term l(l+1)/x^2.  Where l(l+1) != 0 the grid
starts instead with a layer in t = ln x, the standard treatment of a
regular-singular endpoint (Pryce, Numerical Solution of Sturm-Liouville
Problems, OUP 1993): there v = x^(-1/2) u solves

    v_tt = ((l + 1/2)^2 + (q - omega^2) x^2) v,

whose centrifugal part is a constant that the step exponentiates exactly.
The same Magnus step in t propagates (v, v_t) up to x_L, where |q -
omega^2| x^2 reaches (max(l + 1/2, 1)/4)^2, about a quarter of the
turning point; its t-steps bound the phase and shrink toward x_L, where
the varying part is largest.  The state turns into (w, w') at x_L and at
any requested point inside the layer; past x_L the x rule holds.  x_L is
taken at the highest frequency solved, and at least at the cap frequency
(omega ~ 52 on b = pi), so the frequencies below the cap share one grid.
The step count, and so the cost of a solve, still grows linearly with
omega.
The integration starts at x0 = 1e-6*b from a three-term Frobenius
expansion (the centrifugal term forbids starting at zero), stops at the
last requested point, propagates the rescaled variable w = u / x0^(l+1)
to avoid underflow at large l, and verifies itself by re-running on a
midpoint-refined grid with Richardson extrapolation; further halvings are
added until two consecutive extrapolants agree.  w grows like
(b/x0)^(l+1), so past l ~ 41 x0 moves in to where that is 1e250.  The
self-check cannot see an error that does not change with the grid, so
solves with |omega| b > 2000 pi, past the measured range, warn, and a
start whose omitted terms pass the accuracy contract raises.  The layer's
error does change with its grid, which halves in t, so the self-check
sees it.

A sweep of frequencies is solved in blocks (regular_solutions).  The log
layer is one for the whole sweep, its first two grid levels one pass for
every frequency, and the blocks' grids start at its end.  A block shares
one grid, sized for its lowest and highest |omega|, which bounds the
phase of every frequency in between, so no frequency gets a coarser step
rule than it would alone; the frequencies whose step rule is the cap
alone share the cap's grid.  The omega-free part of every step, q at its
Gauss nodes included, is formed once per range of steps between requested
points, its steps interleaved in eight planes; the step maps are frequency
x step arrays, in tiles of equal rows and at most _BLOCK frequencies x
nodes.  A tile's chain product pairs contiguous halves of its planes and
leaves at most _STASH partial products per frequency in a stash of at
most _BLOCK floats, whose tail and state update then run once per range
for every frequency it holds (all of a sweep below a few thousand).  One
workspace per call holds it all, which bounds the memory of any sweep.
The self-check runs per frequency.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

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
# constant-q solutions (q = 0, 50, -3; l = -1/2..10; |omega| <= 1400; x in
# [0.3, pi]): 8.6e-13 at l = 0 and 4.4e-13 where the log layer serves (9.2e-13
# at l = -1/2 with the centrifugal term graded in x down to x0); against the
# exact q = x^2 ones (l = 0, 1/2, 1, 2; omega <= 235; x = pi/8, pi/2, pi):
# 2.7e-13 (3.3e-13 at x = pi/64).  A step cap of b/200 instead of b/1024
# moved the l = 1/2, M = 100 fit at x = pi 3x further from its exact-data
# fit and out of the coefficient-sum check's tolerance.  _SING_FRAC grades
# the x-steps from the log layer's end until they reach the cap (x ~ 0.2
# at l = 1 on b = pi, all of (x_L, b] from l ~ 22 on); where l(l+1) = 0
# there is neither grading nor layer
_PHASE_FRAC = 0.16
_SING_FRAC = 0.02
# the log layer: it ends where |q - omega^2| x^2 = (_LAYER_FRAC nu)^2, nu =
# max(l + 1/2, _NU_MIN), and its t-steps are at most _DT_END at its end,
# growing like e^(_DT_GROWTH (t_L - t)) below it.  The error of a step there
# goes like dt^7 |q - omega^2| x^2 after extrapolation, and |q - omega^2| x^2
# like e^(2t), so that growth equidistributes it.  The pair also moves the
# oracle's rounding, which an M = 25 fit reads as its noise floor, and so
# where choose_N truncates: from the l = 1, q = x^2 fit 200 eigenvalues are
# off by 6.3e-12 (N = 11), and by at most 5.7e-12 with _DT_END 0.045 or
# 0.055 or _DT_GROWTH 1/4 or 1/3.  With level 1 of the layer as one chain
# product instead of the two pieces of _propagate_layer that table kept
# all its coefficients (N = 23) and they were off by 2.1e-11
_LAYER_FRAC = 0.25
_NU_MIN = 1.0
_DT_END = 0.05
_DT_GROWTH = 2.0 / 7.0
_REL_TOL = 1e-10
# the start's own error budget, relative to w: the accuracy contract
_START_TOL = 1e-10
# |omega| * b validated against the exact constant-q family (5000 pi
# measures 6.1e-12, but the limit stays until such a range is validated)
_PHASE_LIMIT = 2000.0 * math.pi
# frequencies x nodes of a block's grid (its capped frequencies aside),
# and of one tile of the step maps and chain product (padding included); a
# call's workspace holds six float arrays of that size (256 KiB each).
# Larger tiles cost memory and, once the arrays leave the cache, time:
# with 2^16 the l = 1/2, M = 60 fits ran about 20 % slower than with 2^15
_BLOCK = 1 << 15
# steps of one grid: 100 times what |omega| b = 2000 pi needs (~4e4); a
# sweep near omega = 0 on b = 1e300 would ask for 1e150
_MAX_STEPS = 1 << 22
# steps of a range, padded with identity maps, are a multiple of this and
# interleaved in _PAD planes, plane p holding steps _PAD i + _BITREV[p], so
# that the chain product's first three levels each pair two contiguous halves
_PAD = 8
_BITREV = np.array([0, 4, 2, 6, 1, 5, 3, 7])
# partial products per row that a tile of a range leaves for the range's tail
_STASH = 16


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
        Potential evaluator; must accept and return numpy arrays, and be
        finite at x = 0 (DomainError otherwise).
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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q0 = float(np.asarray(self.q(np.array([0.0])))[0])
        if not math.isfinite(q0):
            raise DomainError(f"q(0) = {q0}: the potential must be finite at x=0")
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
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(qs)))
    if bad.size:
        raise DomainError(
            f"potential table row {bad[0] + 1} is not finite: "
            f"x={xs[bad[0]]:.6g}, q={qs[bad[0]]:.6g}"
        )
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


class _Probe(NamedTuple):
    """The frequency-free part of the step rule on [x0, b]."""

    edges: np.ndarray   # probe cells
    cap: np.ndarray     # each cell's longest step
    q_lo: np.ndarray    # least and greatest q at each cell's ends and midpoint
    q_hi: np.ndarray


def _probe(l: float, b: float, q, x0: float) -> _Probe:
    """Probe cells for the step rule on [x0, b]: the 1024 uniform ones of
    width w split at x0 (1 + ratio)^k below ratio x = w, each cell's
    longest step, w and (for the centrifugal term) ratio = _SING_FRAC /
    max(1, sqrt|l(l+1)|) times its left end, and the least and greatest q
    at its ends and midpoint.  Where l(l+1) != 0 the grid starts with the
    log layer of _layer_rule and uses the cells past its end only.  Raises
    DomainError if q is not finite at the probed points."""
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
    return _Probe(edges, cap, cells.min(axis=0), cells.max(axis=0))


def _layer_rule(l: float):
    """(reach, dt) of the log layer at l, (0, 0) where l(l+1) = 0 and there
    is none.  The layer ends where |q - omega^2| x^2 reaches reach =
    (_LAYER_FRAC nu)^2, nu = max(l + 1/2, _NU_MIN); below it V = (l + 1/2)^2
    + (q - omega^2) x^2, so t-steps of at most dt = _PHASE_FRAC /
    sqrt((l + 1/2)^2 + reach) carry at most _PHASE_FRAC rad of phase."""
    if not l * (l + 1.0):
        return 0.0, 0.0
    reach = (_LAYER_FRAC * max(l + 0.5, _NU_MIN)) ** 2
    return reach, _PHASE_FRAC / math.sqrt((l + 0.5) ** 2 + reach)


def _step_rule(probe: _Probe, om_lo: float, om_hi: float):
    """Probe cells and the longest step h[i] on cell [edges[i], edges[i+1]]
    at every frequency in [om_lo, om_hi], at most _PHASE_FRAC rad of phase:
    |q - omega^2| at the probed points is convex in omega^2, so its maximum
    at om_lo and om_hi bounds it in between."""
    edges, cap, q_lo, q_hi = probe
    # in Python floats omega^2 past ~1.3e154 is inf without numpy's overflow warning
    om_lo, om_hi = float(om_lo), float(om_hi)
    cell_v = np.maximum(q_hi - om_lo * om_lo, om_hi * om_hi - q_lo)
    return edges, np.minimum(cap, _PHASE_FRAC / np.sqrt(np.maximum(cell_v, 1e-300)))


def _layer_end(probe: _Probe, l: float, om_lo: float, om_hi: float) -> float:
    """End x_L of the log layer for every frequency in [om_lo, om_hi]: the
    largest x where the bound of _step_rule on |q - omega^2|, times x^2,
    stays within the reach of _layer_rule(l) on every cell below x.  The
    bound is taken at least at the cap frequency, whose phase rule is the
    cap, so every capped frequency gets the same layer.  x0 without a
    layer, b if the bound never passes reach."""
    edges, _, q_lo, q_hi = probe
    reach = _layer_rule(l)[0]
    if not reach:
        return edges[0]
    om_lo, om_hi = float(om_lo), float(om_hi)   # as in _step_rule
    # the floor keeps x_L within the first cells, up to sqrt(reach) / om_cap
    om_cap = _PHASE_FRAC * 1024.0 / (edges[-1] - edges[0])
    head = int(np.searchsorted(edges[:-1], math.sqrt(reach) / om_cap, side="right"))
    cell_v = np.maximum(q_hi[:head] - om_lo * om_lo, om_hi * om_hi - q_lo[:head])
    v = np.maximum.accumulate(np.maximum(cell_v, om_cap * om_cap))
    j = int(np.searchsorted(v * edges[1 : head + 1] ** 2, reach, side="right"))
    return edges[j] if j == head else max(edges[j], math.sqrt(reach / v[j]))


def _build_grid(probe: _Probe, om_lo: float, om_hi: float, x_from: float) -> np.ndarray:
    """Step grid on [x_from, b] for every frequency in [om_lo, om_hi]: nodes
    that equidistribute int dx/h over the cells of _step_rule, so it has
    ceil(int dx/h) steps and none is longer than the largest h of the
    cells it spans.  Raises DomainError if the grid would need more than
    _MAX_STEPS steps.
    """
    edges, h = _step_rule(probe, om_lo, om_hi)
    with np.errstate(divide="ignore"):   # h = 0 where omega^2 is inf
        level = np.concatenate([[0.0], np.cumsum(np.diff(edges) / h)])
    start, total = np.interp(x_from, edges, level), level[-1]
    if not total - start <= _MAX_STEPS:
        raise DomainError(
            f"the oracle grid would need {total - start:.3g} steps on (0, {edges[-1]:.6g}] "
            f"at omega = {om_hi:.6g}, more than the {_MAX_STEPS} allowed"
        )
    # less the sum's rounding, or cells of exactly one step each get one more
    steps = math.ceil((total - start) * (1.0 - 1e-13))
    xs = np.interp(np.linspace(start, total, steps + 1), level, edges)
    xs[0] = x_from
    return xs


def _layer_nodes(x0: float, x_log: float, l: float) -> np.ndarray:
    """Nodes of the log layer on [x0, x_log]: t-steps that equidistribute
    int dt/k with k = min(dt, _DT_END e^(_DT_GROWTH (t_L - t))), dt that of
    _layer_rule(l) and t_L = ln x_log.  Raises DomainError past _MAX_STEPS
    steps."""
    dt = _layer_rule(l)[1]
    span, rate = math.log(x_log / x0), _DT_GROWTH
    end = min(dt, _DT_END)
    knee = min(span, math.log(dt / end) / rate)   # where k reaches dt
    lev_knee = -math.expm1(-rate * knee) / (rate * end)
    total = lev_knee + (span - knee) / dt
    if not total <= _MAX_STEPS:
        raise DomainError(
            f"the oracle's log layer would need {total:.3g} steps on (0, {x_log:.6g}], "
            f"more than the {_MAX_STEPS} allowed"
        )
    lev = np.linspace(0.0, total, math.ceil(total * (1.0 - 1e-13)) + 1)
    near = np.minimum(lev, lev_knee)
    tau = np.where(lev <= lev_knee, -np.log1p(-rate * end * near) / rate,
                   knee + (lev - lev_knee) * dt)
    xs = x_log * np.exp(-tau[::-1])
    xs[0], xs[-1] = x0, x_log
    return xs


def _grid_terms(xs: np.ndarray, l: float, q, buf=None, log: bool = False,
                pieces: int = 1) -> np.ndarray:
    """The omega-free terms of the step maps on the grid xs, cut into
    pieces of equal steps: h, h^2, pbar = (p1 + p2)/2, d = (sqrt(3)/12)
    h^2 (p1 - p2), d^2, with p = l(l+1)/x^2 + q at the Gauss nodes, terms x
    _PAD x 1 x pieces x g in the float array buf if it is large enough.
    Each piece's steps, padded to _PAD g with steps of length 0 (identity
    maps), lie in _PAD planes of g, plane p holding steps _PAD i + _BITREV[p].

    With log, the steps are in t = ln x, where v = x^(-1/2) u solves v_tt =
    V v with V = (l + 1/2)^2 + (q - omega^2) x^2: the six terms are h, h^2,
    a and e of the mean vbar = a - omega^2 e of V at the Gauss nodes, and
    d0 and d1 of d = d0 - omega^2 d1."""
    k = (xs.size - 1) // pieces
    g = -(-k // _PAD)
    count = 6 if log else 5
    size = count * _PAD * pieces * g
    if buf is None or buf.size < size:
        buf = np.empty(size)
    terms = buf[:size].reshape(count, _PAD, 1, pieces, g)
    if log:
        h, h2, a, e, d0, d1 = rows = terms.reshape(count, -1)
        t_lo, t_hi = _ends(np.log(xs), k, pieces, g, rows)
        np.subtract(t_hi, t_lo, out=h)
        mid = 0.5 * (t_lo + t_hi)
        x1, x2 = np.exp(mid - _GAUSS_OFF * h), np.exp(mid + _GAUSS_OFF * h)
        s1, s2 = x1 * x1, x2 * x2
        g1, g2 = q(x1) * s1, q(x2) * s2
        np.multiply(h, h, out=h2)
        np.multiply(h2, math.sqrt(3.0) / 12.0, out=e)
        np.multiply(e, g1 - g2, out=d0)
        np.multiply(e, s1 - s2, out=d1)
        np.add(g1, g2, out=a)
        a *= 0.5
        a += (l + 0.5) ** 2
        np.add(s1, s2, out=e)
        e *= 0.5
        return terms
    h, h2, pbar, d, d2 = rows = terms.reshape(count, -1)
    x_lo, x_hi = _ends(xs, k, pieces, g, rows)
    np.subtract(x_hi, x_lo, out=h)
    np.add(x_lo, x_hi, out=d2)
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


def _ends(v, k, pieces, g, rows):
    """v at the start and at the end of every step of _grid_terms, in its
    planes, formed in its rows 0-3: the nodes in rows 0-1, then the ends
    in rows 2-3, which _grid_terms writes only once it has read them.  A
    padding step starts and ends at its piece's last node."""
    nodes = rows[:2].reshape(-1)[: pieces * (_PAD * g + 1)].reshape(pieces, -1)
    nodes[:, :k] = v[:-1].reshape(pieces, k)
    nodes[:, k:] = v[k::k, None]
    ends = rows[2:4].reshape(2, 2, 2, 2, pieces, g)
    for s in (0, 1):   # plane 4c + 2b + a holds steps 8i + 4a + 2b + c
        ends[s] = nodes[:, s : s + _PAD * g].reshape(pieces, g, 2, 2, 2).transpose(4, 3, 2, 0, 1)
    return ends.reshape(2, -1)


def _step_maps(terms, om: np.ndarray, bufs, log: bool = False):
    """Per-interval 2x2 transfer matrices (m11, m12, m21, m22) of the Magnus
    propagator, one row per frequency in om, from the grid's _grid_terms
    (formed with the same log), in its planes: _PAD x rows x pieces x g.

    omega enters only through vbar = pbar - omega^2 (in the log layer
    through vbar = a - omega^2 e and d = d0 - omega^2 d1).  A step's
    exponent [[d, h], [h vbar, -d]] squares to s I, s = h^2 vbar + d^2, so
    its exponential is C(s) I + S(s) times it, with C(s) = sum s^k/(2k)!
    and S(s) = sum s^k/(2k+1)! (cos and sin(theta)/theta at s = -theta^2,
    cosh and sinh(theta)/theta at s = theta^2).  Their Taylor sums reach
    rounding at |s| <= 1/16 (the grids keep |s| <= 0.027); a larger |s|
    is scaled by 4^-k and doubled back k times with S <- S C and
    C - 1 <- 2 (C - 1)(C + 1); on an x-grid s falls with omega^2, so the
    largest |s| is on the rows of the least and the greatest omega.  The
    work runs in the five arrays bufs of that shape, the maps in the first
    four; every value is formed by the same operations, in the same order,
    as for a single frequency.
    """
    om2 = (om * om)[:, None, None]
    m11, m12, m21, m22, s = bufs
    if log:
        h, h2, a, e, d0, d1 = terms
        vbar = np.subtract(a, np.multiply(e, om2, out=m21), out=m21)
        d = np.subtract(d0, np.multiply(d1, om2, out=m11), out=m11)
        np.multiply(h2, vbar, out=s)
        s += np.multiply(d, d, out=m22)
        top = max(s.max(), -s.min())
    else:
        h, h2, pbar, d, d2 = terms
        vbar = np.subtract(pbar, om2, out=m21)
        np.multiply(h2, vbar, out=s)
        s += d2
        top = max(s[:, np.argmin(om2)].max(), -s[:, np.argmax(om2)].min())
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
    scd = np.multiply(sc, d, out=s)   # d may sit in m11, which this frees
    np.add(c, scd, out=m11)
    np.subtract(c, scd, out=m22)
    np.multiply(sc, h, out=m12)
    np.multiply(m12, vbar, out=m21)
    return bufs[:4]


class _Workspace:
    """A call's grid terms, stash and tile arrays, in one buffer sized for
    its top block's refined pass: glibc trims the heap past twice the
    largest block freed, so smaller buffers make each call trim and regrow
    it.  The stash holds the partial products that a range's tiles leave
    for its tail, _STASH per frequency, and at most _BLOCK floats."""

    def __init__(self, nodes: int, count: int):
        steps = min(_BLOCK, 2 * -(-(nodes - 1) // _PAD) * _PAD)
        cut = 5 * steps + min(4 * _STASH * count, _BLOCK)
        flat = np.empty(cut + 6 * min(_BLOCK, count * steps))
        self.terms, self.stash, self.tiles = flat[: 5 * steps], flat[5 * steps : cut], flat[cut:]

    def maps(self, shape):
        """The five arrays of that shape that _step_maps works in, grown if
        need be; _products reduces the first four within six."""
        size = math.prod(shape)
        if self.tiles.size < 6 * size:
            self.tiles = np.empty(6 * size)
        return self.tiles[: 5 * size].reshape(5, *shape)


def _refine(xs: np.ndarray, log: bool = False) -> np.ndarray:
    """xs with every step halved, in t = ln x with log."""
    out = np.empty(2 * xs.size - 1)
    out[0::2] = xs
    out[1::2] = np.sqrt(xs[:-1] * xs[1:]) if log else 0.5 * (xs[:-1] + xs[1:])
    return out


def _to_log(x0, w, wp):
    """The layer's state (v, v_t) at its start x0 from (w, w'), for
    v = (x0/x)^(1/2) w."""
    return w, x0 * wp - 0.5 * w


def _from_log(x, x0, v, vt):
    """(w, w') at x from the layer's (v, v_t)."""
    r = math.sqrt(x / x0)
    return r * v, r * (0.5 * v + vt) / x


def _pair(even, odd, out):
    """out = odd @ even, 2x2 matrices stacked by entry in rows (a, b, c, d)
    of 1-D views, which numpy iterates without buffers; each entry takes
    the same two products and one sum, and odd's a and b serve as scratch."""
    ea, eb, ec, ed = even
    oa, ob, oc, od = odd
    na, nb, nc, nd = out
    np.multiply(oa, ea, out=na)
    na += np.multiply(ob, ec, out=nc)
    np.multiply(oa, eb, out=nb)
    nb += np.multiply(ob, ed, out=nd)
    np.multiply(oc, ea, out=nc)
    nc += np.multiply(od, ec, out=oa)
    np.multiply(oc, eb, out=nd)
    nd += np.multiply(od, ed, out=ob)


def _halve(src, levels, regions, halves=False):
    """The maps src (4 x n) after that many pairing levels, each into the
    two regions by turns: the pairs are the two halves of src, or with
    halves False neighbours, in stride-2 views."""
    for _ in range(levels):
        n = src.shape[1] // 2
        dst = regions[0][: 4 * n].reshape(4, n)
        _pair(*((src[:, :n], src[:, n:]) if halves else (src[:, ::2], src[:, 1::2])), dst)
        src, regions = dst, regions[::-1]
    return src


def _products(terms, om, rows: int, ws, log: bool = False):
    """Entries (a, b, c, d) of the ordered products M_{n-1} @ ... @ M_0 of
    the step maps of the grid terms, one per frequency in om and piece,
    in groups, each with the slice of om it serves and held in ws until
    the next group's is formed.

    The product is associative, so it is collapsed by pairwise reduction:
    O(n) arithmetic in O(log n) vectorized passes instead of a Python loop
    over every step.  The maps come in tiles of at most rows frequencies,
    in ws.  A tile's first three levels pair the two halves of its planes
    and leave g partial products per row, in order; identity maps pad each
    row to a power of two, and levels of neighbours halve it to at most
    _STASH in ws.stash.  A tail then halves the stash for every row of a
    group, as many tiles as the stash holds (all unless a sweep has
    thousands of frequencies).  An identity paired with a map gives that
    map exactly, so every level pairs as if it carried an odd last map up
    alone.  Rounding differs from a sequential product at the 1e-15
    level, far below the error budget.
    """
    pieces, g = terms.shape[3:]
    width = 1 << (g - 1).bit_length()
    group = rows * max(1, ws.stash.size // (4 * rows * pieces))
    for g0 in range(0, om.size, group):
        part = om[g0 : g0 + group]
        n = part.size * pieces
        keep = min(width, _STASH, 1 << (ws.stash.size // (4 * n)).bit_length() - 1)
        stash = ws.stash[: 4 * n * keep].reshape(4, -1)
        for r in range(0, part.size, rows):
            tile = part[r : r + rows]
            maps = _step_maps(terms, tile, ws.maps((_PAD, tile.size, pieces, g)), log)
            size, area, m = maps[0].size, ws.tiles, tile.size * pieces
            src = _halve(maps.reshape(4, -1), 3, (area[4 * size :], area[:size]), halves=True)
            block = stash[:, r * pieces * keep : (r * pieces + m) * keep]
            if width > g:
                pad = block if width == keep else area[2 * size :][: 4 * m * width]
                pad = pad.reshape(4, m, width)
                pad[..., :g], pad[..., g:] = src.reshape(4, m, g), 0.0
                pad[::3, :, g:] = 1.0   # the identity's a and d
                src = pad.reshape(4, -1)
            levels = (width // keep).bit_length() - 1
            block[...] = _halve(src, levels, (area[:size], area[2 * size : 3 * size]))
        if n > 4:   # the tail takes 3/4 of the stash's size, and ws.tiles is larger
            yield slice(g0, g0 + group), _halve(stash, keep.bit_length() - 1,
                                                (ws.tiles, ws.tiles[2 * n * keep :]))
            continue
        # up to 4 rows the same operations cost less in Python floats: about
        # 0.6 us a map, where a numpy level costs about 10 us (keep 2 to 16)
        out = []
        for r in range(0, n * keep, keep):
            mats = list(zip(*stash[:, r : r + keep].tolist()))
            while len(mats) > 1:
                mats = [(oa * ea + ob * ec, oa * eb + ob * ed, oc * ea + od * ec,
                         oc * eb + od * ed)
                        for (ea, eb, ec, ed), (oa, ob, oc, od) in zip(mats[0::2], mats[1::2])]
            out += mats
        yield slice(g0, g0 + group), np.array(out).T


def _propagate(grid, l, om, q, w0, wp0, x_eval, ws):
    """States (w, w') at x_eval, one row per frequency, from (w0, wp0) at
    grid[0], in the workspace ws: steps in ranges ending at the requested
    points, each range's grid terms formed once, its rows in groups of
    equal size, as few tiles of at most _BLOCK rows x padded steps as there
    can be, and its chain products' tail and state update run once per
    group of _products."""
    idx = np.searchsorted(grid, x_eval)
    most = max(1, _BLOCK // (-(-(grid.size - 1) // _PAD) * _PAD + 1))
    rows = -(-om.size // -(-om.size // most))
    cuts = sorted({*idx.tolist(), *range(0, grid.size - 1, _BLOCK // most - 1)})
    w, wp = np.array(w0, dtype=float), np.array(wp0, dtype=float)
    out_w, out_wp = np.empty((2, om.size, idx.size))
    j = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        terms = _grid_terms(grid[c0 : c1 + 1], l, q, ws.terms)
        for part, (a, b, c, d) in _products(terms, om, rows, ws):
            w[part], wp[part] = a * w[part] + b * wp[part], c * w[part] + d * wp[part]
        if c1 == idx[j]:
            out_w[:, j], out_wp[:, j] = w, wp
            j += 1
    return out_w, out_wp


def _propagate_layer(grids, l, om, q, w0, wp0, ends, ws):
    """States (w, w') at ends, levels x rows x ends arrays, from (w0, wp0)
    at the start of the log layer's grids, grids[i + 1] the refinement of
    grids[i].  The levels run as one pass: over a range of k steps of
    grids[0], level i takes 2^i pieces of k steps each, and the pieces of
    every level are rows of the same tiles (at most _BLOCK pieces x padded
    steps), so one _step_maps call per tile and one _products group serve
    them all; a level's state then goes through its pieces' products in
    order."""
    base = grids[0]
    idx = np.searchsorted(base, ends)
    pieces = 2 ** len(grids) - 1
    most = max(1, _BLOCK // (pieces * (-(-(base.size - 1) // _PAD) * _PAD + 1)))
    rows = -(-om.size // -(-om.size // most))
    cuts = sorted({*idx.tolist(), *range(0, base.size - 1, _BLOCK // (pieces * most) - 1)})
    v0, vt0 = _to_log(base[0], np.asarray(w0, dtype=float), np.asarray(wp0, dtype=float))
    v, vt = np.tile(v0, (len(grids), 1)), np.tile(vt0, (len(grids), 1))
    out_w, out_wp = np.empty((2, len(grids), om.size, idx.size))
    j = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        terms = np.empty((6, _PAD, 1, pieces, -(-(c1 - c0) // _PAD)))
        for i, grid in enumerate(grids):
            n = 2 ** i
            terms[..., n - 1 : 2 * n - 1, :] = _grid_terms(grid[c0 * n : c1 * n + 1], l, q,
                                                         ws.terms, log=True, pieces=n)
        for part, prod in _products(terms, om, rows, ws, log=True):
            prod = prod.reshape(4, -1, pieces)
            for i in range(len(grids)):
                a, b, c, d = prod[..., 2 ** i - 1]
                for p in range(2 ** i, 2 ** (i + 1) - 1):
                    a2, b2, c2, d2 = prod[..., p]
                    a, b, c, d = (a2 * a + b2 * c, a2 * b + b2 * d,
                                  c2 * a + d2 * c, c2 * b + d2 * d)
                vi, vti = v[i, part], vt[i, part]
                v[i, part], vt[i, part] = a * vi + b * vti, c * vi + d * vti
        if c1 == idx[j]:
            out_w[..., j], out_wp[..., j] = _from_log(base[c1], base[0], v, vt)
            j += 1
    return out_w, out_wp


def _envelope(w, wp, om):
    # per-row amplitude scale that stays O(peak) even when a requested
    # point sits on a node of the oscillating solution
    return np.maximum(
        np.max(np.hypot(w, wp / np.maximum(om, 1.0)[:, None]), axis=1), 1e-300
    )


def _block(probe, om, stop, x_eval, x_from):
    """Start of the frequency block that ends just below om[stop] (om
    ascending), and the block's grid from x_from, from the call's
    step-rule probe: as many frequencies as keep rows x nodes within
    _BLOCK, at least one, and if its step rule is the cap alone, every
    capped frequency below."""

    def rule(start):
        return _step_rule(probe, om[start], om[stop - 1])[1]

    def grid_for(start):
        grid = np.union1d(_build_grid(probe, om[start], om[stop - 1], x_from), x_eval)
        # the chain never uses a step past the last requested point
        return grid[: np.searchsorted(grid, x_eval[-1]) + 1]

    def rows(grid):
        return max(1, _BLOCK // grid.size)

    # the top frequency sets most of the grid; a low end where q > omega^2
    # can add nodes, and then the block is cut down until it fits
    h, grid = rule(stop - 1), grid_for(stop - 1)
    start = max(0, stop - rows(grid))
    while start < stop - 1:
        if not np.array_equal(low := rule(start), h):
            h, grid = low, grid_for(start)
        if stop - start <= rows(grid):
            break
        start = stop - rows(grid)
    # in runs of rows(grid), as a top-down cut takes them, to an uncapped low end
    while start and np.all(h == probe.cap) and np.all(rule(max(0, start - rows(grid))) == h):
        start = max(0, start - rows(grid))
    return start, grid


def _two_grid_fails(diff, envelope):
    """Rows whose two-grid difference needs further halvings.

    Agreement to 1e-6 leaves the order-4 extrapolant well past the 1e-10
    contract (validated against closed forms).
    """
    return diff > 1e-6 * envelope


def _x0(l: float, b: float) -> float:
    """Start abscissa: 1e-6 b, moved in to where (b/x0)^(l+1), the growth
    of w = u / x0^(l+1) for omega^2 >= q, is 1e250 when it would pass
    that (l > 40.7), leaving headroom for the Richardson step's 16 w."""
    return b * max(1e-6, 10.0 ** (-250.0 / (l + 1.0)))


def _start(setup, om, x0):
    """Rescaled states (w, w') at x0 from the three-term Frobenius start.

    Its error does not change with the grid, so the self-check cannot see
    it: IntegrationFailure if the first omitted terms, c3 x0^6 of the
    constant-q series and (q(x0) - q0) x0^2 / (6l + 12) of q's variation,
    pass _START_TOL of w.  Below |omega| b = 2000 pi only the larger x0 of
    l > 40.7 comes near that: on b = pi, l = 100 passes it at |omega| ~ 56.
    """
    l = setup.l
    c1 = (setup.q0 - om * om) / (4.0 * l + 6.0)
    c2 = c1 * c1 * (2.0 * l + 3.0) / (4.0 * l + 10.0)
    c3 = np.max(np.abs(c2 * c1)) * (4.0 * l + 6.0) / (12.0 * l + 42.0)
    dq = float(np.asarray(setup.q(np.array([x0])))[0]) - setup.q0
    x2 = x0 * x0
    if not c3 * x2 ** 3 + abs(dq) * x2 / (6.0 * l + 12.0) <= _START_TOL:
        raise IntegrationFailure(
            f"the series start at x0 = {x0:.6g} misses the accuracy contract "
            f"(l = {l:g}, |omega| up to {np.max(om):.6g})", x=x0)
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


def _solve_block(om, x_eval, run):
    """Richardson-verified rescaled states (w, w') at x_eval for the
    frequencies om, from run(level, rows): the states at x_eval of the pass
    on the grids refined level times, for those rows of om.  Each row is
    checked on its own."""
    w_a, wp_a = run(0, np.arange(om.size))
    w_b, wp_b = run(1, np.arange(om.size))
    rich_w, rich_wp = (16.0 * w_b - w_a) / 15.0, (16.0 * wp_b - wp_a) / 15.0

    # rows that pass the two-grid test are final; the others keep halving,
    # as a smaller batch, until consecutive extrapolants agree directly
    diff = np.max(np.abs(w_b - w_a), axis=1)
    live = np.flatnonzero(_two_grid_fails(diff, _envelope(w_b, wp_b, om)))
    w_b, wp_b = w_b[live], wp_b[live]
    for level in (2, 3):
        if live.size == 0:
            break
        w_c, wp_c = run(level, live)
        rich2_w, rich2_wp = (16.0 * w_c - w_b) / 15.0, (16.0 * wp_c - wp_b) / 15.0
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

    The frequencies are sorted by |omega|.  Where l(l+1) != 0 they share
    one log layer near the origin, which ends where it would for the
    highest of them, and past it they are split into blocks.  A block
    shares one grid, sized for its lowest and highest |omega| and so, at
    every frequency in it, no coarser than the step rule that frequency
    would get alone; the frequencies whose step rule is the cap alone (up
    to |omega| ~ 52 on b = pi) share one grid, and in a call that has no
    other frequency, the layer and grid each would get alone.  Every pass
    runs in tiles of equal rows and at most _BLOCK frequencies x padded
    steps, in one workspace.  The accuracy contract is that of
    regular_solution_ode, and the self-verification runs row by row: a row
    that fails the two-grid test is refined further on its own.  One
    AccuracyWarning is emitted per call if any |omega| b exceeds 2000 pi.
    An l that is_integer_l takes for an integer is solved as that integer.

    Raises
    ------
    DomainError
        If omegas is empty or not finite, x_eval is not ascending in
        (0, b], q is not finite on the grid probe, or a grid would need
        more than _MAX_STEPS steps.
    IntegrationFailure
        If grid refinement fails to converge, a solution is not finite
        (large l), or the series start misses the accuracy contract (large
        l and omega); the message names that omega, and ``x`` its abscissa.
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

    x0 = _x0(setup.l, setup.b)
    if x_eval[0] < 2.0 * x0:
        x0 = 0.5 * x_eval[0]
    probe = _probe(setup.l, setup.b, setup.q, x0)
    order = np.argsort(om, kind="stable")
    om_sorted = om[order]
    # one log layer for the call, up to x_log: its passes run once for
    # every frequency, and the blocks' x grids start at its end
    x_log = min(_layer_end(probe, setup.l, om_sorted[0], om_sorted[-1]), x_eval[-1])
    k = int(np.searchsorted(x_eval, x_log, side="right"))   # points read in the layer
    ends = np.union1d(x_eval[:k], [x_log]) if k else np.array([x_log])
    layer_grids = []
    if x_log > x0:
        nodes = _layer_nodes(x0, x_log, setup.l)
        layer_grids.append(np.union1d(nodes, x_eval[:k]) if k else nodes)
    passes = []

    def layer_states(level, rows):
        """States at the requested points in the layer and, last, at x_log,
        or at x0 without a layer; levels 0 and 1 run in one pass for every
        row."""
        if not layer_grids:
            return w0[rows, None], wp0[rows, None]
        while len(layer_grids) <= max(level, 1):
            layer_grids.append(_refine(layer_grids[-1], log=True))
        if level > 1:
            w, wp = _propagate_layer(layer_grids[level : level + 1], setup.l, om_sorted[rows],
                                     setup.q, w0[rows], wp0[rows], ends, ws)
            return w[0], wp[0]
        if not passes:
            passes.extend(_propagate_layer(layer_grids[:2], setup.l, om_sorted, setup.q, w0, wp0,
                                           ends, ws))
        return passes[0][level][rows], passes[1][level][rows]

    ws = None
    w, wp = np.empty((2, om.size, x_eval.size))
    stop = om.size
    while stop > 0:
        if k < x_eval.size:
            start, grid = _block(probe, om_sorted, stop, x_eval[k:], x_log)
        else:
            start, grid = 0, layer_grids[0]
        if ws is None:   # the grid's checks come before the start's
            ws = _Workspace(grid.size, om.size)
            w0, wp0 = _start(setup, om_sorted, x0)
        x_grids = [grid]

        def run(level, live):
            rows = start + live
            lw, lwp = layer_states(level, rows)
            if k == x_eval.size:
                return lw, lwp
            while len(x_grids) <= level:
                x_grids.append(_refine(x_grids[-1]))
            xw, xwp = _propagate(x_grids[level], setup.l, om_sorted[rows], setup.q, lw[:, -1],
                                 lwp[:, -1], x_eval[k:], ws)
            return (np.concatenate([lw[:, :k], xw], axis=1),
                    np.concatenate([lwp[:, :k], xwp], axis=1))

        rows = order[start:stop]
        w[rows], wp[rows] = _solve_block(om_sorted[start:stop], x_eval, run)
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
    against the exact constant-q solutions, l >= -1/2: 8.6e-13 up to
    omega = 1400 on b = pi, 4.9e-12 at omega*b = 2000 pi; against the
    exact q = x^2 ones 2.7e-13 up to omega = 235); the self-verification
    enforces the agreement between grid levels.  Past that range the
    accuracy is not validated, so an AccuracyWarning is emitted.  In a
    sweep (regular_solutions) a frequency shares the sweep's log layer and
    its block's grid, whose steps are no longer than its own rule allows,
    so the same contract holds.

    Raises
    ------
    IntegrationFailure
        If consecutive grid refinements fail to converge; carries the
        abscissa of the worst disagreement.
    """
    u, u_prime = regular_solutions(setup, [omega], x_eval)
    return SolutionSample(float(omega), np.asarray(x_eval, dtype=float), u[0], u_prime[0])


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
    if not math.isfinite(om):
        raise DomainError(f"omega must be finite, got {omega}")
    x0 = _x0(setup.l, setup.b)
    probe = _probe(setup.l, setup.b, setup.q, x0)
    x_log = _layer_end(probe, setup.l, om, om)
    grid = _build_grid(probe, om, om, x_log)
    w, wp = _start(setup, om, x0)
    ws = [w]

    def steps(xs, w, wp, log=False):
        terms = _grid_terms(xs, setup.l, setup.q, log=log)
        maps = _step_maps(terms, np.array([om]), np.empty((5,) + terms.shape[1:]), log)
        # the steps in order, out of the planes (plane 4a + 2b + c holds steps 8i + 4c + 2b + a)
        seq = maps.reshape(4, 2, 2, 2, -1).transpose(0, 4, 3, 2, 1).reshape(4, -1)
        for m11, m12, m21, m22 in zip(*seq[:, : xs.size - 1].tolist()):
            w, wp = m11 * w + m12 * wp, m21 * w + m22 * wp
            ws.append(w)   # v has the sign of w
        return w, wp

    nodes = grid
    if x_log > x0:
        layer = _layer_nodes(x0, x_log, setup.l)
        w, wp = _from_log(x_log, x0, *steps(layer, *_to_log(x0, w, wp), log=True))
        ws[-1] = w
        nodes = np.concatenate([layer[:-1], grid])
    w, wp = steps(grid, w, wp)
    ws = np.array(ws)
    finite = np.isfinite(ws)
    finite[-1] &= math.isfinite(wp)
    _check_finite([omega], nodes, finite[None])
    neg = ws < 0.0
    if abs(w) <= 1e-6 * math.hypot(w, wp / max(om, 1.0)):
        neg[-1] = not neg[-2]
    return int(np.count_nonzero(neg[1:] != neg[:-1]))
