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
allows 0.3 rad of phase per step (h sqrt|q - omega^2| <= 0.3), no step
longer than a cap that the step's own error sets, from b/1024 where q
varies at least as fast as x^2 does to 4b/1024 where it is flat (constant
q at l = 0, where the two-node Gauss Magnus step is exact), and a fixed
fraction of x near the origin, which resolves the centrifugal term
l(l+1)/x^2.  Magnus steps lose no accuracy
as the frequency grows (Iserles, BIT 42, 2002), so the phase allowance
is set by the steps where that grading hands over to it, and fewer steps
gather less rounding.  Where l(l+1) != 0 the grid starts instead with a
layer in t = ln x, the standard treatment of a regular-singular endpoint
(Pryce, Numerical Solution of Sturm-Liouville Problems, OUP 1993): there
v = x^(-1/2) u solves

    v_tt = ((l + 1/2)^2 + (q - omega^2) x^2) v,

whose centrifugal part is a constant that the step exponentiates exactly.
The same Magnus step in t propagates (v, v_t) up to x_L, where |q -
omega^2| x^2 reaches (max(l + 1/2, 1)/4)^2, about a quarter of the
turning point; its t-steps bound the phase and shrink toward x_L, where
the varying part is largest, with at most 0.16 rad of phase per t-step.
The state turns into (w, w') at x_L and at any requested point inside the
layer; past x_L the x rule holds.  x_L is taken at the highest frequency
solved, and at least at a floor frequency (_LAYER_PHASE over b/1024,
the least cap: omega ~ 52 on b = pi), so the frequencies below the floor
share one grid.  The step count, and so the cost of a solve, still grows
linearly with omega.
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
layer is one for the whole sweep, each of its first two grid levels one
pass for every frequency, and the blocks' grids start at its end; one
routine, _propagate, runs every pass, of one grid level each, for the
layer and the blocks' x grids alike, a layer's pass converting the state
to and from t = ln x.  A block shares one grid, sized for its lowest and
highest |omega|, which bounds the phase of every frequency in between,
so no frequency gets a coarser step rule than it would alone; the
frequencies whose step rule is the cap alone share the cap's grid.  Every
call on one ProblemSetup reads one probe of q for the step rule.  The
omega-free part of every step, q at its Gauss nodes included, is formed
once per range of steps between requested points, its steps interleaved
in eight planes; the step maps are frequency x step arrays, in tiles of
equal rows and at most _BLOCK frequencies x nodes.  A tile's chain
product pairs contiguous halves of its planes and leaves at most _STASH
partial products per frequency in a stash of at most _BLOCK floats,
whose tail (the same numpy levels, for one row as for thousands) and
state update then run once per range for every frequency it holds (all
of a sweep below a few thousand).  One workspace per call holds it all,
which bounds the memory of any sweep.  The self-check runs per
frequency.  Sturm's count (zero_count) reads the sign of w at every node
of one frequency's grid from the prefix products of its step maps, a
scan in log2(steps) numpy levels.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
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
# constant-q solutions (q = 0, 50, -3; l = -1/2..10; omega = 40..1999; x in
# [0.3, pi]): 1.2e-12, against 4.8e-12 with x-steps of 0.16 rad, whose
# extra steps gathered more rounding; against the exact q = x^2 ones (l =
# 0, 1/2, 1, 2; omega <= 600; x = pi/64, pi/8, pi/2, pi; one sweep):
# 1.4e-12 (4.7e-13).  0.35 / 0.4 / 0.5 rad read 3.3e-12 / 7.1e-12 /
# 1.5e-11 there: the error of the x-steps where the centrifugal grading
# hands over to the phase rule, not of the oscillation.  0.3 rad took an
# l = 1/2, M = 60 fit at x = pi from 909,186 to 705,861 rows x steps
# (688,446 at 0.4).  A step cap of b/200 instead of b/1024 moved the
# l = 1/2, M = 100 fit at x = pi 3x further from its exact-data fit and
# out of the coefficient-sum check's tolerance.  _SING_FRAC grades
# the x-steps from the log layer's end until they reach the cap (x ~ 0.2
# at l = 1 on b = pi, all of (x_L, b] from l ~ 22 on); where l(l+1) = 0
# there is neither grading nor layer
_X_PHASE = 0.3
_SING_FRAC = 0.02
# the step cap (_probe): trial steps of _TRIAL probe cells, and the error
# _CAP_TOL of a step at its cap.  On b = pi a trial step's error reads at
# least 1.54e-10 for q = x^2 and 1 + x^2 (the first window, where q' ~ 0,
# at omega ~ 98), 5.0e-10 for x^2 at l = 1/2 and 1, 1.3e-8 to 2.5e-7 for
# 20 + s x (s = 1..20: the slope counts as well as the curvature), and at
# most 1.1e-15 for constant q at l = 0 (b = 0.2..10, q = -50..50), where
# the Magnus step is exact.  _CAP_TOL = 1e-13 leaves w to every cell where
# the error passes _CAP_TOL 4^5 = 1.02e-10, so every grid of x^2 and 1 +
# x^2 keeps its bits, and takes constant q to 4w.  Forced on every cell,
# 4w read 1.4e-11 against the Airy closed form on 20 + 20x (4.1e-13 at
# w); on q = 20 longer caps took a verify-const pass from 0.462 M oracle
# rows x steps (probes included) to no less than 0.458 M
_TRIAL = 4
_CAP_TOL = 1e-13
# the log layer: it ends where |q - omega^2| x^2 = (_LAYER_FRAC nu)^2, nu =
# max(l + 1/2, _NU_MIN), and its t-steps are at most _DT_END at its end,
# growing like e^(_DT_GROWTH (t_L - t)) below it.  The error of a step there
# goes like dt^7 |q - omega^2| x^2 after extrapolation, and |q - omega^2| x^2
# like e^(2t), so that growth equidistributes it.  The pair also moves the
# oracle's rounding, which a fit reads as its noise floor: _DT_END from
# 0.03 to 0.07 moved the index where the l = 1, q = x^2, M = 25 beta table
# at x = pi stops decaying anywhere from 13 to 25 (13 at 0.05).
# _LAYER_PHASE bounds the phase of a t-step, and sets the floor of x_L's
# frequency
_LAYER_PHASE = 0.16
_LAYER_FRAC = 0.25
_NU_MIN = 1.0
_DT_END = 0.05
_DT_GROWTH = 2.0 / 7.0
_REL_TOL = 1e-10
# the start's own error budget, relative to w: the accuracy contract
_START_TOL = 1e-10
# |omega| * b validated against the exact constant-q family (5000 pi
# measures 2.6e-12, 9.2e-12 with x-steps of 0.16 rad, but the limit stays
# until such a range is validated)
_PHASE_LIMIT = 2000.0 * math.pi
# frequencies x nodes of a block's grid (its capped frequencies aside),
# and of one tile of the step maps and chain product (padding included); a
# call's workspace holds six float arrays of that size (256 KiB each).
# Larger tiles cost memory and, once the arrays leave the cache, time:
# with 2^16 the l = 1/2, M = 60 fits ran about 20 % slower than with 2^15
_BLOCK = 1 << 15
# steps of one grid: 200 times what |omega| b = 2000 pi needs (~2.1e4); a
# sweep near omega = 0 on b = 1e300 would ask for 1e150
_MAX_STEPS = 1 << 22
# steps of a range, padded with identity maps, are a multiple of this and
# interleaved in _PAD planes, plane p holding steps _PAD i + _BITREV[p], so
# that the chain product's first three levels each pair two contiguous halves
_PAD = 8
_BITREV = np.array([0, 4, 2, 6, 1, 5, 3, 7])
# partial products per row that a tile of a range leaves for the range's tail
_STASH = 16
# floats per 64-byte cache line.  numpy starts a large array 16 or 48 bytes
# past a line, and a ufunc whose output starts off a line ran 2.3x slower
# (0.80 against 0.34 ns a float for a 3-operand add on 32,768, AVX-512), so
# the workspace, and every row that _halve writes, starts on one
_LINE = 8


@dataclass(frozen=True)
class ProblemSetup:
    """The data (l, b, q) of a perturbed Bessel problem.

    Parameters
    ----------
    l : float
        Singular index, >= -1/2.  An l that is_integer_l takes for an
        integer is stored, and so solved, as that integer.
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
        if is_integer_l(self.l):
            object.__setattr__(self, "l", float(round(self.l)))
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError(f"b must be finite and > 0, got {self.b}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q0 = float(np.asarray(self.q(np.array([0.0])))[0])
        if not math.isfinite(q0):
            raise DomainError(f"q(0) = {q0}: the potential must be finite at x=0")
        object.__setattr__(self, "q0", q0)

    @cached_property
    def _step_probe(self):
        """The step-rule probe at _x0(l, b), built on the first oracle call."""
        return _probe(self.l, self.b, self.q, _x0(self.l, self.b))


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
        from .spline import table_potential   # compiled only where a table needs it

        return table_potential(descriptor, b), "C2"
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
    longest step, and the least and greatest q at its ends and midpoint.

    A cell's longest step, its cap, is set by the step's own error, on
    windows of _TRIAL cells that start every _TRIAL / 2 cells: one Magnus
    step H against two of H/2, at omega = 0 and at _X_PHASE / w, where the
    phase rule takes over from w.  Their larger difference e in (u, u' /
    max(omega, 1)) is the error of a step of H to leading order and goes
    like H^5, so H (_CAP_TOL / e)^(1/5) meets _CAP_TOL; it is bounded to
    [w, H] (a non-finite e reads as inf), and a cell takes the least of
    the two windows over it.  Every point but the first and last 0.43 w
    lies between the Gauss nodes of some window's step H or H/2, so a jump
    in q is seen, and its cell and the next one on either side keep w: a
    longer step from a flat cell, entering a cell of cap w by at most w,
    ends short of the jump's.  Where l(l+1) != 0 the cap is at
    most ratio = _SING_FRAC / max(1, sqrt|l(l+1)|) times the cell's left
    end, for the centrifugal term; below ratio x = w that is the cap, and
    the windows start past it.  The grid then starts with the log layer of
    _layer_rule and uses the cells past its end only.  Raises DomainError
    if q is not finite at the probed points."""
    edges = uniform = np.linspace(x0, b, 1025)
    w = edges[1] - x0
    ll1 = abs(l * (l + 1.0))
    ratio = _SING_FRAC / max(1.0, math.sqrt(ll1))
    cross = min(w / ratio, b) if ll1 else x0
    cap = np.full(1024, w)
    k = _TRIAL // 2
    j = -(-int(np.searchsorted(edges, cross)) // _TRIAL) * _TRIAL
    if j < 1024:
        n = (1024 - j) // _TRIAL
        om = np.array([0.0, _X_PHASE / w])
        with np.errstate(all="ignore"):
            # one grid: the trial steps that start k cells past a multiple
            # of _TRIAL, taken backwards, then the half steps up to b and the
            # other trial steps, backwards (the step b -> b is the identity).
            # A step taken backwards is its forward map's inverse, whose
            # adjugate gives that map exactly
            m = _maps(np.concatenate([edges[j + k :: _TRIAL][::-1], edges[j::k],
                                      edges[j::_TRIAL][::-1]]), l, q, om)
            d = np.empty((4, 2, 2 * n - 1))
            d[..., ::2] = m[..., : 3 * n : -1]
            d[..., 1::2] = m[..., : n - 1][..., ::-1]
            half = m[..., n : 3 * n]
            _pair(half[..., :-1], half[..., 1:].copy(), prod := np.empty_like(d))
            d[::3] = d[::-3] - prod[::3]
            d[1:3] += prod[1:3]
            d[1, 1] *= max(om[1], 1.0)
            d[2, 1] /= max(om[1], 1.0)
            c = np.fmax(w, _TRIAL * w * np.minimum(1.0, (_CAP_TOL / abs(d).max((0, 1))) ** 0.2))
        p = np.concatenate([c[:1], c, c[-1:]])
        cap[j:] = np.repeat(np.minimum(p[:-1], p[1:]), k)
    if ll1:
        count = int(math.ceil(math.log(cross / x0) / math.log1p(ratio)))
        geo = x0 * (1.0 + ratio) ** np.arange(1, count + 1)
        edges = np.union1d(edges, geo[geo < cross])
        cap = np.minimum(cap[np.searchsorted(uniform, edges[:-1], side="right") - 1],
                         ratio * edges[:-1])
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
    + (q - omega^2) x^2, so t-steps of at most dt = _LAYER_PHASE /
    sqrt((l + 1/2)^2 + reach) carry at most _LAYER_PHASE rad of phase."""
    if not l * (l + 1.0):
        return 0.0, 0.0
    reach = (_LAYER_FRAC * max(l + 0.5, _NU_MIN)) ** 2
    return reach, _LAYER_PHASE / math.sqrt((l + 0.5) ** 2 + reach)


def _step_rule(probe: _Probe, om_lo: float, om_hi: float):
    """Probe cells and the longest step h[i] on cell [edges[i], edges[i+1]]
    at every frequency in [om_lo, om_hi]: the cell's cap from _probe, set
    by the step's error and frequency-free, and at most _X_PHASE rad of
    phase: |q - omega^2| at the probed points is convex in omega^2, so its
    maximum at om_lo and om_hi bounds it in between.  The phase rule takes
    over from a cap c at omega ~ _X_PHASE / c: ~98 on b = pi where c is
    b/1024, ~24 where it is 4b/1024."""
    edges, cap, q_lo, q_hi = probe
    # in Python floats omega^2 past ~1.3e154 is inf without numpy's overflow warning
    om_lo, om_hi = float(om_lo), float(om_hi)
    cell_v = np.maximum(q_hi - om_lo * om_lo, om_hi * om_hi - q_lo)
    return edges, np.minimum(cap, _X_PHASE / np.sqrt(np.maximum(cell_v, 1e-300)))


def _layer_end(probe: _Probe, l: float, om_lo: float, om_hi: float) -> float:
    """End x_L of the log layer for every frequency in [om_lo, om_hi]: the
    largest x where the bound of _step_rule on |q - omega^2|, times x^2,
    stays within the reach of _layer_rule(l) on every cell below x.  The
    bound is taken at least at the floor frequency _LAYER_PHASE 1024 / (b -
    x0) (~52 on b = pi), _LAYER_PHASE over the least cap, so every
    frequency below the floor gets the same layer.  x0 without a layer, b
    if the bound never passes reach."""
    edges, _, q_lo, q_hi = probe
    reach = _layer_rule(l)[0]
    if not reach:
        return edges[0]
    om_lo, om_hi = float(om_lo), float(om_hi)   # as in _step_rule
    # the floor keeps x_L within the first cells, up to sqrt(reach) / om_floor
    om_floor = _LAYER_PHASE * 1024.0 / (edges[-1] - edges[0])
    head = int(np.searchsorted(edges[:-1], math.sqrt(reach) / om_floor, side="right"))
    cell_v = np.maximum(q_hi[:head] - om_lo * om_lo, om_hi * om_hi - q_lo[:head])
    v = np.maximum.accumulate(np.maximum(cell_v, om_floor * om_floor))
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


def _grid_terms(xs: np.ndarray, l: float, q, buf=None, log: bool = False) -> np.ndarray:
    """The omega-free terms of the step maps on the grid xs: h, h^2, pbar
    = (p1 + p2)/2, d = (sqrt(3)/12) h^2 (p1 - p2), d^2, with p = l(l+1)/x^2
    + q at the Gauss nodes, terms x _PAD x 1 x g in the float array buf if
    it is large enough.  The steps, padded to _PAD g with steps of length 0
    (identity maps), lie in _PAD planes of g, plane p holding steps _PAD i
    + _BITREV[p].

    With log, the steps are in t = ln x, where v = x^(-1/2) u solves v_tt =
    V v with V = (l + 1/2)^2 + (q - omega^2) x^2: the six terms are h, h^2,
    a and e of the mean vbar = a - omega^2 e of V at the Gauss nodes, and
    d0 and d1 of d = d0 - omega^2 d1."""
    g = -(-(xs.size - 1) // _PAD)
    count = 6 if log else 5
    size = count * _PAD * g
    if buf is None or buf.size < size:
        buf = _aligned(size)
    terms = buf[:size].reshape(count, _PAD, 1, g)
    if log:
        h, h2, a, e, d0, d1 = rows = terms.reshape(count, -1)
        t_lo, t_hi = _ends(np.log(xs), g, rows)
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
    x_lo, x_hi = _ends(xs, g, rows)
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


def _ends(v, g, rows):
    """v at the start and at the end of every step of _grid_terms, in its
    planes, formed in its rows 0-3: the nodes in rows 0-1, then the ends
    in rows 2-3, which _grid_terms writes only once it has read them.  A
    padding step starts and ends at the last node."""
    nodes = rows[:2].reshape(-1)[: _PAD * g + 1]
    nodes[: v.size], nodes[v.size :] = v, v[-1]
    ends = rows[2:4].reshape(2, 2, 2, 2, g)
    for s in (0, 1):   # plane 4c + 2b + a holds steps 8i + 4a + 2b + c
        ends[s] = nodes[s : s + _PAD * g].reshape(g, 2, 2, 2).transpose(3, 2, 1, 0)
    return ends.reshape(2, -1)


def _step_maps(terms, om: np.ndarray, bufs, log: bool = False):
    """Per-interval 2x2 transfer matrices (m11, m12, m21, m22) of the Magnus
    propagator, one row per frequency in om, from the grid's _grid_terms
    (formed with the same log), in its planes: _PAD x rows x g.

    omega enters only through vbar = pbar - omega^2 (in the log layer
    through vbar = a - omega^2 e and d = d0 - omega^2 d1).  A step's
    exponent [[d, h], [h vbar, -d]] squares to s I, s = h^2 vbar + d^2, so
    its exponential is C(s) I + S(s) times it, with C(s) = sum s^k/(2k)!
    and S(s) = sum s^k/(2k+1)! (cos and sin(theta)/theta at s = -theta^2,
    cosh and sinh(theta)/theta at s = theta^2).  Their Taylor sums reach
    rounding at |s| <= 1/16 (the log layer keeps |s| <= 0.027, and so do
    x-steps of b/1024 below omega ~ 52 on b = pi; other x-steps reach |s|
    ~ _X_PHASE^2 = 0.09); a larger |s| is scaled by 4^-k and doubled back k
    times with S <- S C and C - 1 <- 2 (C - 1)(C + 1), k set by the
    largest |s| of the tile (k = 1 up to |s| = 1/4).  The
    work runs in the five arrays bufs of that shape, the maps in the first
    four; every value is formed by the same operations, in the same order,
    as for a single frequency.
    """
    om2 = (om * om)[:, None]
    m11, m12, m21, m22, s = bufs
    if log:
        h, h2, a, e, d0, d1 = terms
        vbar = np.subtract(a, np.multiply(e, om2, out=m21), out=m21)
        d = np.subtract(d0, np.multiply(d1, om2, out=m11), out=m11)
        np.multiply(h2, vbar, out=s)
        s += np.multiply(d, d, out=m22)
    else:
        h, h2, pbar, d, d2 = terms
        vbar = np.subtract(pbar, om2, out=m21)
        np.multiply(h2, vbar, out=s)
        s += d2
    top = max(s.max(), -s.min())
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


def _aligned(size: int) -> np.ndarray:
    """An uninitialized float array of that size that starts on a cache line."""
    buf = np.empty(size + _LINE - 1)
    skip = -buf.__array_interface__["data"][0] % (8 * _LINE) // 8
    return buf[skip : skip + size]


def _lines(n: int) -> int:
    """n floats rounded up to whole cache lines."""
    return -(-n // _LINE) * _LINE


class _Workspace:
    """A call's grid terms, stash and tile arrays, in one buffer sized for
    its top block's refined pass: glibc trims the heap past twice the
    largest block freed, so smaller buffers make each call trim and regrow
    it.  The stash holds the partial products that a range's tiles leave
    for its tail, _STASH per frequency, and at most _BLOCK floats.  The
    buffer starts on a cache line, and so does each of its three parts."""

    def __init__(self, nodes: int, count: int):
        steps = min(_BLOCK, 2 * -(-(nodes - 1) // _PAD) * _PAD)
        cut = 5 * steps + min(4 * _STASH * count, _BLOCK)
        flat = _aligned(cut + 6 * min(_BLOCK, count * steps) + 2 * _LINE)
        self.terms, self.stash, self.tiles = flat[: 5 * steps], flat[5 * steps : cut], flat[cut:]

    def area(self, size: int) -> np.ndarray:
        """ws.tiles, regrown on a cache line if it holds fewer than size floats."""
        if self.tiles.size < size:
            self.tiles = _aligned(size)
        return self.tiles

    def maps(self, shape):
        """The five arrays of that shape that _step_maps works in, grown if
        need be; _products reduces the first four within six, the first
        level's rows padded to whole lines (two more lines at most)."""
        size = math.prod(shape)
        return self.area(6 * size + 2 * _LINE)[: 5 * size].reshape(5, *shape)


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
    halves False neighbours, in stride-2 views.  A level of n pairs writes
    four rows, each starting on a cache line, in the first 4 _lines(n)
    floats of its region."""
    for _ in range(levels):
        n = src.shape[1] // 2
        dst = regions[0][: 4 * _lines(n)].reshape(4, -1)[:, :n]
        _pair(*((src[:, :n], src[:, n:]) if halves else (src[:, ::2], src[:, 1::2])), dst)
        src, regions = dst, regions[::-1]
    return src


def _products(terms, om, rows: int, ws, log: bool = False):
    """Entries (a, b, c, d) of the ordered products M_{n-1} @ ... @ M_0 of
    the step maps of the grid terms, one per frequency in om, in groups,
    each with the slice of om it serves and held in ws until the next
    group's is formed.

    The product is associative, so it is collapsed by pairwise reduction:
    O(n) arithmetic in O(log n) vectorized passes instead of a Python loop
    over every step.  The maps come in tiles of at most rows frequencies,
    in ws.  A tile's first three levels pair the two halves of its planes
    and leave g partial products per row, in order; identity maps pad each
    row to a power of two, and levels of neighbours halve it to at most
    _STASH in ws.stash.  One tail then halves the stash for every row of
    a group, as many tiles as the stash holds (all unless a sweep has
    thousands of frequencies), in the same numpy levels however few the
    rows.  An identity paired with a map gives that map exactly, so every
    level pairs as if it carried an odd last map up alone.  Rounding
    differs from a sequential product at the 1e-15 level, far below the
    error budget.
    """
    g = terms.shape[-1]
    width = 1 << (g - 1).bit_length()
    group = rows * max(1, ws.stash.size // (4 * rows))
    for g0 in range(0, om.size, group):
        part = om[g0 : g0 + group]
        n = part.size
        keep = min(width, _STASH, 1 << (ws.stash.size // (4 * n)).bit_length() - 1)
        stash = ws.stash[: 4 * n * keep].reshape(4, -1)
        for r in range(0, n, rows):
            tile = part[r : r + rows]
            maps = _step_maps(terms, tile, ws.maps((_PAD, tile.size, g)), log)
            size, area, m = maps[0].size, ws.tiles, tile.size
            src = _halve(maps.reshape(4, -1), 3, (area[4 * size :], area[: 4 * size]), halves=True)
            block = stash[:, r * keep : (r + m) * keep]
            if width > g:
                pad = block if width == keep else area[2 * size :][: 4 * m * width]
                pad = pad.reshape(4, m, width)
                pad[..., :g], pad[..., g:] = src.reshape(4, m, g), 0.0
                pad[::3, :, g:] = 1.0   # the identity's a and d
                src = pad.reshape(4, -1)
            levels = (width // keep).bit_length() - 1
            block[...] = _halve(src, levels, (area[: 2 * size], area[2 * size :]))
        # the tail's second region starts past its first level's padded rows
        first = 4 * _lines(n * keep // 2)
        area = ws.area(first + 4 * _lines(n * keep // 4))
        yield slice(g0, g0 + group), _halve(stash, keep.bit_length() - 1,
                                            (area, area[first:]))


def _maps(xs, l, q, om, log=False):
    """The step maps of the grid xs at the frequencies om, in order: 4 x
    rows x steps, out of _step_maps' planes (_BITREV is its own inverse)."""
    terms = _grid_terms(xs, l, q, log=log)
    maps = _step_maps(terms, om, _aligned(5 * om.size * terms[0].size).reshape(
        5, _PAD, om.size, -1), log)
    return maps[:, _BITREV].transpose(0, 2, 3, 1).reshape(4, om.size, -1)[..., : xs.size - 1]


def _prefix(maps, spare):
    """Prefix products M_j @ ... @ M_0 of the maps (4 x n, in order) by a
    Hillis-Steele scan: level k multiplies each product by the one 2^k
    places before it, in log2(n) levels of _pair, in maps and spare by turns."""
    d = 1
    while d < maps.shape[1]:
        spare[:, :d] = maps[:, :d]
        _pair(maps[:, :-d], maps[:, d:], spare[:, d:])
        maps, spare, d = spare, maps, 2 * d
    return maps


def _propagate(grid, l, om, q, w0, wp0, ends, ws, log=False):
    """States (w, w') at ends, rows x ends arrays, from (w0, wp0) at the
    start of the grid, in the workspace ws; with log the grid is the log
    layer's, whose steps are in t = ln x and whose state is (v, v_t).
    Steps run in ranges ending at the requested points, each range's grid
    terms formed once and its maps in tiles of equal rows (as few as
    there can be, of at most _BLOCK frequencies x padded steps); the state
    goes through each group's products once per range."""
    idx = np.searchsorted(grid, ends)
    most = max(1, _BLOCK // (-(-(grid.size - 1) // _PAD) * _PAD + 1))
    rows = -(-om.size // -(-om.size // most))
    cuts = sorted({*idx.tolist(), *range(0, grid.size - 1, _BLOCK // most - 1)})
    v, vt = np.array(_to_log(grid[0], w0, wp0) if log else (w0, wp0))   # a copy
    out_w, out_wp = np.empty((2, om.size, idx.size))
    j = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        terms = _grid_terms(grid[c0 : c1 + 1], l, q, ws.terms, log)
        for part, (a, b, c, d) in _products(terms, om, rows, ws, log):
            vi, vti = v[part], vt[part]
            v[part], vt[part] = a * vi + b * vti, c * vi + d * vti
        if c1 == idx[j]:
            out_w[:, j], out_wp[:, j] = _from_log(grid[c1], grid[0], v, vt) if log else (v, vt)
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
    _BLOCK, at least one, and if its step rule is the cap alone on every
    cell, every such frequency below."""

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


def regular_solutions(setup: ProblemSetup, omegas, x_eval: Sequence[float]):
    """Regular solutions u(omega, .) with u ~ x^(l+1) at the origin, for a
    whole sweep of frequencies at once, at setup's l (which ProblemSetup
    has rounded if is_integer_l takes it for an integer).

    Returns (u, u_prime), arrays of shape (len(omegas), len(x_eval)).

    The frequencies are sorted by |omega|.  Where l(l+1) != 0 they share
    one log layer near the origin, which ends where it would for the
    highest of them, and past it they are split into blocks.  A block
    shares one grid, sized for its lowest and highest |omega| and so, at
    every frequency in it, no coarser than the step rule that frequency
    would get alone; the frequencies whose step rule is the cap alone
    share one grid (on b = pi up to |omega| ~ 98 where the caps are all
    b/1024, as for q = x^2, and ~24 where they are 4b/1024, as for
    constant q at l = 0), and in a call that has no other frequency, the
    layer and grid each would get alone.  Every pass,
    of one grid level of the layer or of a block's x grid, is one
    _propagate call and runs in tiles of equal rows and at most _BLOCK
    frequencies x padded steps, in one workspace; the layer's levels 0
    and 1 run once, for every frequency of the call.  The accuracy
    contract is that of regular_solution_ode, and the self-verification
    runs row by row: a row that fails the two-grid test is refined further
    on its own.  One AccuracyWarning is emitted per call if any |omega| b
    exceeds 2000 pi.

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
    top = float(np.max(om))
    if top * setup.b > _PHASE_LIMIT:
        warnings.warn(
            f"omega*b = {top * setup.b:.6g} exceeds the validated range "
            f"{_PHASE_LIMIT:.6g} (2000 pi); the 1e-10 accuracy contract "
            "is not guaranteed there",
            AccuracyWarning,
            stacklevel=2,
        )

    x0, probe = _x0(setup.l, setup.b), setup._step_probe
    if x_eval[0] < 2.0 * x0:   # a point near the origin moves x0 in
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
    passes = {}

    def layer_states(level, rows):
        """States at the requested points in the layer and, last, at x_log,
        or at x0 without a layer; levels 0 and 1 run once for every row."""
        if not layer_grids:
            return w0[rows, None], wp0[rows, None]
        while len(layer_grids) <= level:
            layer_grids.append(_refine(layer_grids[-1], log=True))
        if level > 1:
            return _propagate(layer_grids[level], setup.l, om_sorted[rows], setup.q,
                              w0[rows], wp0[rows], ends, ws, log=True)
        if level not in passes:
            passes[level] = _propagate(layer_grids[level], setup.l, om_sorted, setup.q,
                                       w0, wp0, ends, ws, log=True)
        w, wp = passes[level]
        return w[rows], wp[rows]

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
            xw, xwp = _propagate(x_grids[level], setup.l, om_sorted[rows], setup.q,
                                 lw[:, -1], lwp[:, -1], x_eval[k:], ws)
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
    against the exact constant-q solutions, l >= -1/2: 9.5e-13 up to
    omega = 1400 on b = pi, 1.1e-12 at omega*b = 2000 pi; against the
    exact q = x^2 ones 1.3e-12 up to omega = 600, 4.2e-12 with one more
    requested point anywhere in [0.005, 0.5]); the self-verification
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
    node of regular_solutions' grid for omega alone (its level 0), from
    the same start, through the prefix products of the layer's and then
    the x grid's step maps (_prefix); a step carries at most _X_PHASE
    rad of phase at the probed points (the layer's _LAYER_PHASE), far
    below the pi between two zeros, so none hides two zeros.  |w(b)|
    within 1e-6 of the envelope there (the grid's error is below 2e-8 of
    it) is a zero at b, whichever way its sign tips.  Raises as regular_solutions does.
    """
    om = abs(float(omega))
    if not math.isfinite(om):
        raise DomainError(f"omega must be finite, got {omega}")
    x0, probe = _x0(setup.l, setup.b), setup._step_probe
    x_log = _layer_end(probe, setup.l, om, om)
    grid = _build_grid(probe, om, om, x_log)
    w, wp = _start(setup, om, x0)

    def states(xs, w, wp, log=False):
        """The states at xs[1:] from (w, w') at xs[0], (v, v_t) with log."""
        a, b, c, d = _prefix(_maps(xs, setup.l, setup.q, np.array([om]), log)[:, 0],
                             np.empty((4, xs.size - 1)))
        return a * w + b * wp, c * w + d * wp

    ws, nodes = [[w]], grid
    if x_log > x0:
        layer = _layer_nodes(x0, x_log, setup.l)
        v, vt = states(layer, *_to_log(x0, w, wp), log=True)
        w, wp = _from_log(x_log, x0, v[-1], vt[-1])
        ws.append(v)   # v has the sign of w
        nodes = np.concatenate([layer[:-1], grid])
    xw, xwp = states(grid, w, wp)
    ws = np.concatenate([*ws, xw])
    w, wp = xw[-1], xwp[-1]
    finite = np.isfinite(ws)
    finite[-1] &= math.isfinite(wp)
    _check_finite([omega], nodes, finite[None])
    neg = ws < 0.0
    if abs(w) <= 1e-6 * math.hypot(w, wp / max(om, 1.0)):
        neg[-1] = not neg[-2]
    return int(np.count_nonzero(neg[1:] != neg[:-1]))
