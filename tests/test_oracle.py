"""High-accuracy ODE reference solver and problem setup."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transmute import oracle, spectral
from transmute.coeffs import compute_beta, sample_count, unperturbed_term
from transmute.errors import AccuracyWarning, DomainError, IntegrationFailure
from transmute.oracle import (
    ProblemSetup,
    make_potential,
    regular_solution_ode,
    regular_solutions,
)


def _envelope(u, u_prime, omega):
    return np.max(np.hypot(u, u_prime / max(omega, 1.0)))


def _harmonic(x):
    return np.asarray(x, dtype=float) ** 2


def _spy_step_maps(monkeypatch, probes=None):
    """Record (nodes, tile) of every _step_maps call of a pass: the nodes of
    the last grid terms formed, and the tile's rows x padded steps.  The
    step-rule probe's trial steps, a fixed amount of work per setup (built
    on its first call), go to the list probes if one is given, and are not
    recorded otherwise."""
    calls, nodes, probing = [], [], []
    grid_terms, step_maps, probe = oracle._grid_terms, oracle._step_maps, oracle._probe

    def terms_spy(xs, *args, **kwargs):
        nodes.append(xs)
        return grid_terms(xs, *args, **kwargs)

    def maps_spy(terms, om, bufs, *args, **kwargs):
        if not probing:
            calls.append((nodes[-1], bufs[0].size))
        elif probes is not None:
            probes.append((nodes[-1], bufs[0].size))
        return step_maps(terms, om, bufs, *args, **kwargs)

    def probe_spy(*args):
        probing.append(True)
        try:
            return probe(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(oracle, "_grid_terms", terms_spy)
    monkeypatch.setattr(oracle, "_step_maps", maps_spy)
    monkeypatch.setattr(oracle, "_probe", probe_spy)
    return calls


def _spy_grids(monkeypatch):
    """Record (name, nodes) of every _layer_nodes and _build_grid call."""
    builds = []
    for name in ("_layer_nodes", "_build_grid"):
        def spy(*args, _name=name, _build=getattr(oracle, name)):
            grid = _build(*args)
            builds.append((_name, grid.size))
            return grid

        monkeypatch.setattr(oracle, name, spy)
    return builds


def _constant_q_cases():
    # q == 0 cases are named by omega alone; Q = 50 needs omega^2 > Q; the
    # "sweep" case solves the whole omega list in one regular_solutions call
    for Q in (0.0, 50.0, -3.0):
        omegas = [om for om in (0.5, 3.0, 40.0, 249.0, 600.0, 1400.0, 1999.0) if om * om > Q]
        for omega in omegas + [tuple(omegas)]:
            name = "sweep" if isinstance(omega, tuple) else f"{omega}"
            yield pytest.param(omega, Q, id=name if Q == 0 else f"{name}-Q{Q:g}")


@pytest.mark.parametrize("l", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("omega,Q", list(_constant_q_cases()))
def test_free_problem_matches_closed_form(l, omega, Q):
    """q == Q is the free problem at frequency sqrt(omega^2 - Q), a Bessel
    closed form; the propagator must reproduce it to its advertised
    accuracy at every angular parameter and frequency up to the validated
    limit, alone or in a sweep, and to 1e-11 from omega = 600 on, where
    the x-steps carry their full _X_PHASE of phase (1.2e-12 at worst
    where measured)."""
    setup = ProblemSetup(
        l=l, b=np.pi, q=lambda x: np.full_like(np.asarray(x, dtype=float), Q)
    )
    xs = np.linspace(0.3, np.pi, 7)
    if isinstance(omega, tuple):
        rows = zip(omega, *regular_solutions(setup, omega, xs))
    else:
        sol = regular_solution_ode(setup, omega, xs)
        rows = [(omega, sol.u_values, sol.u_prime_values)]
    for om, u, u_prime in rows:
        ref = unperturbed_term(l, math.sqrt(om * om - Q), xs)
        scale = max(_envelope(u, u_prime, om), np.max(np.abs(ref)))
        assert np.max(np.abs(u - ref)) < (1e-11 if om >= 600 else 5e-10) * scale, om


@pytest.mark.parametrize("Q", [0.0, 20.0, -3.0])
@pytest.mark.parametrize("l", [-0.5, -0.25, 0.5, 1.0, 2.0, 10.0, 30.0])
def test_log_layer_matches_closed_form(l, Q):
    """Requested points inside the log layer near the origin (1e-5 b,
    1e-3 b, 1e-2 b) are read off the (v, v_t) state there, and b past it:
    u and u' meet the constant-q Bessel closed form to 5e-10 of the
    envelope, from omega = 0 (q above omega^2 for Q = 20) to 600."""
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.full_like(np.asarray(x, float), Q))
    omegas = [0.0, 3.0, 52.0, 600.0]
    xs = np.pi * np.array([1e-5, 1e-3, 1e-2, 1.0])
    u, u_prime = regular_solutions(setup, omegas, xs)
    for om, row, row_p in zip(omegas, u, u_prime):
        ref = np.array([_constant_q_exact(l, Q, om, x) for x in xs])
        scale = max(_envelope(row, row_p, om), np.max(np.abs(ref[:, 0])))
        assert np.max(np.abs(row - ref[:, 0])) < 5e-10 * scale, om
        assert np.max(np.abs(row_p - ref[:, 1])) < 5e-10 * max(om, 1.0) * scale, om


def _harmonic_exact(l, omega, x):
    """u and u' for q = x^2: x^(l+1) e^(-x^2/2) 1F1((2l+3-omega^2)/4; l+3/2; x^2)."""
    def u(t):
        return t ** (l + 1) * mpmath.exp(-t * t / 2) * mpmath.hyp1f1(
            (2 * l + 3 - mpmath.mpf(omega) ** 2) / 4, l + mpmath.mpf(3) / 2, t * t)
    x = mpmath.mpf(x)
    return float(u(x)), float(mpmath.diff(u, x))


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0])
def test_harmonic_potential_matches_mpmath(l):
    """q = x^2 varies along every step, so unlike constant q it shows the
    step-size error; the oracle must match the 40-digit Kummer form over
    the frequencies a fit samples and on to omega = 600, where the x-steps
    carry their full _X_PHASE of phase, to 1e-11 of its envelope, also at
    x = pi/64, inside the log layer from omega ~ 20 on at l >= 1/2."""
    setup = ProblemSetup(l=l, b=np.pi, q=_harmonic)
    omegas = [0.5, 3.0, 20.0, 60.0, 120.0, 235.0, 400.0, 600.0]
    xs = np.pi / np.array([64.0, 8.0, 2.0, 1.0])
    u, u_prime = regular_solutions(setup, omegas, xs)
    for om, row, row_p in zip(omegas, u, u_prime):
        with mpmath.workdps(40):
            ref = np.array([_harmonic_exact(l, om, x) for x in xs])
        scale = _envelope(row, row_p, om)
        assert np.max(np.abs(row - ref[:, 0])) < 1e-11 * scale, om
        assert np.max(np.abs(row_p - ref[:, 1])) < 1e-11 * max(om, 1.0) * scale, om


def _airy_exact(s, omega, x):
    """u and u' for l = 0, q = 20 + s x: u'' = s (x - x_t) u, so u is a
    combination of Ai and Bi at z = s^(1/3) (x - x_t), with u(0) = 0 and
    u'(0) = 1 (their Wronskian is 1/pi)."""
    with mpmath.workdps(40):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        c = mpmath.cbrt(s)
        z0 = (20 - mpmath.mpf(omega) ** 2) / (c * c)
        a0, b0 = mpmath.airyai(z0), mpmath.airybi(z0)
        u = mpmath.pi / c * (a0 * mpmath.airybi(z0 + c * x) - b0 * mpmath.airyai(z0 + c * x))
        up = mpmath.pi * (a0 * mpmath.airybi(z0 + c * x, 1) - b0 * mpmath.airyai(z0 + c * x, 1))
        return float(u), float(up)


@pytest.mark.parametrize("s", [1.0, 5.0, 20.0])
def test_linear_potential_matches_airy(s):
    """q = 20 + s x has no curvature, so a step rule that read q'' alone
    would take it for flat; its slope must keep the step cap where the
    error is.  One-frequency calls and one sweep match the Airy closed
    form, from below the turning point at sqrt(20) to omega ~ 98, where
    the phase rule takes over from the least cap, to 1e-11 of the envelope
    (4.1e-13 at worst where measured, at s = 20)."""
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: 20.0 + s * np.asarray(x, dtype=float))
    omegas = [0.5, 3.0, 10.0, 30.0, 98.0]
    xs = np.pi / np.array([64.0, 8.0, 2.0, 1.0])
    sweep = zip(*regular_solutions(setup, omegas, xs))
    for om, (row, row_p) in zip(omegas, sweep):
        ref = np.array([_airy_exact(s, om, x) for x in xs])
        sol = regular_solution_ode(setup, om, xs)
        for u, u_prime in ((row, row_p), (sol.u_values, sol.u_prime_values)):
            scale = _envelope(u, u_prime, om)
            assert np.max(np.abs(u - ref[:, 0])) < 1e-11 * scale, om
            assert np.max(np.abs(u_prime - ref[:, 1])) < 1e-11 * max(om, 1.0) * scale, om


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    l=st.sampled_from([-0.5, -0.25, 0.0]) | st.floats(0.1, 20.0),
    b=st.floats(0.2, 10.0),
    om_lo=st.floats(0.0, 150.0),
    om_span=st.floats(0.0, 100.0),
    q0=st.floats(-50.0, 50.0),
    q2=st.sampled_from([0.0, 100.0]) | st.floats(0.0, 2000.0),
)
@example(l=0.0, b=np.pi, om_lo=0.0, om_span=30.0, q0=20.0, q2=0.0)
@example(l=0.0, b=10.0, om_lo=0.0, om_span=100.0, q0=50.0, q2=0.0)
@example(l=0.0, b=0.2, om_lo=150.0, om_span=100.0, q0=-50.0, q2=0.0)
def test_grid_follows_step_rule(l, b, om_lo, om_span, q0, q2):
    """The log layer's nodes run from x0 to its end x_L, and the grid's
    from x_L to b, strictly increasing.  In the layer no t-step is longer
    than the rule's dt, nor than _DT_END e^(_DT_GROWTH (t_L - t)) at its
    left end t, refinement halves each t-step, and dt carries at most
    _LAYER_PHASE rad of phase of V = (l + 1/2)^2 + (q - omega^2) x^2 at the
    probed points.  Past x_L no step is longer than the largest h the rule
    allows on the probe cells it spans, nor than the largest cap there,
    which carries at most _X_PHASE rad of phase, and there are at most
    ceil(int dx/h) + 1 nodes.  No cap is below w = (b - x0)/1024 but where
    the centrifugal ratio sets it, none passes the trial step _TRIAL w, and
    constant q at l = 0, whose Magnus step is exact, takes that everywhere.
    q = q0 + q2 x^2 crosses omega^2 inside the interval for many draws,
    where |q - omega^2| vanishes."""
    q = lambda x: q0 + q2 * np.asarray(x, dtype=float) ** 2
    om_hi = om_lo + om_span
    x0 = 1e-6 * b
    probe = oracle._probe(l, b, q, x0)
    x_log = oracle._layer_end(probe, l, om_lo, om_hi)
    rest = oracle._build_grid(probe, om_lo, om_hi, x_log)
    edges, h = oracle._step_rule(probe, om_lo, om_hi)
    reach, dt = oracle._layer_rule(l)
    assert rest[0] == x_log and rest[-1] == b
    assert np.all(np.diff(rest) > 0)

    # the layer: none without a centrifugal term, else it runs from x0 to
    # x_L, no further out than where the floor frequency's omega^2 x^2
    # reaches its bound, and |q - omega^2| x^2 stays within that bound
    # below it at the probed points
    if l * (l + 1) == 0:
        assert x_log == x0
    else:
        assert x_log > x0
        layer = oracle._layer_nodes(x0, x_log, l)
        assert layer[0] == x0 and layer[-1] == x_log
        assert np.all(np.diff(layer) > 0)
        t = np.log(layer)
        graded = oracle._DT_END * np.exp(oracle._DT_GROWTH * (t[-1] - t[:-1]))
        assert np.all(np.diff(t) <= np.minimum(dt, graded) * (1 + 1e-9))
        # the self-check halves each t-step
        halves = np.diff(np.log(oracle._refine(layer, log=True))).reshape(-1, 2)
        assert np.allclose(halves, 0.5 * np.diff(t)[:, None], rtol=1e-9, atol=0.0)
        om_floor = oracle._LAYER_PHASE * 1024 / (b - x0)
        assert x_log * om_floor <= math.sqrt(reach) * (1 + 1e-12)
        pts = np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])
        pts = pts[pts <= x_log]
        for om in (om_lo, om_hi):
            wx2 = (q(pts) - om * om) * pts * pts
            assert np.all(np.abs(wx2) <= reach * (1 + 1e-12))
            v = np.abs((l + 0.5) ** 2 + wx2)
            assert np.all(dt * np.sqrt(v) <= oracle._LAYER_PHASE * (1 + 1e-12))

    # past x_L: the largest h over the cells [first, last] each step touches
    level = np.concatenate([[0.0], np.cumsum(np.diff(edges) / h)])
    assert rest.size <= math.ceil(level[-1] - np.interp(x_log, edges, level)) + 1
    first = np.searchsorted(edges, rest[:-1], side="right") - 1
    last = np.searchsorted(edges, rest[1:], side="left") - 1
    spans = np.stack([first, last + 1], axis=1).ravel()
    allowed = np.maximum.reduceat(np.append(h, 0.0), spans)[0::2]
    assert np.all(np.diff(rest) <= allowed * (1 + 1e-12))
    capped = np.maximum.reduceat(np.append(probe.cap, 0.0), spans)[0::2]
    assert np.all(np.diff(rest) <= capped * (1 + 1e-12))

    # the cap: at least w, less only where the centrifugal ratio sets it,
    # at most the trial step, and the trial step for constant q at l = 0
    w = (b - x0) / 1024
    assert np.all(probe.cap <= oracle._TRIAL * w * (1 + 1e-12))
    if l * (l + 1) == 0:
        assert np.all(probe.cap >= w * (1 - 1e-12))
        if q2 == 0:
            assert np.allclose(probe.cap, oracle._TRIAL * w, rtol=1e-12, atol=0.0)
    else:
        ratio = oracle._SING_FRAC / max(1.0, math.sqrt(abs(l * (l + 1))))
        assert np.all(probe.cap >= np.minimum(w, ratio * edges[:-1]) * (1 - 1e-12))

    # the x-rule: the cap at most, the phase bound at the probed points of
    # each cell, and the centrifugal ratio at its left end
    assert np.all(h <= probe.cap)
    mids = 0.5 * (edges[:-1] + edges[1:])
    for om in (om_lo, om_hi):
        for pts in (edges[:-1], edges[1:], mids):
            assert np.all(h * np.sqrt(np.abs(q(pts) - om * om))
                          <= oracle._X_PHASE * (1 + 1e-12))
    if l * (l + 1):
        ratio = oracle._SING_FRAC / max(1.0, math.sqrt(abs(l * (l + 1))))
        assert np.all(h <= ratio * edges[:-1] * (1 + 1e-12))


@pytest.mark.parametrize("where", [0.0, 0.2, 0.43, 0.5, 1.0, 2.0, 3.7])
def test_long_steps_keep_off_a_jump(where):
    """q = 20 below a jump and 0 past it, at l = 0: the flat cells take
    caps past w = (b - x0)/1024, and the jump's cell and the next one on
    either side keep w, so no step longer than w touches the jump's cell
    at any frequency.  The jump sits where x w past the start of a trial
    window, from its edge to inside it, and at pi/2, 1e-6 pi / 2 short of
    the edge x0 + 512 w."""
    b, x0 = np.pi, 1e-6 * np.pi
    w = (b - x0) / 1024
    for jump in (x0 + (508.0 + where) * w, x0 + (320.0 + where) * w, np.pi / 2):
        q = lambda x, jump=jump: np.where(np.asarray(x, dtype=float) < jump, 20.0, 0.0)
        probe = oracle._probe(0.0, b, q, x0)
        edges = probe.edges
        cell = int(np.searchsorted(edges, jump, side="right")) - 1
        assert probe.cap.max() > w and np.all(probe.cap[cell - 1 : cell + 2] <= w * (1 + 1e-12))
        for om in np.linspace(0.0, 100.0, 51):
            grid = oracle._build_grid(probe, om, om, x0)
            touch = (grid[1:] > edges[cell]) & (grid[:-1] < edges[cell + 1])
            assert np.all(np.diff(grid)[touch] <= w * (1 + 1e-12)), (jump, om)


@pytest.mark.parametrize("omegas", [
    pytest.param([0.0], id="0.0"),
    pytest.param([3.0], id="3.0"),
    pytest.param([40.0], id="40.0"),
    pytest.param([0.0, 3.0, 40.0, 600.0], id="rows-0-3-40-600"),
])
def test_step_maps_are_the_exact_exponential(omegas):
    """Each step map is exp([[d, h], [h vbar, -d]]) to rounding, including
    steps far longer than any grid takes, whose |s| goes through the
    4^-k scaling and the doubling back (|s| up to about 3600 alone, and
    at omega = 600 about 1e6, which sets the scaling of every row of
    that call), for oscillating (omega^2 > q) and growing (omega = 0)
    steps; the padding steps are the identity."""
    xs = np.array([0.05, 0.06, 0.3, 1.0, 2.5, np.pi])
    l, q = 1.0, lambda x: 3.0 + np.asarray(x, dtype=float)
    terms = oracle._grid_terms(xs, l, q)
    planes = np.empty((5, oracle._PAD, len(omegas)) + terms.shape[3:])
    maps = _in_order(oracle._step_maps(terms, np.array(omegas), planes))
    h = np.diff(xs)
    x1 = 0.5 * (xs[:-1] + xs[1:]) - oracle._GAUSS_OFF * h
    x2 = 0.5 * (xs[:-1] + xs[1:]) + oracle._GAUSS_OFF * h
    for row, omega in enumerate(omegas):
        v1 = 2.0 / x1 ** 2 + q(x1) - omega ** 2
        v2 = 2.0 / x2 ** 2 + q(x2) - omega ** 2
        d = (v1 - v2) * math.sqrt(3.0) / 12.0 * h * h
        for i in range(h.size):
            a = [[d[i], h[i]], [h[i] * 0.5 * (v1[i] + v2[i]), -d[i]]]
            with mpmath.workdps(40):
                want = np.array(mpmath.expm(mpmath.matrix(a)).tolist(), dtype=float)
            got = np.array([[m[row, i] for m in maps[:2]], [m[row, i] for m in maps[2:]]])
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want)), (omega, i)
        pad = np.stack([m[row, h.size :] for m in maps])
        assert np.array_equal(pad, [[1.0], [0.0], [0.0], [1.0]] * np.ones(pad.shape[1]))


def test_setup_stores_a_near_integer_l_as_the_integer():
    """ProblemSetup rounds an l that is_integer_l takes for an integer, so
    every consumer reads the integer; dataclasses.replace goes through the
    same check.  Other l stay as given."""
    from dataclasses import replace

    assert ProblemSetup(l=1 - 5e-10, b=np.pi, q=_harmonic).l == 1.0
    near_zero = ProblemSetup(l=-1e-10, b=np.pi, q=_harmonic).l
    assert near_zero == 0.0 and math.copysign(1.0, near_zero) == 1.0
    setup = ProblemSetup(l=0.5, b=np.pi, q=_harmonic)
    assert setup.l == 0.5
    assert replace(setup, l=2 + 1e-10).l == 2.0
    assert ProblemSetup(l=1 + 1e-6, b=np.pi, q=_harmonic).l == 1 + 1e-6


def test_near_integer_l_is_solved_as_integer_l():
    """l within INTEGER_L_TOL of an integer counts as that integer, so
    l = -1e-10 gets the ungraded l = 0 grid and the same values."""
    xs = np.array([0.5, np.pi])
    near = regular_solutions(ProblemSetup(l=-1e-10, b=np.pi, q=_harmonic), [2.0, 40.0], xs)
    exact = regular_solutions(ProblemSetup(l=0.0, b=np.pi, q=_harmonic), [2.0, 40.0], xs)
    assert np.array_equal(near, exact)


@pytest.mark.parametrize("l", [-0.5, -0.25, 0.0, 0.5])
def test_start_is_exact_to_the_validated_limit(l):
    """The error of the Frobenius start does not change with the grid, so
    the self-check cannot see it.  Just inside omega*b = 2000 pi its three
    terms keep the solution within 1e-11 of the envelope; two terms left
    5.4e-10 at l = -1/2 and 6.3e-11 at l = 0."""
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    xs = np.linspace(0.3, np.pi, 7)
    sol = regular_solution_ode(setup, 1999.0, xs)
    ref = unperturbed_term(l, 1999.0, xs)
    scale = _envelope(sol.u_values, sol.u_prime_values, 1999.0)
    assert np.max(np.abs(sol.u_values - ref)) < 1e-11 * scale


def test_no_step_past_last_point_and_step_budget(monkeypatch):
    """The grid ends at the last requested point, and resolving the phase
    at _X_PHASE keeps a high-frequency solve small (rows x steps over
    every _step_maps call)."""
    calls = _spy_step_maps(monkeypatch)
    setup = ProblemSetup(l=0.5, b=np.pi, q=_harmonic)
    x_eval = np.array([0.4, 1.1, 2.0])
    regular_solution_ode(setup, 600.0, x_eval)
    assert calls and max(xs[-1] for xs, _ in calls) == x_eval[-1]

    calls.clear()
    regular_solution_ode(setup, 600.0, np.array([np.pi]))
    assert sum(tile for _, tile in calls) < 60_000


def test_fit_work_stays_within_the_measured_budget(monkeypatch):
    """Rows x steps over every _step_maps call of an l = 1/2, q = x^2,
    M = 60 fit, the oracle's share of a kernel column: 563,091 at x = pi/2
    and 705,861 at x = pi with x-steps of up to 0.3 rad of phase (845,769
    and 909,186 at 0.16).  A frequency whose x-step is the cap keeps its
    grid: the level-0 x grid at omega = 40 has 1150 nodes, as at 0.16.
    Rows x padded steps of the spectrum's N = 20 fit at q == 20, l = 0,
    whose caps are 4w: 81,144 (193,536 with every cap w).  The step-rule
    probe's trial steps are one tile of two rows and at most 1032 padded
    steps per call, not counted in these budgets."""
    probes = []
    calls = _spy_step_maps(monkeypatch, probes)
    setup = ProblemSetup(l=0.5, b=np.pi, q=_harmonic)
    for x, budget in ((np.pi / 2, 563_091), (np.pi, 705_861)):
        calls.clear()
        compute_beta(setup, x, 60)
        steps = [nodes.size - 1 for nodes, _ in calls]
        rows = [tile // (-(-n // oracle._PAD) * oracle._PAD) for n, (_, tile) in zip(steps, calls)]
        assert sum(r * n for r, n in zip(rows, steps)) <= budget, x

    calls.clear()
    const_20 = lambda x: np.full_like(np.asarray(x, dtype=float), 20.0)
    spectral._fit_series(ProblemSetup(l=0.0, b=np.pi, q=const_20), 20)
    assert sum(tile for _, tile in calls) <= 81_144
    assert probes and max(tile for _, tile in probes) <= 2 * 1032

    builds = _spy_grids(monkeypatch)
    regular_solution_ode(setup, 40.0, [np.pi])
    assert builds[-1] == ("_build_grid", 1150)


def test_fit_sweep_is_solved_in_blocks(monkeypatch):
    """An M = 25 fit's 78 frequencies all lie below omega ~ 52, where the
    step rule on b = pi is the cap alone, so they form one block on one
    grid: one _build_grid call, where blocks of 18 frequencies built 18.
    At l = 1 the grid has 1284 nodes, 88 of them in the log layer (1748
    nodes when the centrifugal term was graded in x down to x0), so the
    layer's first two levels run as two passes of one tile of all 78
    frequencies and the rest in tiles of 26 and 13 rows: 2 + 3 + 6
    _step_maps calls (2 + 6 + 12 for the 156 frequencies of six per
    coefficient), none larger than the block bound.  One solve per
    frequency takes 156."""
    calls = _spy_step_maps(monkeypatch)
    builds = _spy_grids(monkeypatch)
    compute_beta(ProblemSetup(l=1.0, b=np.pi, q=_harmonic), np.pi, 25)
    assert [name for name, _ in builds] == ["_layer_nodes", "_build_grid"]
    assert sum(size for _, size in builds) - 1 <= 1300
    assert len(calls) <= 27
    assert max(tile for _, tile in calls) <= oracle._BLOCK


def test_fit_memory_stays_within_the_workspace():
    """An M = 25 fit's passes share one workspace of six tile-sized
    arrays, the grid terms and the chain products' stash: its traced peak
    reads 1.95e6 bytes over 78 frequencies (2.01e6 over 156; 1.92e6 before
    the stash's 80 KB, which let each range run one tail where it ran one
    per tile), where allocating each pass's arrays anew peaked at 2.07e6."""
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    compute_beta(setup, np.pi, 25)   # first-call allocations are not the fit's
    tracemalloc.start()
    try:
        compute_beta(setup, np.pi, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_072_000, peak


def test_fit_sweep_matches_one_frequency_solves():
    """Below omega ~ 52 on b = pi every frequency of q = x^2 gets the same
    grid, its caps all w = (b - x0)/1024, so an M = 25 sweep at l = 1
    solved whole, in calls of 16 frequencies and one frequency at a time
    gives the same values.  q == 20 takes caps of its own, 4w at l = 0,
    where the phase rule takes over from omega ~ 24 and each call's blocks
    get grids of their own; there, and at l = 3, the three meet the
    Bessel closed form to 1e-11 of the envelope."""
    const_20 = lambda x: np.full_like(np.asarray(x, dtype=float), 20.0)
    omegas = np.linspace(0.5, 3.0 * 53, sample_count(25)) / np.pi

    def solves(setup):
        whole = np.stack(regular_solutions(setup, omegas, [np.pi]))[..., 0]
        parts = [np.stack(regular_solutions(setup, omegas[i : i + 16], [np.pi]))[..., 0]
                 for i in range(0, omegas.size, 16)]
        single = [regular_solution_ode(setup, om, [np.pi]) for om in omegas]
        single = np.array([[s.u_values[0] for s in single], [s.u_prime_values[0] for s in single]])
        return whole, np.concatenate(parts, axis=1), single

    whole, parts, single = solves(ProblemSetup(l=1.0, b=np.pi, q=_harmonic))
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole, single)
    for l in (0.0, 3.0):
        ref = np.array([_constant_q_exact(l, 20.0, om, np.pi) for om in omegas]).T
        scale = np.hypot(ref[0], ref[1] / np.maximum(omegas, 1.0))
        for got in solves(ProblemSetup(l=l, b=np.pi, q=const_20)):
            assert np.all(np.abs(got[0] - ref[0]) <= 1e-11 * scale), l
            assert np.all(np.abs(got[1] - ref[1]) <= 1e-11 * np.maximum(omegas, 1.0) * scale), l


@pytest.mark.parametrize("log, spans", [(False, 1), (True, 1), (True, 2)])
def test_grid_terms_are_those_of_each_step(log, spans):
    """Every step's terms, read back out of the planes in order, are those
    of its own two nodes, and each padding step has length 0.  The steps'
    ends are formed in the rows that end up holding pbar and d (a and e in
    the log layer), so a write to those rows before the ends are read
    would show here."""
    k = 37 * spans   # 37 or 74 steps, padded to 40 or 80
    xs = np.geomspace(0.01, np.pi, k + 1)
    l, q = 1.0, lambda x: 3.0 + np.asarray(x, dtype=float) ** 2
    terms = oracle._grid_terms(xs, l, q, log=log)
    count, g = terms.shape[0], terms.shape[-1]
    got = terms[:, oracle._BITREV].reshape(count, oracle._PAD, g)
    got = got.transpose(0, 2, 1).reshape(count, -1)
    zero = [0, 1, 4, 5] if log else [0, 1, 3, 4]   # h, h^2 and d: identity maps
    assert not got[zero, k:].any()
    got = got[:, :k]
    v = np.log(xs) if log else xs
    h, mid = np.diff(v), 0.5 * (v[:-1] + v[1:])
    x1, x2 = mid - oracle._GAUSS_OFF * h, mid + oracle._GAUSS_OFF * h
    if log:
        x1, x2 = np.exp(x1), np.exp(x2)
        s1, s2 = x1 * x1, x2 * x2
        e = h * h * math.sqrt(3.0) / 12.0
        want = [h, h * h, 0.5 * (q(x1) * s1 + q(x2) * s2) + (l + 0.5) ** 2, 0.5 * (s1 + s2),
                e * (q(x1) * s1 - q(x2) * s2), e * (s1 - s2)]
    else:
        p1, p2 = l * (l + 1.0) / x1 ** 2 + q(x1), l * (l + 1.0) / x2 ** 2 + q(x2)
        d = math.sqrt(3.0) / 12.0 * (p1 - p2) * h * h
        want = [h, h * h, 0.5 * (p1 + p2), d, d * d]
    np.testing.assert_allclose(got, np.array(want), rtol=1e-12, atol=0.0)


def _in_order(planes):
    """Step maps (4 x rows x steps, steps in order) from the planes of
    _grid_terms (4 x _PAD x rows x g), plane p holding steps
    _PAD i + _BITREV[p]."""
    rows, g = planes.shape[2], planes.shape[-1]
    ordered = planes[:, oracle._BITREV].reshape(4, oracle._PAD, rows, g)
    return ordered.transpose(0, 2, 3, 1).reshape(4, rows, -1)


def _chain_product(monkeypatch, m, tile_rows, count, passes=1, groups=1):
    """oracle._products of the maps m (4 x rows x steps, steps in order
    and a multiple of _PAD), laid out in the planes of _grid_terms, in
    tiles of tile_rows frequencies, in a workspace made for count
    frequencies: the rows in that many passes of equal rows through the
    one workspace, each pass in that many groups."""
    rows, steps = m.shape[1:]
    g = steps // oracle._PAD
    planes = m.reshape(4, rows, g, oracle._PAD)[..., oracle._BITREV].transpose(0, 3, 1, 2)

    def step_maps(terms, om, bufs, log=False):   # om holds the frequencies' indices
        bufs[:4] = planes[:, :, int(om[0]) : int(om[-1]) + 1]
        return bufs[:4]

    monkeypatch.setattr(oracle, "_step_maps", step_maps)
    terms = np.empty((5, oracle._PAD, 1, g))
    ws = oracle._Workspace(steps + 1, count)
    out = []
    for om in np.arange(rows, dtype=float).reshape(passes, -1):
        # a group's product lives in the workspace until the next is formed
        got = [(part, prod.copy()) for part, prod in oracle._products(terms, om, tile_rows, ws)]
        assert len(got) == groups
        assert [part.start for part, _ in got] == [0] + [part.stop for part, _ in got[:-1]]
        out += [prod for _, prod in got]
    return np.concatenate(out, axis=1)


def _identity_padded(rng, rows, steps, pad):
    """rows x steps random maps, then pad identity maps and as many more
    as make the steps a multiple of _PAD, as _grid_terms pads them."""
    total = -(-(steps + pad) // oracle._PAD) * oracle._PAD
    m = np.empty((4, rows, total))
    m[:, :, :steps] = rng.uniform(-2.0, 2.0, (4, rows, steps))
    m[:, :, steps:] = np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]
    return m


def _pairwise(mats):
    """Product of 2x2 matrices (nested lists of floats, first step first)
    in plain Python, paired as _product pairs them: M_{2i+1} M_{2i} at
    every level, an odd last matrix carried up alone."""
    while len(mats) > 1:
        pairs = [[[m1[r][0] * m0[0][c] + m1[r][1] * m0[1][c] for c in (0, 1)] for r in (0, 1)]
                 for m0, m1 in zip(mats[0::2], mats[1::2])]
        mats = pairs + mats[2 * len(pairs) :]
    return mats[0]


@pytest.mark.parametrize("rows, steps, pad", [
    (1, 1, 0), (3, 2, 0), (2, 5, 0), (4, 13, 0), (3, 16, 0), (1, 3, 5), (5, 11, 5), (2, 37, 3),
])
def test_product_matches_pairwise_python(monkeypatch, rows, steps, pad):
    """The chain product equals the plain pairwise product bit for bit, for
    odd and even step counts and with identity maps padding the steps to a
    multiple of 8, as _grid_terms pads them."""
    rng = np.random.default_rng(100 * rows + steps)
    m = _identity_padded(rng, rows, steps, pad)
    want = [_pairwise([[[a, b], [c, d]] for a, b, c, d in zip(*m[:, r].tolist())])
            for r in range(rows)]
    got = _chain_product(monkeypatch, m, rows, rows)
    assert np.array_equal(got, np.array(want).reshape(rows, 4).T)


@pytest.mark.parametrize("rows, steps, tile_rows, count, passes, groups", [
    (7, 40, 3, 7, 1, 1),     # three tiles, one tail for all rows, in numpy
    (5, 160, 2, 5, 1, 1),    # 20 per row after the contiguous levels, padded to 32
    (2, 296, 2, 2, 1, 1),    # 37 per row, an odd count, halved to 16 per row, two-row tail
    (1, 300, 1, 1, 1, 1),    # one row, its tail in numpy as any other
    (3, 120, 1, 1, 3, 1),    # three passes of one row through one workspace
    (6, 120, 1, 2, 3, 1),    # three passes of two one-row tiles, the numpy tail
    (12, 120, 4, 4, 1, 1),   # a stash for 4 x 16 holds 12 x 4, the numpy tail
    (40, 64, 8, 2, 1, 2),    # a stash for 2 x 16 holds 32 x 1, then 8 x 4: two groups
])
def test_product_of_row_tiles_matches_pairwise_python(monkeypatch, rows, steps, tile_rows,
                                                      count, passes, groups):
    """Tiles of rows reduced into one stash, and one tail per group of as
    many tiles as the stash holds, give the plain pairwise product bit for
    bit, in each of the passes that share a workspace (as a log layer's
    levels and the x grid's do): an identity paired with a map gives the
    map, so padding each row to a power of two pairs as carrying an odd
    last map up alone does."""
    rng = np.random.default_rng(rows + steps)
    m = _identity_padded(rng, rows, steps, 0)
    want = [_pairwise([[[a, b], [c, d]] for a, b, c, d in zip(*m[:, r].tolist())])
            for r in range(rows)]
    got = _chain_product(monkeypatch, m, tile_rows, count, passes, groups)
    assert np.array_equal(got, np.array(want).reshape(rows, 4).T)


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 9, 100, 255, 256, 257, 300])
def test_prefix_matches_sequential_python(steps):
    """Every prefix product of the scan, M_j @ ... @ M_0, matches the same
    product taken step by step in Python floats to 1e-13 of its largest
    entry."""
    m = np.random.default_rng(steps).uniform(-2.0, 2.0, (4, steps))
    want, p = [], [[1.0, 0.0], [0.0, 1.0]]
    for a, b, c, d in zip(*m.tolist()):
        p = [[a * p[0][0] + b * p[1][0], a * p[0][1] + b * p[1][1]],
             [c * p[0][0] + d * p[1][0], c * p[0][1] + d * p[1][1]]]
        want.append([p[0][0], p[0][1], p[1][0], p[1][1]])
    want = np.array(want).T
    got = oracle._prefix(m.copy(), np.empty_like(m))
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=0))


def test_product_reads_no_iterator_buffers(monkeypatch):
    """One chain product of an 18 x 1752 stack (219 per row after the
    contiguous levels) in a prepared workspace allocates next to nothing:
    every level runs on 1-D views, which numpy iterates without buffers.
    With 2-D broadcast levels and 4-D views for the odd ones it traced a
    peak of 96,432 bytes."""
    rng = np.random.default_rng(18)
    planes = rng.uniform(-1.0, 1.0, (4, oracle._PAD, 18, 219))
    terms, om = np.empty((5, oracle._PAD, 1, 219)), np.zeros(18)
    ws = oracle._Workspace(1753, 18)
    monkeypatch.setattr(oracle, "_step_maps", lambda terms, om, bufs, log=False: bufs[:4])
    for _ in range(2):   # the second call is traced
        ws.maps(planes.shape[1:])[:4] = planes
        tracemalloc.start()
        try:
            for _ in oracle._products(terms, om, 18, ws):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4096, peak


@pytest.mark.parametrize("omegas", [[7.0], [2.0, 3.0, 7.0, 11.0, 13.0]])
def test_overflowing_row_ends_in_integration_failure(monkeypatch, omegas):
    """A row whose step maps overflow gives non-finite products, in the
    tail of five rows and in that of a single row alike, and the solve
    names its frequency."""
    step_maps = oracle._step_maps

    def overflowing(terms, om, bufs, log=False):
        maps = step_maps(terms, om, bufs, log)
        maps[:, :, om == 7.0] *= 1e200
        return maps

    monkeypatch.setattr(oracle, "_step_maps", overflowing)
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationFailure, match=r"not finite at omega=7 "):
            regular_solutions(setup, omegas, [1.0, np.pi])


def test_sweep_past_the_stash_runs_in_groups(monkeypatch):
    """A sweep with more frequencies than the stash holds runs each range's
    tail and state update once per group of tiles, and every row keeps the
    value it gets alone: here _BLOCK = 128 leaves a stash of 128 floats,
    so every pass, the log layer's levels and the x grids' alike, runs the
    40 frequencies as 32 + 8."""
    monkeypatch.setattr(oracle, "_BLOCK", 128)
    calls = []
    products = oracle._products

    def spy(terms, om, rows, ws, log=False):
        calls.append((log, []))
        for part, prod in products(terms, om, rows, ws, log):
            calls[-1][1].append(prod.shape[1])
            yield part, prod

    monkeypatch.setattr(oracle, "_products", spy)
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    omegas = np.linspace(0.5, 40.0, 40)
    u, up = regular_solutions(setup, omegas, [1.0, np.pi])
    assert {log for log, _ in calls} == {False, True}
    assert all(groups == [32, 8] for _, groups in calls)
    for i, om in enumerate(omegas[::13]):
        single = regular_solution_ode(setup, om, [1.0, np.pi])
        assert np.array_equal(u[13 * i], single.u_values)
        assert np.array_equal(up[13 * i], single.u_prime_values)


def test_failing_row_is_refined_alone(monkeypatch):
    """A row that fails the two-grid test is refined on its own: the other
    rows keep their values, and a row that cannot converge is named."""
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    omegas = np.array([2.0, 7.0, 13.0, 30.0])   # one block, in this order
    xs = np.array([1.0, np.pi])
    u0, up0 = regular_solutions(setup, omegas, xs)

    two_grid_fails = oracle._two_grid_fails

    def fail_row_2(diff, envelope):
        fails = two_grid_fails(diff, envelope)
        fails[2] = True
        return fails

    monkeypatch.setattr(oracle, "_two_grid_fails", fail_row_2)
    u1, up1 = regular_solutions(setup, omegas, xs)
    others = [0, 1, 3]
    assert np.array_equal(u1[others], u0[others])
    assert np.array_equal(up1[others], up0[others])
    assert not np.array_equal(u1[2], u0[2])   # it did take finer grids
    assert np.max(np.abs(u1[2] - u0[2])) < 1e-10 * _envelope(u0[2], up0[2], 13.0)

    monkeypatch.setattr(oracle, "_REL_TOL", 0.0)
    with pytest.raises(IntegrationFailure, match="omega=13"):
        regular_solutions(setup, omegas, xs)


@pytest.mark.parametrize("omegas", [[], [1.0, math.nan], [math.inf], [[1.0, 2.0]]])
def test_sweep_rejects_bad_omegas(omegas):
    setup = ProblemSetup(l=0.0, b=np.pi, q=_harmonic)
    with pytest.raises(DomainError):
        regular_solutions(setup, omegas, [1.0])


@pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
def test_zero_count_rejects_non_finite_omega(omega):
    """zero_count refuses a non-finite omega as regular_solutions does,
    before any grid is sized for it and without a numpy warning."""
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="omega must be finite"):
            oracle.zero_count(setup, omega)


@pytest.mark.parametrize("l", [0.0, 1.0])
def test_step_budget_refuses_huge_omega_without_warning(l):
    """Past omega ~ 1.3e154 omega^2 overflows: the grid's step count is
    then infinite, and the step-budget DomainError comes without a numpy
    overflow or divide warning on the way (the AccuracyWarning past the
    validated range is the sweep's own)."""
    setup = ProblemSetup(l=l, b=np.pi, q=_harmonic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="steps"), pytest.warns(AccuracyWarning):
            regular_solutions(setup, [1e160], [np.pi])
        with pytest.raises(DomainError, match="steps"):
            oracle.zero_count(setup, 1e160)


def test_warns_past_validated_range():
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    with pytest.warns(AccuracyWarning, match="validated range"):
        regular_solution_ode(setup, 2500.0, np.array([np.pi]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        regular_solution_ode(setup, 1400.0, np.array([np.pi]))


def test_non_finite_solution_raises():
    """A start far below where the solution is wanted overflows the
    rescaled w = u / x0^(l+1): a first x_eval of 1e-6 at l = 50 puts x0 at
    5e-7, and (pi/x0)^51 ~ 1e347.  That raises, naming omega and x,
    instead of returning a non-finite row.  zero_count overflows where q
    far above omega^2 makes w grow like exp(sqrt(q) x)."""
    setup = ProblemSetup(l=50.0, b=np.pi, q=lambda x: 30.0 * np.sin(5.0 * np.asarray(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationFailure, match=r"not finite at omega=0 ") as err:
            regular_solutions(setup, np.linspace(0.0, 1900.0, 40), [1e-6, np.pi])
        assert err.value.x == np.pi
        steep = ProblemSetup(l=60.0, b=np.pi, q=lambda x: np.full_like(np.asarray(x, float), 1e4))
        with pytest.raises(IntegrationFailure, match=r"not finite at omega=0 "):
            oracle.zero_count(steep, 0.0)


def _constant_q_exact(l, Q, omega, x):
    """u and u' for q == Q at 40 digits: the regular Bessel solution at
    k = sqrt(omega^2 - Q) (the modified one where omega^2 < Q), normalized
    to u ~ x^(l+1) at the origin."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(l) + mpmath.mpf(1) / 2
        k2 = mpmath.mpf(omega) ** 2 - Q
        k = mpmath.sqrt(abs(k2))
        bessel = mpmath.besselj if k2 > 0 else mpmath.besseli

        def u(t):
            if k == 0:
                return t ** (nu + mpmath.mpf(1) / 2)
            return mpmath.gamma(nu + 1) * (2 / k) ** nu * mpmath.sqrt(t) * bessel(nu, k * t)

        x = mpmath.mpf(x)
        return float(u(x)), float(mpmath.diff(u, x))


@pytest.mark.parametrize("Q", [0.0, 20.0])
@pytest.mark.parametrize("l", [50.0, 75.0, 100.0])
def test_large_l_matches_bessel_closed_form(l, Q):
    """Past l ~ 40, x0 = 1e-6 b would let w = u / x0^(l+1) pass 1e250 (and
    overflow from l = 50); the start moves in to where it does not, and
    the solution still meets the constant-q closed form."""
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.full_like(np.asarray(x, float), Q))
    omegas = [0.0, 0.5, 3.0, 10.0, 25.0, 40.0]
    xs = np.array([0.5, 1.0, 2.0, np.pi])
    u, u_prime = regular_solutions(setup, omegas, xs)
    for om, row, row_p in zip(omegas, u, u_prime):
        ref = np.array([_constant_q_exact(l, Q, om, x) for x in xs])
        scale = max(_envelope(row, row_p, om), np.max(np.abs(ref[:, 0])))
        assert np.max(np.abs(row - ref[:, 0])) < 5e-10 * scale, om
        assert np.max(np.abs(row_p - ref[:, 1])) < 5e-10 * max(om, 1.0) * scale, om


def test_large_l_start_past_its_accuracy_raises():
    """The larger x0 of large l puts omega x0 where the three-term start
    misses the contract (l = 100, omega = 120: about 1e-8 of the
    envelope); the self-check cannot see that error, so the start raises."""
    setup = ProblemSetup(l=100.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(IntegrationFailure, match="series start"):
        regular_solutions(setup, [3.0, 120.0], [np.pi])
    with pytest.raises(IntegrationFailure, match="series start"):
        oracle.zero_count(setup, 120.0)


@pytest.mark.parametrize("l", [60, 100])
def test_zero_count_at_large_l(l):
    """q == 0 at large l, where the start has moved in from 1e-6 b: the
    count is n between the n-th and the next zero of J_{l+1/2}(pi omega)
    and on the n-th itself."""
    setup = ProblemSetup(l=float(l), b=np.pi, q=lambda x: np.zeros_like(np.asarray(x, float)))
    eig = [float(mpmath.besseljzero(l + mpmath.mpf(1) / 2, n)) / np.pi for n in range(1, 7)]
    assert oracle.zero_count(setup, 0.5 * eig[0]) == 0
    for n in range(1, 6):
        assert oracle.zero_count(setup, eig[n - 1]) == n
        assert oracle.zero_count(setup, 0.5 * (eig[n - 1] + eig[n])) == n


@pytest.mark.parametrize("l", [0.0, 1.0, 1.0 + 5e-10])
def test_zero_count_is_sturm_count(l):
    """q == 0: omega_n = j_{l+1/2,n} / pi.  The count is n between omega_n
    and omega_{n+1} and on omega_n itself, where the zero sits at b."""
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    eig = [float(mpmath.besseljzero(round(l) + mpmath.mpf(1) / 2, n)) / np.pi
           for n in range(1, 32)]
    assert oracle.zero_count(setup, 0.5 * eig[0]) == 0
    for n in range(1, 31):
        assert oracle.zero_count(setup, eig[n - 1]) == n
        assert oracle.zero_count(setup, 0.5 * (eig[n - 1] + eig[n])) == n


def _zero_counts_at_l30():
    """Sturm's counts at l = 30, q == 0, b = pi, below, at and between the
    first zeros of J_{l+1/2}, against the counts those zeros give."""
    setup = ProblemSetup(l=30.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x, float)))
    eig = [float(mpmath.besseljzero(mpmath.mpf(61) / 2, n)) / np.pi for n in (1, 2, 3)]
    got = [oracle.zero_count(setup, 0.5 * eig[0])]
    want = [0]
    for n in (1, 2):
        got += [oracle.zero_count(setup, eig[n - 1]), oracle.zero_count(setup, 0.5 * (eig[n - 1] + eig[n]))]
        want += [n, n]
    return got, want


def test_zero_count_at_l30_matches_bessel_zeros():
    got, want = _zero_counts_at_l30()
    assert got == want


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="6792 nodes: the x grading kept past the log layer's end "
                          "alone has 4680 (ROADMAP item 2)")
def test_zero_count_grid_at_l30(monkeypatch):
    """At l = 30 on b = pi the centrifugal term graded the whole grid in x,
    21074 nodes; a count should step at most a fifth of that.  The log
    layer takes it to 6792: 2113 nodes up to x_L ~ 0.15, where the cap
    frequency sets the layer's end, and 4680 graded in x from there to b,
    all below the turning point (l + 1/2)/omega ~ 2.6."""
    builds = _spy_grids(monkeypatch)
    _zero_counts_at_l30()
    # one layer and one grid per count, sharing the node x_L
    sizes = [size for _, size in builds]
    assert max(a + b - 1 for a, b in zip(sizes[0::2], sizes[1::2])) <= 21074 / 5


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 30.0])
def test_zero_count_just_below_and_above_each_eigenvalue(l):
    """q == 20: omega_n = sqrt((j_{l+1/2,n} / pi)^2 + 20).  1e-6 below
    omega_n the count is n - 1, 1e-6 above it n: the ordinals of the
    Bessel zeros below omega, as the sign of w at every node of the scan
    gives them."""
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.full_like(np.asarray(x, float), 20.0))
    for n in range(1, 7):
        omega = math.sqrt((float(mpmath.besseljzero(mpmath.mpf(l) + 0.5, n)) / math.pi) ** 2
                          + 20.0)
        assert oracle.zero_count(setup, omega - 1e-6) == n - 1, (n, omega)
        assert oracle.zero_count(setup, omega + 1e-6) == n, (n, omega)


def test_zero_count_sees_negative_eigenvalues():
    # q == -3, l = 0: lambda_n = n^2 - 3, so lambda_1 = -2 lies below omega = 0
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.full_like(np.asarray(x, float), -3.0))
    assert [oracle.zero_count(setup, w) for w in (0.0, 0.5, 2.0, 2.5)] == [1, 1, 2, 3]


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [1.0, 3.0])
def test_harmonic_closed_form(l, omega):
    # q = x^2 reduces to a Kummer function; a single-frequency solve must
    # match it at interior points and at the right end
    setup = ProblemSetup(l=l, b=np.pi, q=_harmonic)
    for x in [0.7, 2.0, np.pi]:
        with mpmath.workdps(40):
            want = _harmonic_exact(l, omega, x)[0]
        got = float(regular_solution_ode(setup, omega, np.array([x])).u_values[0])
        assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (l, omega, x)


def test_awkward_fractional_order_regression():
    # once failed with a step-size underflow near the origin: keep it
    setup = ProblemSetup(l=0.25, b=np.pi, q=lambda x: np.asarray(x) ** 2)
    sol = regular_solution_ode(setup, 50.1575, np.array([np.pi]))
    assert np.isfinite(sol.u_values[0])


def test_eval_points_interleaved_with_grid():
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.asarray(x) ** 2)
    xs = np.array([0.31, 1.07, 1.9, 2.54, np.pi])
    sol = regular_solution_ode(setup, 7.0, xs)
    assert sol.u_values.shape == xs.shape
    single = regular_solution_ode(setup, 7.0, np.array([1.9]))
    scale = _envelope(sol.u_values, sol.u_prime_values, 7.0)
    assert abs(sol.u_values[2] - single.u_values[0]) < 1e-11 * scale


def test_table_potential_round_trip(tmp_path):
    xs = np.linspace(0.0, np.pi, 201)
    q, tag = make_potential({"type": "table", "x": xs, "q": xs ** 2}, np.pi)
    dense = np.linspace(0.01, np.pi, 97)
    # cubic interpolation is exact for the quadratic
    assert np.max(np.abs(q(dense) - dense ** 2)) < 1e-8
    assert tag != "C-inf"

    path = tmp_path / "pot.csv"
    rows = "\n".join(f"{x:.12g},{x * x:.12g}" for x in xs)
    path.write_text(rows + "\n")
    q2, _ = make_potential({"type": "table", "path": str(path)}, np.pi)
    assert np.max(np.abs(q2(dense) - dense ** 2)) < 1e-8


@pytest.mark.parametrize("n", [4, 5, 9, 60, 401])
@pytest.mark.parametrize("spacing", ["uniform", "random"])
def test_table_potential_is_scipys_not_a_knot_spline(n, spacing):
    """The table's numpy spline is scipy's CubicSpline with its default
    (not-a-knot) conditions, to rounding, on the span and for 0.3 past
    either end, where both continue their end pieces."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(n)
    xs = (np.linspace(0.0, np.pi, n) if spacing == "uniform"
          else np.r_[0.0, np.sort(rng.uniform(0.1, np.pi - 0.1, n - 2)), np.pi])
    qs = 20.0 * np.sin(3.0 * xs) + xs ** 2 + rng.standard_normal(n)
    q, _ = make_potential({"type": "table", "x": xs, "q": qs}, np.pi)
    ref = CubicSpline(xs, qs)
    inside = np.r_[xs, np.linspace(0.0, np.pi, 1001)]
    scale = np.max(np.abs(ref(inside)))
    assert np.max(np.abs(q(inside) - ref(inside))) <= 1e-13 * scale
    outside = np.r_[np.linspace(-0.3, 0.0, 31), np.linspace(np.pi, np.pi + 0.3, 31)]
    assert np.max(np.abs(q(outside) - ref(outside))) <= 1e-11 * np.max(np.abs(ref(outside)))
    assert q(1.25).shape == ()
    assert np.array_equal(q(inside[:1000].reshape(2, -1)), q(inside[:1000]).reshape(2, -1))
    assert np.isnan(q(np.nan))


def test_table_potential_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0\n0.5,0.25\n1.0,nope\n")
    with pytest.raises(DomainError) as err:
        make_potential({"type": "table", "path": str(path)}, np.pi)
    assert "3" in str(err.value)  # the offending row is named


@pytest.mark.parametrize("bad_x, bad_q", [(2.0, math.nan), (math.inf, 4.0), (2.0, -math.inf)])
def test_table_potential_rejects_non_finite_values(bad_x, bad_q):
    """A non-finite x or q is refused with the row named, before the
    spline sees it (scipy's spline raised a bare ValueError for a NaN q)."""
    xs, qs = [0.0, 1.0, bad_x, np.pi], [0.0, 1.0, bad_q, 9.9]
    with pytest.raises(DomainError, match="row 3 is not finite"):
        make_potential({"type": "table", "x": xs, "q": qs}, np.pi)


def test_polynomial_potential_descriptor():
    q, tag = make_potential({"type": "polynomial", "coefficients": [0.0, 0.0, 1.0]}, np.pi)
    assert abs(q(1.5) - 2.25) < 1e-15
    assert tag == "C-inf"
    qz, _ = make_potential({"type": "polynomial", "coefficients": []}, np.pi)
    assert qz(0.7) == 0.0


def test_setup_validation():
    q = lambda x: np.zeros_like(np.asarray(x))
    with pytest.raises(DomainError):
        ProblemSetup(l=-0.6, b=np.pi, q=q)
    with pytest.raises(DomainError):
        ProblemSetup(l=1.0, b=0.0, q=q)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ProblemSetup(l=bad, b=np.pi, q=q)
        with pytest.raises(DomainError):
            ProblemSetup(l=1.0, b=bad, q=q)
    setup = ProblemSetup(l=1.0, b=np.pi, q=q)
    with pytest.raises(DomainError):
        regular_solution_ode(setup, 1.0, np.array([4.0]))  # beyond b
    with pytest.raises(DomainError):
        regular_solution_ode(setup, 1.0, np.array([2.0, 1.0]))  # not ascending
    # the equation only sees omega^2, so the sign is folded away
    neg = regular_solution_ode(setup, -2.0, np.array([1.0]))
    pos = regular_solution_ode(setup, 2.0, np.array([1.0]))
    assert neg.u_values[0] == pos.u_values[0]


@pytest.mark.parametrize("q", [
    lambda x: -1.0 / np.asarray(x, dtype=float),                       # Coulomb
    lambda x: np.where(np.asarray(x) == 0.0, -np.inf, np.asarray(x)),  # -inf at 0
    lambda x: np.where(np.asarray(x) == 0.0, np.nan, 1.0),             # NaN at 0
])
def test_setup_rejects_q_not_finite_at_zero(q):
    # the series start reads q(0); a plain -1/x gets there without a numpy
    # RuntimeWarning and the error names the place, not the start's accuracy
    with pytest.raises(DomainError, match=r"finite at x=0"):
        ProblemSetup(l=0.0, b=np.pi, q=q)


def test_q_not_finite_inside_raises_at_the_probe():
    # finite at 0, so the setup takes it; the first solve names the place
    setup = ProblemSetup(l=0.0, b=np.pi,
                         q=lambda x: np.where(np.asarray(x) > 1.0, np.nan, 0.0))
    with pytest.raises(DomainError, match=r"not finite at x=1\.00"):
        regular_solutions(setup, [1.0], [np.pi])


def test_solution_sample_is_write_protected():
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    sol = regular_solution_ode(setup, 2.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sol.u_values[0] = 99.0


# ---------------------------------------------------------------------------
# workspace alignment: the same bits on and off cache lines

_PIN_X = [0.01, 0.3, 1.0, 2.0, math.pi]
# one tile, one row; one tile, four rows (both once had a Python-float
# tail, so these pins show the numpy tail gives its bits); one tile, seven
# rows; 200 rows in blocks of up to four tiles
_PIN_SWEEPS = [[3.0], [0.5, 2.0, 4.0, 30.0], list(np.linspace(0.2, 60.0, 7)),
               list(np.linspace(0.1, 300.0, 200))]


def _pin_setup(l=0.0):
    return ProblemSetup(l=l, b=math.pi, q=make_potential(
        {"type": "polynomial", "coefficients": [1, 0, 1]}, math.pi)[0])


@pytest.mark.parametrize("omegas, digest", zip(_PIN_SWEEPS, [
    "754bcd0088bfaf67", "c64284a4f841daf5", "65eb229976e25f84", "a34caab279846293"]))
def test_regular_solutions_bits_are_pinned(omegas, digest):
    """u and u' at l = 0, q = 1 + x^2, bit for bit as the chain product
    gave them with its rows wherever numpy put them: sha256 of their
    bytes.  At l = 0 there is no log layer, and every value comes from
    +, -, *, / and sqrt, which IEEE 754 rounds the same everywhere."""
    import hashlib

    u, up = regular_solutions(_pin_setup(), omegas, _PIN_X)
    assert hashlib.sha256(u.tobytes() + up.tobytes()).hexdigest()[:16] == digest


def test_zero_count_is_pinned():
    assert [oracle.zero_count(_pin_setup(), om) for om in (0.7, 3.3, 12.0, 47.0, 150.0)] \
        == [0, 2, 11, 46, 149]


def test_sweeps_with_tiles_off_cache_lines_give_the_same_bits(monkeypatch):
    """Every array _aligned hands out, moved 16 bytes past a cache line,
    gives the same u, u' and zero counts, with and without the log layer,
    for sweeps of 1, 4, 7 and 200 rows, the last in up to five tiles a
    chain product."""
    tiles, products = [], oracle._products

    def spy(terms, om, rows, ws, log=False):
        tiles.append(-(-om.size // rows))
        return products(terms, om, rows, ws, log)

    def solve():
        out = []
        for l in (0.0, 0.5, 1.0):
            setup = _pin_setup(l)
            out += [a for om in _PIN_SWEEPS for a in regular_solutions(setup, om, _PIN_X)]
            out.append(np.array([oracle.zero_count(setup, om) for om in (3.3, 47.0)]))
        return out

    monkeypatch.setattr(oracle, "_products", spy)
    aligned = solve()
    assert max(tiles) == 5
    on_line = oracle._aligned
    monkeypatch.setattr(oracle, "_aligned", lambda size: on_line(size + 2)[2:])
    assert oracle._aligned(8).__array_interface__["data"][0] % 64 == 16
    off_line = solve()
    assert all(np.array_equal(a, b) for a, b in zip(aligned, off_line))
