"""High-accuracy ODE reference solver and problem setup."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmute import oracle
from transmute.coeffs import compute_beta, unperturbed_term
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


def _spy_step_maps(monkeypatch):
    """Record (nodes, frequencies) of every _step_maps call; the nodes are
    those of the grid terms it is given, the last ones formed."""
    calls, nodes = [], []
    grid_terms, step_maps = oracle._grid_terms, oracle._step_maps

    def terms_spy(xs, l, q):
        nodes.append(xs)
        return grid_terms(xs, l, q)

    def maps_spy(terms, om, bufs):
        calls.append((nodes[-1], om.size))
        return step_maps(terms, om, bufs)

    monkeypatch.setattr(oracle, "_grid_terms", terms_spy)
    monkeypatch.setattr(oracle, "_step_maps", maps_spy)
    return calls


def _constant_q_cases():
    # q == 0 cases are named by omega alone; Q = 50 needs omega^2 > Q; the
    # "sweep" case solves the whole omega list in one regular_solutions call
    for Q in (0.0, 50.0, -3.0):
        omegas = [om for om in (0.5, 3.0, 40.0, 249.0, 600.0, 1400.0) if om * om > Q]
        for omega in omegas + [tuple(omegas)]:
            name = "sweep" if isinstance(omega, tuple) else f"{omega}"
            yield pytest.param(omega, Q, id=name if Q == 0 else f"{name}-Q{Q:g}")


@pytest.mark.parametrize("l", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("omega,Q", list(_constant_q_cases()))
def test_free_problem_matches_closed_form(l, omega, Q):
    """q == Q is the free problem at frequency sqrt(omega^2 - Q), a Bessel
    closed form; the propagator must reproduce it to its advertised
    accuracy at every angular parameter and frequency, alone or in a
    sweep."""
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
        assert np.max(np.abs(u - ref)) < 5e-10 * scale, om


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
    the frequencies a fit samples, to 1e-11 of its envelope."""
    setup = ProblemSetup(l=l, b=np.pi, q=_harmonic)
    omegas = [0.5, 3.0, 20.0, 60.0, 120.0, 235.0]
    xs = np.pi / np.array([8.0, 2.0, 1.0])
    u, u_prime = regular_solutions(setup, omegas, xs)
    for om, row, row_p in zip(omegas, u, u_prime):
        with mpmath.workdps(40):
            ref = np.array([_harmonic_exact(l, om, x) for x in xs])
        scale = _envelope(row, row_p, om)
        assert np.max(np.abs(row - ref[:, 0])) < 1e-11 * scale, om
        assert np.max(np.abs(row_p - ref[:, 1])) < 1e-11 * max(om, 1.0) * scale, om


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    l=st.sampled_from([-0.5, -0.25, 0.0]) | st.floats(0.1, 20.0),
    b=st.floats(0.2, 10.0),
    om_lo=st.floats(0.0, 150.0),
    om_span=st.floats(0.0, 100.0),
    q0=st.floats(-50.0, 50.0),
    q2=st.sampled_from([0.0, 100.0]) | st.floats(0.0, 2000.0),
)
def test_grid_follows_step_rule(l, b, om_lo, om_span, q0, q2):
    """The grid runs from x0 to b, strictly increasing; no step is longer
    than the largest h the rule allows on the probe cells it spans; and it
    has at most ceil(int dx/h) + 1 nodes.  q = q0 + q2 x^2 crosses omega^2
    inside the interval for many draws, where |q - omega^2| vanishes."""
    q = lambda x: q0 + q2 * np.asarray(x, dtype=float) ** 2
    om_hi = om_lo + om_span
    x0 = 1e-6 * b
    probe = oracle._probe(l, b, q, x0)
    grid = oracle._build_grid(probe, om_lo, om_hi)
    edges, h = oracle._step_rule(probe, om_lo, om_hi)
    assert grid[0] == x0 and grid[-1] == b
    assert np.all(np.diff(grid) > 0)
    assert grid.size <= math.ceil(np.sum(np.diff(edges) / h)) + 1

    # the largest h over the cells [first, last] each step touches
    first = np.searchsorted(edges, grid[:-1], side="right") - 1
    last = np.searchsorted(edges, grid[1:], side="left") - 1
    spans = np.stack([first, last + 1], axis=1).ravel()
    allowed = np.maximum.reduceat(np.append(h, 0.0), spans)[0::2]
    assert np.all(np.diff(grid) <= allowed * (1 + 1e-12))

    # the rule: a probe cell at most, the phase bound at the probed
    # points of each cell, and the centrifugal ratio at its left end
    assert np.all(h <= (b - x0) / 1024 * (1 + 1e-12))
    mids = 0.5 * (edges[:-1] + edges[1:])
    for om in (om_lo, om_hi):
        for pts in (edges[:-1], edges[1:], mids):
            assert np.all(h * np.sqrt(np.abs(q(pts) - om * om))
                          <= oracle._PHASE_FRAC * (1 + 1e-12))
    if l * (l + 1):
        ratio = oracle._SING_FRAC / max(1.0, math.sqrt(abs(l * (l + 1))))
        assert np.all(h <= ratio * edges[:-1] * (1 + 1e-12))


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
    maps = oracle._step_maps(terms, np.array(omegas), np.empty((5, len(omegas), terms.shape[1])))
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
    at _PHASE_FRAC keeps a high-frequency solve small (rows x steps over
    every _step_maps call)."""
    calls = _spy_step_maps(monkeypatch)
    setup = ProblemSetup(l=0.5, b=np.pi, q=_harmonic)
    x_eval = np.array([0.4, 1.1, 2.0])
    regular_solution_ode(setup, 600.0, x_eval)
    assert calls and max(xs[-1] for xs, _ in calls) == x_eval[-1]

    calls.clear()
    regular_solution_ode(setup, 600.0, np.array([np.pi]))
    assert sum(rows * (xs.size - 1) for xs, rows in calls) < 60_000


def test_fit_sweep_is_solved_in_blocks(monkeypatch):
    """An M = 25 fit solves its 156 frequencies in a few block calls, none
    larger than the block bound.  At l = 1 the grid has 1748 nodes (3495
    refined), so a 2^15 block takes 18 frequencies: 9 blocks, each one
    call on its grid and two on the refinement.  One solve per frequency
    took 312 calls."""
    calls = _spy_step_maps(monkeypatch)
    compute_beta(ProblemSetup(l=1.0, b=np.pi, q=_harmonic), np.pi, 25)
    assert len(calls) <= 30
    assert max(rows * xs.size for xs, rows in calls) <= oracle._BLOCK


def test_fit_memory_stays_within_the_workspace():
    """An M = 25 fit's passes share one workspace of six tile-sized
    arrays: its traced peak reads 1.90e6 bytes, where allocating each
    pass's arrays anew peaked at 2.07e6."""
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
    """Below omega ~ 52 on b = pi every frequency gets the same grid, so an
    M = 25 sweep solved as a batch equals its one-frequency solves."""
    setup = ProblemSetup(l=1.0, b=np.pi, q=_harmonic)
    omegas = np.linspace(0.5, 3.0 * 53, 156) / np.pi
    u, u_prime = regular_solutions(setup, omegas, [np.pi])
    single = [regular_solution_ode(setup, om, [np.pi]) for om in omegas]
    assert np.array_equal(u[:, 0], [s.u_values[0] for s in single])
    assert np.array_equal(u_prime[:, 0], [s.u_prime_values[0] for s in single])


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


def test_warns_past_validated_range():
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    with pytest.warns(AccuracyWarning, match="validated range"):
        regular_solution_ode(setup, 2500.0, np.array([np.pi]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        regular_solution_ode(setup, 1400.0, np.array([np.pi]))


def test_non_finite_solution_raises():
    """At l = 50 the rescaled w = u / x0^(l+1) overflows at omega = 0:
    that raises, naming omega and x, instead of returning a non-finite
    row.  zero_count's single grid overflows from l = 60 on."""
    setup = ProblemSetup(l=50.0, b=np.pi, q=lambda x: 30.0 * np.sin(5.0 * np.asarray(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationFailure, match=r"not finite at omega=0 ") as err:
            regular_solutions(setup, np.linspace(0.0, 1900.0, 40), [0.1, np.pi])
        assert err.value.x == np.pi
        with pytest.raises(IntegrationFailure, match=r"not finite at omega=0 "):
            oracle.zero_count(ProblemSetup(l=60.0, b=np.pi, q=setup.q), 0.0)


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


def test_table_potential_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0\n0.5,0.25\n1.0,nope\n")
    with pytest.raises(DomainError) as err:
        make_potential({"type": "table", "path": str(path)}, np.pi)
    assert "3" in str(err.value)  # the offending row is named


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


def test_solution_sample_is_write_protected():
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.zeros_like(np.asarray(x)))
    sol = regular_solution_ode(setup, 2.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sol.u_values[0] = 99.0
