"""High-accuracy ODE reference solver and problem setup."""
import math
import warnings

import numpy as np
import pytest

from transmute import oracle
from transmute.coeffs import compute_beta, unperturbed_term
from transmute.errors import AccuracyWarning, DomainError, IntegrationFailure
from transmute.oracle import (
    ProblemSetup,
    exact_solution_harmonic,
    make_potential,
    regular_solution_ode,
    regular_solutions,
)


def _envelope(u, u_prime, omega):
    return np.max(np.hypot(u, u_prime / max(omega, 1.0)))


def _harmonic(x):
    return np.asarray(x, dtype=float) ** 2


def _spy_step_maps(monkeypatch):
    """Record (nodes, frequencies) of every _step_maps call."""
    calls = []
    step_maps = oracle._step_maps

    def spy(xs, l, om, q):
        calls.append((xs, om.size))
        return step_maps(xs, l, om, q)

    monkeypatch.setattr(oracle, "_step_maps", spy)
    return calls


def _constant_q_cases():
    # q == 0 cases are named by omega alone; Q = 50 needs omega^2 > Q; the
    # "sweep" case solves the whole omega list in one regular_solutions call
    for Q in (0.0, 50.0, -3.0):
        omegas = [om for om in (0.5, 3.0, 40.0, 249.0, 600.0, 1400.0) if om * om > Q]
        for omega in omegas + [tuple(omegas)]:
            name = "sweep" if isinstance(omega, tuple) else f"{omega}"
            yield pytest.param(omega, Q, id=name if Q == 0 else f"{name}-Q{Q:g}")


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
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
    larger than the block bound.  At l = 1 the grid has 2008 nodes (4015
    refined), so a 2^15 block takes 16 frequencies: 10 blocks, each one
    call on its grid and two on the refinement.  One solve per frequency
    took 312 calls."""
    calls = _spy_step_maps(monkeypatch)
    compute_beta(ProblemSetup(l=1.0, b=np.pi, q=_harmonic), np.pi, 25)
    assert len(calls) <= 30
    assert max(rows * xs.size for xs, rows in calls) <= oracle._BLOCK


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


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [1.0, 3.0])
def test_harmonic_closed_form(l, omega):
    # q = x^2 reduces to a Kummer function; usable while the 1F1 series
    # is numerically benign (small omega)
    setup = ProblemSetup(l=l, b=np.pi, q=lambda x: np.asarray(x) ** 2)
    for x in [0.7, 2.0, np.pi]:
        want = exact_solution_harmonic(l, omega, x)
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
