"""High-accuracy ODE reference solver and problem setup."""
import math
import warnings

import numpy as np
import pytest

from transmute import oracle
from transmute.coeffs import unperturbed_term
from transmute.errors import AccuracyWarning, DomainError
from transmute.oracle import (
    ProblemSetup,
    exact_solution_harmonic,
    make_potential,
    regular_solution_ode,
)


def _envelope(sample, omega):
    return np.max(
        np.hypot(sample.u_values, sample.u_prime_values / max(omega, 1.0))
    )


def _constant_q_cases():
    # q == 0 cases are named by omega alone; Q = 50 needs omega^2 > Q
    for Q in (0.0, 50.0, -3.0):
        for omega in (0.5, 3.0, 40.0, 249.0, 600.0, 1400.0):
            if omega * omega > Q:
                yield pytest.param(
                    omega, Q, id=f"{omega}" if Q == 0 else f"{omega}-Q{Q:g}"
                )


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("omega,Q", list(_constant_q_cases()))
def test_free_problem_matches_closed_form(l, omega, Q):
    """q == Q is the free problem at frequency sqrt(omega^2 - Q), a Bessel
    closed form; the propagator must reproduce it to its advertised
    accuracy at every angular parameter and frequency."""
    setup = ProblemSetup(
        l=l, b=np.pi, q=lambda x: np.full_like(np.asarray(x, dtype=float), Q)
    )
    xs = np.linspace(0.3, np.pi, 7)
    sol = regular_solution_ode(setup, omega, xs)
    ref = unperturbed_term(l, math.sqrt(omega * omega - Q), xs)
    scale = max(_envelope(sol, omega), np.max(np.abs(ref)))
    assert np.max(np.abs(sol.u_values - ref)) < 5e-10 * scale


def test_no_step_past_last_point_and_step_budget(monkeypatch):
    """The grid ends at the last requested point, and resolving the phase
    at _PHASE_FRAC keeps a high-frequency solve small."""
    nodes = []
    step_maps = oracle._step_maps

    def spy(xs, *args):
        nodes.append(xs)
        return step_maps(xs, *args)

    monkeypatch.setattr(oracle, "_step_maps", spy)
    setup = ProblemSetup(l=0.5, b=np.pi, q=lambda x: np.asarray(x) ** 2)
    x_eval = np.array([0.4, 1.1, 2.0])
    regular_solution_ode(setup, 600.0, x_eval)
    assert nodes and max(xs[-1] for xs in nodes) == x_eval[-1]

    nodes.clear()
    regular_solution_ode(setup, 600.0, np.array([np.pi]))
    assert sum(xs.size - 1 for xs in nodes) < 60_000


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
    assert abs(sol.u_values[2] - single.u_values[0]) < 1e-11 * _envelope(sol, 7.0)


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
