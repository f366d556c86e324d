"""The cubic spline of table potentials, on numpy alone: imported by
oracle.make_potential on first use, so runs with other potentials never
compile it."""
from __future__ import annotations

import numpy as np

__all__ = ["not_a_knot"]


def not_a_knot(xs: np.ndarray, ys: np.ndarray):
    """The cubic spline through (xs, ys) with a continuous third derivative
    at the second and the next-to-last knot, continued past the ends by its
    end pieces: scipy's CubicSpline with its default conditions, to
    rounding.  Needs at least four knots.

    The knot slopes s solve one tridiagonal system (the not-a-knot rows
    touch only the two end slopes of their side), by elimination without
    pivoting, as every pivot is positive for increasing xs.
    """
    h = np.diff(xs)
    delta = np.diff(ys) / h
    n = xs.size
    lower = np.empty(n)
    diag = np.empty(n)
    upper = np.empty(n)
    rhs = np.empty(n)
    lower[1:-1], diag[1:-1], upper[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[1:-1] = 3.0 * (h[1:] * delta[:-1] + h[:-1] * delta[1:])
    span = h[0] + h[1]
    diag[0], upper[0] = h[1], span
    rhs[0] = ((h[0] + 2.0 * span) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / span
    span = h[-1] + h[-2]
    lower[-1], diag[-1] = span, h[-2]
    rhs[-1] = (h[-1] ** 2 * delta[-2] + (2.0 * span + h[-1]) * h[-2] * delta[-1]) / span
    lower, diag, upper, rhs = (v.tolist() for v in (lower, diag, upper, rhs))
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    slope = [0.0] * n
    slope[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        slope[i] = (rhs[i] - upper[i] * slope[i + 1]) / diag[i]
    s = np.array(slope)
    # on [x_i, x_i+1]: y_i + s_i d + c2_i d^2 + c3_i d^3, d = x - x_i
    c2 = (3.0 * delta - 2.0 * s[:-1] - s[1:]) / h
    c3 = (s[:-1] + s[1:] - 2.0 * delta) / (h * h)
    knots, values = xs.copy(), ys.copy()

    def q_table(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, n - 2)
        d = x - knots[i]
        return values[i] + d * (s[i] + d * (c2[i] + d * c3[i]))

    return q_table
