"""Table potentials and their cubic spline, on numpy alone: imported by
oracle.make_potential on first use, so runs with other potentials never
compile it."""
from __future__ import annotations

import csv

import numpy as np

from .errors import DomainError

__all__ = ["not_a_knot", "table_potential"]


def table_potential(descriptor: dict, b: float):
    """The not-a-knot spline of a {"type": "table"} descriptor: rows "x,q"
    from descriptor["path"] (a CSV file; a first row that does not parse
    is a header, rows starting with # are comments) or the arrays
    descriptor["x"] and descriptor["q"], at least four, finite, with x
    increasing strictly over [0, b].  DomainError otherwise."""
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
    return not_a_knot(xs, qs)


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
