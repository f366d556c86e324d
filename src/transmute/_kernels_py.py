"""The propagation chain: ordered products of 2x2 step maps in numpy.

The sequential product of 2x2 step maps is associative, so instead of a
Python-level loop over every step the segment between two checkpoints is
collapsed by pairwise reduction: O(n) arithmetic in O(log n) vectorized
passes.  Rounding differs from a strictly sequential product at the
1e-15 level, which is far below the integrator's error budget.
"""
from __future__ import annotations

import numpy as np


def _segment_product(a, b, c, d):
    """Entries of the ordered product M_{n-1} @ ... @ M_0 for matrices
    [[a_i, b_i], [c_i, d_i]]."""
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


def chain_2x2(m11, m12, m21, m22, w0, wp0, idx_out):
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
