"""Window-sweep oracle: S** of a materialized polynomial from definitions.

One np.exp over the grid per coefficient and the full (S+1) x M prefix
matrix, as evaluation and the window sweeps computed them before the
root-of-unity table and the streamed sweep.  Nothing here calls
`trigpoly.max_window_gap`, so a fault there cannot hide in both the
program and its check.
"""

import math
from typing import Optional

import numpy as np

from sparsetrig.trigpoly import TrigPoly


def ref_values_direct(p: TrigPoly, m: int) -> np.ndarray:
    """p on the M-point grid t_j = -pi + 2 pi j / M, one term at a time,
    with the phase of each term reduced exactly modulo M."""
    out = np.zeros(m, dtype=complex)
    j = np.arange(m)
    base = 2.0 * math.pi / m
    for k, c in p.coeffs.items():
        r = k % m
        sign = 1.0 if (k % 2 == 0) else -1.0
        out += (sign * c) * np.exp(1j * base * ((r * j) % m))
    return out


def ref_window_gap(rows, m: int) -> np.ndarray:
    """max over windows i < l of |rows[i] + ... + rows[l - 1]| per column."""
    prefixes = np.zeros((len(rows) + 1, m), dtype=complex)
    for i, row in enumerate(rows):
        prefixes[i + 1] = prefixes[i] + row
    best = np.zeros(m)
    for i in range(len(rows)):
        np.maximum(best, np.abs(prefixes[i + 1:] - prefixes[i]).max(axis=0), out=best)
    return best


def ref_s_star_star(p: TrigPoly, m: int) -> np.ndarray:
    """sup over frequency windows [a, b] of |S_{b,a}(p)| at the grid points:
    the window gap of the term rows in increasing frequency."""
    return ref_window_gap([ref_values_direct(TrigPoly({k: p[k]}), m)
                           for k in p.spectrum()], m)


def ref_width_bracket(rows: np.ndarray, neg: Optional[np.ndarray] = None,
                      chunk_cells: int = 2 ** 14):
    """The width bracket of `blockpoly.WidthBracket` from whole prefix
    chunks of `chunk_cells` cells: every prefix row of a chunk is projected
    onto the 16 directions at once.  `rows` are positive-half rows and
    `neg` negative-half rows, each in term order: the points are 0, the
    prefix sums of `rows` and the negated prefix sums of `neg`."""
    from sparsetrig.blockpoly import (_WIDTH_COS, _WIDTH_UNITS, WIDTH_DIRECTIONS,
                                      WIDTH_MARGIN, WIDTH_UNDERFLOW)
    m = rows.shape[1]
    neg = np.zeros((0, m), dtype=complex) if neg is None else neg
    lower, upper = np.empty(m), np.empty(m)
    step = max(1, chunk_cells // (len(rows) + len(neg) + 1))
    for lo in range(0, m, step):
        cols = slice(lo, min(lo + step, m))
        top = np.zeros((cols.stop - lo, WIDTH_DIRECTIONS))
        bottom = np.zeros_like(top)
        for side, sign in ((rows, 1.0), (neg, -1.0)):
            if len(side):
                prefix = sign * np.cumsum(side[:, cols], axis=0)
                proj = prefix.view(float).reshape(len(side), -1, 2) @ _WIDTH_UNITS
                top = np.maximum(proj.max(axis=0), top)
                bottom = np.minimum(proj.min(axis=0), bottom)
        width = (top - bottom).max(axis=1)
        margin = (WIDTH_MARGIN / _WIDTH_COS * np.maximum(top, -bottom).max(axis=1)
                  + WIDTH_UNDERFLOW)
        lower[cols] = np.maximum(width - margin, 0.0)
        upper[cols] = width / _WIDTH_COS + margin
    return lower, upper
