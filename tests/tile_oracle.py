"""Oracles for the tile arithmetic of `analytic_korner`, in the forms the
program used before its windowed exceptional set and its parity-free
contraction formula: the angle test over the whole circle for every tile,
and the contracted index map from the rate's residue and parity.
"""

import math

import numpy as np

from sparsetrig.blockpoly import LazyRate
from sparsetrig.circle import CircleGrid


def ref_is_odd(rate) -> bool:
    """The parity of an int, or of a LazyRate mult * base^exp."""
    if isinstance(rate, LazyRate):
        return rate.mult % 2 == 1 and (rate.base % 2 == 1 or rate.exp == 0)
    return rate % 2 == 1


def ref_contracted_indices(rate, m: int) -> np.ndarray:
    """sigma with t_{sigma(j)} = rate * t_j on M points: e^{i r t_j} =
    (-1)^r omega^{r j}, so the half-turn lands on index M/2 when r is even
    and on 0 when r is odd."""
    base = 0 if ref_is_odd(rate) else m // 2
    return (base + (rate % m) * np.arange(m, dtype=np.int64)) % m


def ref_pullback_bad_set(g_vals: np.ndarray, rates, grid: CircleGrid,
                         threshold: float) -> np.ndarray:
    """Points of some tile interval [2 pi (s-1)/K, 2 pi (s+1)/K] where
    |G(rates[s-1] t) - 1| >= threshold, each tile tested on every point."""
    t = grid.points
    count = len(rates)
    tile_width = 2.0 * math.pi / count
    bad = np.zeros(grid.size, dtype=bool)
    for s in range(1, count + 1):
        center = 2.0 * math.pi * s / count
        d = np.angle(np.exp(1j * (t - center)))
        in_interval = np.abs(d) <= tile_width
        index = ref_contracted_indices(rates[s - 1], grid.size)
        bad |= in_interval & (np.abs(g_vals[index] - 1.0) >= threshold)
    return bad
